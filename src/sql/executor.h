#ifndef RDFREL_SQL_EXECUTOR_H_
#define RDFREL_SQL_EXECUTOR_H_

/// \file executor.h
/// Pull-based, vectorized physical operators. Every operator produces
/// batches (`NextBatch(RowBatch*)`, ~1024 rows per call): scans hand out a
/// whole decoded heap page per call without copying, filters attach
/// selection vectors instead of moving rows, projections evaluate
/// expressions column-at-a-time, and joins probe a batch per call, pausing
/// on a resume cursor when the output batch fills.
///
/// `NextBatch` is a non-virtual wrapper around each operator's
/// `NextBatchImpl`: it checks the deadline/cancel control and maintains
/// per-operator counters (rows out, batches out, and — when EnableTiming is
/// on — inclusive nanoseconds); `FormatOperatorStats` renders the profile
/// tree that the stores surface through Explain.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sql/ast.h"
#include "sql/catalog.h"
#include "sql/exec_control.h"
#include "sql/expression.h"
#include "sql/row.h"
#include "sql/row_batch.h"
#include "util/arena.h"
#include "util/scope_markers.h"
#include "util/status.h"

namespace rdfrel::sql {

/// A materialized intermediate result (CTE or derived table), shared between
/// the planner's execution of the CTE and later scans of it. The rows stay
/// in the chunks the producing pipeline already filled — the per-morsel
/// buffers of an Exchange, or the batch buffers of a serial pipeline — so
/// materializing moves buffers and copies no row that was not already a
/// borrowed or filtered one.
///
/// RDFREL_QUERY_SCOPED: Exchange chunks live in that exchange's QueryArena,
/// which this object co-owns; it lives only as long as the query's CteEnv
/// and the scans over it.
class RDFREL_QUERY_SCOPED Materialized {
 public:
  using ArenaRows = std::vector<Row, util::ArenaAllocator<Row>>;

  Scope scope;  ///< qualifier = the materialized name

  size_t num_rows() const { return num_rows_; }
  const Row* chunk_data(size_t i) const { return spans_[i].data; }
  size_t chunk_size(size_t i) const { return spans_[i].size; }
  /// Row index of chunk \p i's first row.
  size_t chunk_start(size_t i) const { return starts_[i]; }
  /// The chunk holding row \p row (< num_rows()).
  size_t ChunkOf(size_t row) const;

  /// Appends \p rows as one chunk.
  void Append(std::vector<Row> rows);
  /// Appends an arena-backed chunk; \p arena is kept alive with it. A
  /// chunk under half a batch is moved onto the copied tail chunk instead.
  void Append(ArenaRows rows, std::shared_ptr<util::QueryArena> arena);
  /// Appends the active rows of \p batch. A dense owned batch at least
  /// half full hands over its row buffer as one chunk; any other batch
  /// (borrowed, selection-filtered, or small) is copied onto a trailing
  /// copied chunk. So a filtered or fanned-out stream still materializes
  /// into chunks that later scans read in full-size batches.
  void Append(RowBatch* batch);

 private:
  struct Span {
    const Row* data;
    size_t size;
  };
  void AddSpan(const Row* data, size_t size);
  /// The copied tail chunk (owned_.back()), opened if the last chunk is
  /// another one. Call SyncTail() after growing it.
  std::vector<Row>* Tail();
  /// Re-points the tail's span after it grew (a reallocation moves it).
  void SyncTail();

  std::vector<Span> spans_;
  std::vector<size_t> starts_;  ///< parallel to spans_
  size_t num_rows_ = 0;
  bool tail_open_ = false;  ///< owned_.back() is the growing copied chunk
  std::vector<std::vector<Row>> owned_;
  // Arenas before the chunks they back, so the chunks are destroyed first.
  std::vector<std::shared_ptr<util::QueryArena>> arenas_;
  std::vector<ArenaRows> arena_chunks_;
};

/// Secondary interface for scans that can serve an arbitrary sub-range of
/// their input, implemented by SeqScanOp (unit = heap page) and
/// MaterializedScanOp (unit = row). The parallel executor (sql/parallel.h)
/// discovers it by dynamic_cast on a pipeline's driving leaf and calls
/// SetMorselRange before each per-morsel re-Open.
class MorselSource {
 public:
  virtual ~MorselSource() = default;

  /// Total number of morsel units in the input.
  virtual uint64_t MorselUnits() const = 0;
  /// Approximate rows per unit (>= 1); sizes morsels in rows.
  virtual uint64_t RowsPerUnit() const = 0;
  /// Approximate total input rows (parallelism threshold).
  virtual uint64_t ApproxRows() const = 0;
  /// Restricts the next Open() to units [begin, end). end is clamped to
  /// MorselUnits(). Resetting to [0, UINT64_MAX) restores a full scan.
  virtual void SetMorselRange(uint64_t begin, uint64_t end) = 0;
};

/// Per-operator execution counters (see file comment).
struct OperatorStats {
  uint64_t rows = 0;     ///< active rows produced
  uint64_t batches = 0;  ///< non-empty batches produced
  uint64_t ns = 0;       ///< inclusive time in NextBatch (timing only)
};

/// Base class for physical operators.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Prepares (or re-prepares) the operator for a full scan of its output.
  virtual Status Open() = 0;

  /// Produces the next batch (>= 1 active row) into \p out; returns false
  /// at end of stream. \p out is reset first; its contents stay valid until
  /// the next call on this operator.
  Result<bool> NextBatch(RowBatch* out);

  const Scope& scope() const { return scope_; }

  /// Display name for plan profiles, e.g. "SeqScan(dph)".
  virtual std::string name() const = 0;
  /// Child operators (profile tree + recursive timing/control propagation).
  virtual std::vector<Operator*> children() { return {}; }

  /// Structural self-check for the operator verifier (DESIGN.md §8):
  /// expression slots in bounds of child scopes, join key arity agreement,
  /// scope widths consistent across the operator boundary. Children are
  /// verified separately by VerifyOperatorTree, which prefixes failures
  /// with the operator's dotted path.
  virtual Status VerifySelf() const { return Status::OK(); }

  /// Extra per-operator annotations appended to the profile line (after the
  /// counters), e.g. " morsels=12 workers=4". Empty by default.
  virtual std::string StatsSuffix() const { return ""; }

  /// Turns per-call timing on/off for this subtree (off by default: two
  /// clock reads per batch are wasted work outside a profile).
  void EnableTiming(bool on);
  /// Attaches a deadline/cancel control to this subtree. Checked in the
  /// NextBatch wrapper (every batch), so blocking Open()s that drain a
  /// child through ForEachChildRow are interruptible too. \p control is
  /// borrowed and must outlive execution; nullptr detaches.
  void SetControl(const ExecControl* control);

  const OperatorStats& stats() const { return stats_; }

  /// Drains the rest of this operator's output (after Open()) into \p out.
  /// The default pulls NextBatch and hands each batch to
  /// Materialized::Append; an Exchange instead hands over its per-morsel
  /// buffers, and pass-through operators above one forward the call, so a
  /// parallel CTE body materializes without a serial copy.
  virtual Status DrainTo(Materialized* out);

 protected:
  /// Fills \p out (already reset); returns false at end of stream. The one
  /// drive method every operator implements.
  virtual Result<bool> NextBatchImpl(RowBatch* out) = 0;

  /// Adds \p rows rows in one batch, and the time since \p start_ns when
  /// timing, to this operator's counters (DrainTo overrides that bypass
  /// NextBatch).
  void CountDrained(uint64_t rows, uint64_t start_ns);
  /// Clock for CountDrained; 0 when timing is off.
  uint64_t DrainClock() const;

  /// Runs \p child to exhaustion batch by batch, invoking \p fn per
  /// active row.
  Status ForEachChildRow(Operator* child,
                         const std::function<Status(const Row&)>& fn);

  Scope scope_;
  bool timing_ = false;
  const ExecControl* control_ = nullptr;
  OperatorStats stats_;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Renders the operator tree with its counters, one line per operator:
///   HashJoin: rows=812 batches=1 ms=0.42
///     SeqScan(l): rows=50000 batches=49 ms=0.18
/// (ms appears only after EnableTiming; times are inclusive of children.)
/// Stops any Exchange workers still running under \p root — a LIMIT may
/// end the stream before every morsel ran — so the counters read are final.
std::string FormatOperatorStats(Operator& root);

/// Full-table scan: one decoded heap page per batch, borrowed zero-copy from
/// the page cache. MorselSource over heap pages: a morsel range limits the
/// scan to pages [begin, end).
class SeqScanOp final : public Operator, public MorselSource {
 public:
  SeqScanOp(const Table* table, const std::string& alias);
  Status Open() override;
  std::string name() const override { return "SeqScan(" + table_->name() + ")"; }
  Status VerifySelf() const override;

  uint64_t MorselUnits() const override;
  uint64_t RowsPerUnit() const override;
  uint64_t ApproxRows() const override;
  void SetMorselRange(uint64_t begin, uint64_t end) override {
    range_begin_ = begin;
    range_end_ = end;
  }

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  /// First page past the current morsel range (clamped to the heap).
  size_t EndPage() const;

  const Table* table_;
  size_t page_ = 0;
  uint64_t range_begin_ = 0;            ///< morsel range [begin, end) pages
  uint64_t range_end_ = UINT64_MAX;
  /// Decoded rows of the current page; holding the shared_ptr keeps a
  /// Borrow'ed batch valid even if the cache entry is invalidated mid-scan.
  std::shared_ptr<const DecodedPage> cur_page_;
};

/// Reads rows of one table by RowId for the index-driven operators. Within
/// Table::kDecodedRowBudget a row is borrowed in place from its decoded
/// page, and every page read stays pinned until the next Reset: a probe
/// that lands on a page already touched takes no page-cache lock, counter
/// or refcount, and copies no row. So the page cache sees one lookup per
/// distinct page per Open. Larger tables deserialize the heap cell into a
/// scratch row instead of re-decoding whole pages per probe. Both paths
/// range-check the rid's page and slot.
class RowReader {
 public:
  explicit RowReader(const Table* table) : table_(table) {}

  /// Unpins every page and re-reads the table size (call from the owning
  /// operator's Open()).
  void Reset();

  /// The row at \p rid; valid until the next Reset (decoded path) or the
  /// next Read (heap-cell path).
  Result<const Row*> Read(RowId rid);

 private:
  const Table* table_;
  bool decoded_ = true;  ///< table fits the decoded-page budget
  /// Pinned pages by page number (decoded_); null where not yet read.
  std::vector<std::shared_ptr<const DecodedPage>> pinned_;
  std::vector<uint32_t> touched_;  ///< page numbers pinned since Reset
  Row scratch_;                    ///< heap-cell path buffer
};

/// Point index lookup: emits rows whose indexed column equals a constant.
/// The posting list is borrowed from the index; rows are read through a
/// RowReader, and only the planner-chosen \p columns of each are copied
/// into the output batch (DESIGN.md §7, "Column pruning").
class IndexScanOp final : public Operator {
 public:
  IndexScanOp(const Table* table, const std::string& alias,
              const IndexInfo* index, Value key, std::vector<int> columns);
  Status Open() override;
  std::string name() const override {
    return "IndexScan(" + table_->name() + ")";
  }
  Status VerifySelf() const override;
  /// " cols=E/N": emitted of stored columns.
  std::string StatsSuffix() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  const Table* table_;
  const IndexInfo* index_;
  Value key_;
  std::vector<int> columns_;  ///< stored slots emitted, in output order
  RowReader reader_;
  std::span<const RowId> rids_;  ///< borrowed posting list
  size_t pos_ = 0;
};

/// Scans a materialized result (CTE / derived table) under a new alias,
/// borrowing the cached rows chunk by chunk (zero copies). MorselSource
/// over rows: a morsel range may start and end inside any chunk.
class MaterializedScanOp final : public Operator, public MorselSource {
 public:
  /// \p name (the CTE's, when it has one) labels the profile line.
  MaterializedScanOp(std::shared_ptr<const Materialized> mat,
                     const std::string& alias, std::string name = "");
  Status Open() override;
  std::string name() const override {
    return label_.empty() ? "MaterializedScan"
                          : "MaterializedScan(" + label_ + ")";
  }
  Status VerifySelf() const override;

  uint64_t MorselUnits() const override { return mat_->num_rows(); }
  uint64_t RowsPerUnit() const override { return 1; }
  uint64_t ApproxRows() const override { return mat_->num_rows(); }
  void SetMorselRange(uint64_t begin, uint64_t end) override {
    range_begin_ = begin;
    range_end_ = end;
  }

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  /// First row past the current morsel range (clamped to the input).
  size_t EndRow() const;

  std::shared_ptr<const Materialized> mat_;
  std::string label_;
  size_t pos_ = 0;                      ///< next row index
  size_t chunk_ = 0;                    ///< chunk holding row pos_
  uint64_t range_begin_ = 0;            ///< morsel range [begin, end) rows
  uint64_t range_end_ = UINT64_MAX;
};

/// WHERE filter: evaluates the predicate over the whole batch and narrows
/// it with a selection vector — surviving rows are not moved.
class FilterOp final : public Operator {
 public:
  FilterOp(OperatorPtr child, BoundExprPtr predicate);
  Status Open() override;
  std::string name() const override { return "Filter"; }
  std::vector<Operator*> children() override { return {child_.get()}; }
  Status VerifySelf() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  OperatorPtr child_;
  BoundExprPtr predicate_;
  std::vector<uint32_t> sel_;  ///< scratch selection (reused per batch)
};

/// Projection: computes output expressions, renames scope. Each computed
/// expression evaluates column-at-a-time over the input batch.
class ProjectOp final : public Operator {
 public:
  ProjectOp(OperatorPtr child, std::vector<BoundExprPtr> exprs, Scope out);
  Status Open() override;
  std::string name() const override { return "Project"; }
  std::vector<Operator*> children() override { return {child_.get()}; }
  Status VerifySelf() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  OperatorPtr child_;
  std::vector<BoundExprPtr> exprs_;
  std::vector<int> slots_;  ///< per-expr: source slot if a bare ref, else -1
  RowBatch in_batch_;                     ///< input buffer (reused)
  std::vector<std::vector<Value>> cols_;  ///< per-expression value columns
};

class SharedJoinBuild;  // sql/parallel.h

/// Hash join: builds on the right child, probes with the left. Inner or
/// left-outer. Residual predicate (if any) evaluated on the concatenated
/// row before a match counts. Probes a whole left batch per call, with join
/// keys computed column-at-a-time.
///
/// Parallel mode (DESIGN.md §13): when a SharedJoinBuild is attached, all
/// pipeline clones of this join share one hash table. The first Open()
/// builds it (cooperatively over build morsels when the build side is a
/// MorselSource, else solo by the first arriver) and later Open()s — per
/// probe morsel — only reset probe state. Match order per key equals the
/// serial build's insertion order, so results stay byte-identical.
class HashJoinOp final : public Operator {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right,
             std::vector<BoundExprPtr> left_keys,
             std::vector<BoundExprPtr> right_keys, bool left_outer,
             BoundExprPtr residual);
  Status Open() override;
  std::string name() const override { return "HashJoin"; }
  std::vector<Operator*> children() override {
    return {left_.get(), right_.get()};
  }
  Status VerifySelf() const override;
  std::string StatsSuffix() const override;

  /// Switches this join to a shared build table. \p build_leaf, when
  /// non-null, is the MorselSource leaf inside the right subtree that
  /// cooperative builders drive; null means solo build.
  void SetSharedBuild(std::shared_ptr<SharedJoinBuild> shared,
                      MorselSource* build_leaf);
  const SharedJoinBuild* shared_build() const { return shared_.get(); }

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  /// Build-table probe: local map or shared table. Null when no match.
  const std::vector<Row>* LookupBuild(const std::vector<Value>& key) const;
  /// Shared mode: participates in / waits for the one-time shared build.
  Status EnsureSharedBuild();

  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<BoundExprPtr> left_keys_;
  std::vector<BoundExprPtr> right_keys_;
  bool left_outer_;
  BoundExprPtr residual_;

  std::unordered_map<std::vector<Value>, std::vector<Row>, ValueVectorHasher>
      build_;
  std::shared_ptr<SharedJoinBuild> shared_;  ///< null = private build_
  MorselSource* build_leaf_ = nullptr;       ///< cooperative-build leaf
  size_t right_width_ = 0;

  RowBatch probe_;                             ///< probe-side input buffer
  std::vector<std::vector<Value>> key_cols_;   ///< per-key probe columns
  size_t probe_pos_ = 0;                       ///< resume cursor into probe_
};

/// A conjunct over the inner table of an IndexNLJoinOp alone (the
/// translator's `T.predK = p AND T.valK = o`), pushed down by the planner
/// so the join rejects a candidate before building the joined row.
struct InnerPredicate {
  BoundExprPtr expr;  ///< bound against the inner table's columns
  std::string text;   ///< SQL text, shown on the profile line
};

/// Index nested-loop join: for each outer row, probes the inner table's
/// index with a key computed from the outer row. Inner or left-outer.
///
/// A probe borrows the posting list from the index and each candidate row
/// from its pinned decoded page (RowReader), tests the pushed inner
/// predicates on the borrowed row — `slot = literal` by a direct
/// EqualsNonNull, anything else through EvalPredicate — and only then
/// assembles the joined row: the outer row plus the planner-chosen
/// \p inner_cols of the inner one (DESIGN.md §7, "Column pruning"), on
/// which the residual runs. A LEFT OUTER join pads those columns only. The
/// resume cursor (outer row, position in its posting list) pauses wherever
/// the output batch fills, so no batch exceeds its capacity however many
/// inner rows one outer key matches. Borrowing is safe because writers
/// hold the store's exclusive lock, which no query overlaps.
class IndexNLJoinOp final : public Operator {
 public:
  IndexNLJoinOp(OperatorPtr outer, const Table* inner,
                const std::string& inner_alias, const IndexInfo* index,
                BoundExprPtr outer_key, bool left_outer,
                BoundExprPtr residual, std::vector<int> inner_cols,
                std::vector<InnerPredicate> inner_preds = {});
  Status Open() override;
  std::string name() const override {
    return "IndexNLJoin(" + inner_->name() + ")";
  }
  std::vector<Operator*> children() override { return {outer_.get()}; }
  Status VerifySelf() const override;
  /// " probes=P fetched=F rejected=R cols=E/N", plus " inner=[...]"
  /// naming the pushed predicates.
  std::string StatsSuffix() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  /// Whether \p inner passes every pushed inner predicate.
  Result<bool> PassesInner(const Row& inner) const;

  OperatorPtr outer_;
  const Table* inner_;
  const IndexInfo* index_;
  BoundExprPtr outer_key_;
  bool left_outer_;
  BoundExprPtr residual_;  ///< bound against the emitted scope
  std::vector<int> inner_cols_;  ///< inner slots emitted, in output order
  std::vector<InnerPredicate> inner_preds_;
  /// Per inner predicate: its `slot = literal` shape (slot -1 otherwise).
  std::vector<std::pair<int, const Value*>> inner_eq_;
  RowReader reader_;

  RowBatch outer_batch_;                      ///< outer-side input buffer
  std::vector<Value> key_col_;                ///< batch-evaluated keys
  size_t outer_pos_ = 0;                      ///< resume cursor into batch
  /// Posting list of the outer row at outer_pos_, while probing it.
  std::span<const RowId> postings_;
  bool probing_ = false;    ///< postings_ belongs to the row at outer_pos_
  size_t posting_pos_ = 0;  ///< resume cursor into postings_
  bool matched_ = false;    ///< the current outer row emitted a row

  uint64_t probes_ = 0;    ///< index lookups (non-NULL keys)
  uint64_t fetched_ = 0;   ///< candidate inner rows read
  uint64_t rejected_ = 0;  ///< candidates failing an inner predicate
};

/// Cross nested-loop join (inner side materialized), with optional residual
/// predicate and left-outer support. Fallback when no equi-key exists.
/// Like IndexNLJoinOp it pauses between left rows once the output batch
/// reaches capacity and resumes at left_pos_ on the next call.
class NestedLoopJoinOp final : public Operator {
 public:
  NestedLoopJoinOp(OperatorPtr left, OperatorPtr right, bool left_outer,
                   BoundExprPtr residual);
  Status Open() override;
  std::string name() const override { return "NestedLoopJoin"; }
  std::vector<Operator*> children() override {
    return {left_.get(), right_.get()};
  }
  Status VerifySelf() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  bool left_outer_;
  BoundExprPtr residual_;

  std::vector<Row> right_rows_;
  size_t right_width_ = 0;
  RowBatch left_batch_;   ///< left-side input buffer
  size_t left_pos_ = 0;   ///< resume cursor into left_batch_
};

/// UNNEST(e1, ..., en) AS a(c): lateral operator emitting, per input row,
/// one output row per argument with the argument's value appended as column
/// a.c. Implements the paper's multi-column "flip" (Fig. 13's TABLE(...)).
class UnnestOp final : public Operator {
 public:
  UnnestOp(OperatorPtr child, std::vector<BoundExprPtr> args,
           const std::string& alias, const std::string& column);
  Status Open() override;
  std::string name() const override { return "Unnest"; }
  std::vector<Operator*> children() override { return {child_.get()}; }
  Status VerifySelf() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  OperatorPtr child_;
  std::vector<BoundExprPtr> args_;
  RowBatch in_batch_;                     ///< input buffer (reused)
  std::vector<std::vector<Value>> arg_cols_;
  size_t in_pos_ = 0;                     ///< resume cursor into in_batch_
};

/// Concatenation of children (UNION ALL). Children must agree on arity;
/// output scope is the first child's.
class UnionAllOp final : public Operator {
 public:
  explicit UnionAllOp(std::vector<OperatorPtr> children);
  Status Open() override;
  std::string name() const override { return "UnionAll"; }
  std::vector<Operator*> children() override;
  Status VerifySelf() const override;
  Status DrainTo(Materialized* out) override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  std::vector<OperatorPtr> children_;
  size_t current_ = 0;
};

/// Hash-based duplicate elimination: marks first occurrences in a selection
/// vector.
class DistinctOp final : public Operator {
 public:
  explicit DistinctOp(OperatorPtr child);
  Status Open() override;
  std::string name() const override { return "Distinct"; }
  std::vector<Operator*> children() override { return {child_.get()}; }
  Status VerifySelf() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  OperatorPtr child_;
  std::unordered_set<std::vector<Value>, ValueVectorHasher> seen_;
  std::vector<uint32_t> sel_;
};

/// Full sort (materializing). Key i uses keys_[i], descending per flag.
/// Batches are served as zero-copy slices of the sorted buffer.
class SortOp final : public Operator {
 public:
  SortOp(OperatorPtr child, std::vector<BoundExprPtr> keys,
         std::vector<bool> descending);
  Status Open() override;
  std::string name() const override { return "Sort"; }
  std::vector<Operator*> children() override { return {child_.get()}; }
  Status VerifySelf() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  OperatorPtr child_;
  std::vector<BoundExprPtr> keys_;
  std::vector<bool> descending_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

/// Hash aggregation (GROUP BY keys + aggregate functions). Output columns
/// are the keys in order, then one column per aggregate; a ProjectOp above
/// restores the SELECT-list order. With no keys, exactly one row is
/// produced even over empty input (SQL global-aggregate semantics).
class AggregateOp final : public Operator {
 public:
  struct AggSpec {
    ast::AggFunc func = ast::AggFunc::kCount;
    BoundExprPtr input;  ///< null == COUNT(*)
    bool distinct = false;
  };

  AggregateOp(OperatorPtr child, std::vector<BoundExprPtr> keys,
              std::vector<AggSpec> aggs);
  Status Open() override;
  std::string name() const override { return "Aggregate"; }
  std::vector<Operator*> children() override { return {child_.get()}; }
  Status VerifySelf() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  struct AggState {
    int64_t count = 0;
    int64_t isum = 0;
    double dsum = 0;
    bool int_only = true;
    bool has_value = false;
    Value min_value;
    Value max_value;
    std::unordered_set<Value, ValueHasher> seen;  // DISTINCT inputs
  };

  /// Folds one non-null input value into \p st.
  Status Update(const AggSpec& spec, AggState* st, const Value& v);
  Value Finalize(const AggSpec& spec, const AggState& st) const;

  OperatorPtr child_;
  std::vector<BoundExprPtr> keys_;
  std::vector<AggSpec> aggs_;
  std::vector<Row> results_;
  size_t pos_ = 0;
};

/// LIMIT/OFFSET: trims child batches with a selection vector.
class LimitOp final : public Operator {
 public:
  LimitOp(OperatorPtr child, std::optional<int64_t> limit,
          std::optional<int64_t> offset);
  Status Open() override;
  std::string name() const override { return "Limit"; }
  std::vector<Operator*> children() override { return {child_.get()}; }
  Status VerifySelf() const override;

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  OperatorPtr child_;
  std::optional<int64_t> limit_;
  std::optional<int64_t> offset_;
  int64_t skipped_ = 0;
  int64_t emitted_ = 0;
  std::vector<uint32_t> sel_;
};

/// Runs \p op to completion, collecting rows. Sets \p control (when
/// non-null) on the tree before Open().
Result<std::vector<Row>> CollectRows(Operator* op,
                                     const ExecControl* control = nullptr);

/// Runs \p op to completion into a Materialized over its output (see
/// Operator::DrainTo). Sets \p control like CollectRows.
Result<std::shared_ptr<Materialized>> Materialize(
    Operator* op, const ExecControl* control = nullptr);

}  // namespace rdfrel::sql

#endif  // RDFREL_SQL_EXECUTOR_H_
