#ifndef RDFREL_SQL_PARALLEL_H_
#define RDFREL_SQL_PARALLEL_H_

/// \file parallel.h
/// Morsel-driven intra-query parallelism (DESIGN.md §13). The planner clones
/// a core's pipeline K times (planning is deterministic, so the clones are
/// structurally identical), roots them under one ExchangeOp, and attaches:
///  - a MorselDispenser carving the driving scan into fixed-size morsels
///    that worker tasks claim FIFO;
///  - one SharedJoinBuild per HashJoin, so all clones probe a single hash
///    table built once (cooperatively over build morsels, or solo);
///  - a QueryArena that owns every morsel's result rows until query end.
///
/// Determinism contract: morsels are numbered in scan order, each worker
/// drains its claimed morsel into a private buffer, and the exchange's
/// reorder buffer releases buffers strictly in morsel-index order — so the
/// merged stream is byte-identical to the serial scan, and order-sensitive
/// consumers (Sort, Aggregate first-seen group order, Distinct first-wins,
/// Limit) sit safely above the exchange.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sql/exec_control.h"
#include "sql/executor.h"
#include "sql/row.h"
#include "util/arena.h"
#include "util/mutex.h"
#include "util/scope_markers.h"
#include "util/status.h"

namespace rdfrel::sql {

/// Process-wide parallel-executor counters surfaced through /stats.
struct ParallelExecStats {
  std::atomic<uint64_t> queries{0};           ///< parallel executions run
  std::atomic<uint64_t> morsels{0};           ///< morsels dispatched
  std::atomic<uint64_t> arena_bytes_peak{0};  ///< largest per-query arena
};

ParallelExecStats& GlobalParallelExecStats();

/// FIFO morsel dispenser over [0, total_units), handing out half-open unit
/// ranges of up to units_per_morsel each. Claim order == morsel index order
/// == serial scan order. Thread-safe; Abort() makes further claims fail so
/// workers drain fast on cancellation or early consumer exit.
class MorselDispenser {
 public:
  struct Morsel {
    uint64_t index;  ///< 0-based, dense, in scan order
    uint64_t begin;  ///< first unit
    uint64_t end;    ///< one past last unit
  };

  MorselDispenser(uint64_t total_units, uint64_t units_per_morsel);

  std::optional<Morsel> Claim();
  void Abort() { aborted_.store(true, std::memory_order_release); }
  bool aborted() const { return aborted_.load(std::memory_order_acquire); }
  /// True once every morsel has been claimed (or the dispenser aborted).
  bool Exhausted() const;

  uint64_t total_morsels() const { return total_morsels_; }
  uint64_t units_per_morsel() const { return units_per_morsel_; }

 private:
  const uint64_t total_units_;
  const uint64_t units_per_morsel_;
  const uint64_t total_morsels_;
  std::atomic<uint64_t> next_{0};
  std::atomic<bool> aborted_{false};
};

/// One hash table shared by every pipeline clone of a HashJoinOp. Built
/// exactly once per query:
///  - cooperative mode (build_dispenser != null): every arriving clone
///    claims build morsels and inserts under striped shard locks; the last
///    finisher seals the table, restoring serial insertion order per key
///    from (morsel index, row-in-morsel) sequence tags;
///  - solo mode: the first arriver drains the whole build side; the rest
///    wait.
/// After built() the table is immutable and probed lock-free.
class SharedJoinBuild {
 public:
  static constexpr size_t kNumShards = 64;

  /// \p build_dispenser null selects solo mode.
  explicit SharedJoinBuild(std::shared_ptr<MorselDispenser> build_dispenser);

  MorselDispenser* build_dispenser() { return build_dispenser_.get(); }

  // --- build-phase API (cooperative participants / solo builder) ---

  /// Registers a cooperative participant. False when the build is already
  /// sealed (or failed) — the caller should just WaitBuilt().
  bool BeginParticipate();
  /// Thread-safe insert of one build row with its serial-order tag.
  void Insert(std::vector<Value> key, uint64_t seq, Row row);
  /// Ends a participant's contribution; the last one out seals the table.
  void EndParticipate(const Status& status);

  /// Solo mode: true for exactly one caller, which must build then call
  /// FinishSolo. Everyone else WaitBuilt()s.
  bool TryClaimSolo();
  void FinishSolo(const Status& status);

  /// Blocks until the table is sealed or the build failed; polls \p control
  /// so a deadline/cancel can't strand a waiter. Returns the build status.
  Status WaitBuilt(const ExecControl* control);

  /// Wakes all waiters with a cancelled status (query teardown).
  void Abort();

  // --- probe-phase API ---

  bool built() const { return built_.load(std::memory_order_acquire); }
  /// Matches for \p key in serial build order; null when no match. Only
  /// valid after built().
  const std::vector<Row>* Lookup(const std::vector<Value>& key) const;
  uint64_t size() const { return num_rows_; }

 private:
  using SeqRow = std::pair<uint64_t, Row>;
  struct Shard {
    util::Mutex mu{"join-shard", util::lock_rank::kJoinShard};
    std::unordered_map<std::vector<Value>, std::vector<SeqRow>,
                       ValueVectorHasher>
        pending RDFREL_GUARDED_BY(mu);
    // Deliberately unguarded: written only by the unique finisher inside
    // Seal() (which still takes mu per shard, cheap once per query), read
    // lock-free by probes strictly after the built_ acquire/release pair.
    std::unordered_map<std::vector<Value>, std::vector<Row>, ValueVectorHasher>
        sealed;
  };

  size_t ShardOf(const std::vector<Value>& key) const {
    return ValueVectorHasher{}(key) % kNumShards;
  }
  /// Sorts every per-key vector by seq and publishes the sealed maps.
  /// Caller must be the unique finisher and must not hold mu_ (the shard
  /// locks rank above it, but holding the barrier lock through the sort
  /// would stall waiters).
  void Seal() RDFREL_EXCLUDES(mu_);

  const std::shared_ptr<MorselDispenser> build_dispenser_;
  std::array<Shard, kNumShards> shards_;

  util::Mutex mu_{"join-build", util::lock_rank::kJoinBuild};
  util::CondVar cv_;
  Status status_ RDFREL_GUARDED_BY(mu_);  ///< first build error
  int active_builders_ RDFREL_GUARDED_BY(mu_) =
      0;  ///< cooperative participants in flight
  bool solo_claimed_ RDFREL_GUARDED_BY(mu_) = false;
  bool finished_ RDFREL_GUARDED_BY(mu_) = false;  ///< sealed or failed
  /// The unique finisher is sealing (mu_ dropped for the sort).
  bool sealing_ RDFREL_GUARDED_BY(mu_) = false;
  std::atomic<bool> built_{false};  ///< sealed OK (release by finisher)
  /// Unguarded on purpose: written by the unique finisher in Seal() before
  /// the built_ release store, read only after a built_ acquire load.
  uint64_t num_rows_ = 0;
};

/// Merge point between K parallel pipelines and the serial consumers above.
/// Open() submits one task per pipeline to the global worker pool; tasks
/// claim morsels, re-Open their pipeline per morsel, drain it into
/// arena-backed blocks, and publish the blocks to a reorder buffer keyed by
/// morsel index. NextBatch serves blocks strictly in morsel order; DrainTo
/// hands the blocks themselves to a Materialized.
///
/// A block is reserved once, at its final capacity, and never regrows: the
/// bump arena cannot reclaim a vector's old storage, so a doubling buffer
/// would reserve several times the rows it holds. Blocks grow with the
/// morsel's output (each as large as the rows before it, at least one
/// batch, at most RowBatch::kDefaultCapacity rows).
///
/// The destructor aborts the dispensers and joins every task, so tearing
/// the tree down early (LIMIT, error, cancel) is always safe.
///
/// RDFREL_QUERY_SCOPED: the reorder buffer holds rows backed by arena_,
/// which it co-owns with any Materialized the buffers were handed to.
class RDFREL_QUERY_SCOPED ExchangeOp final : public Operator {
 public:
  struct Pipeline {
    OperatorPtr root;
    MorselSource* leaf = nullptr;  ///< driving scan inside root
  };

  ExchangeOp(std::vector<Pipeline> pipelines,
             std::shared_ptr<MorselDispenser> dispenser,
             std::vector<std::shared_ptr<SharedJoinBuild>> builds);
  ~ExchangeOp() override;

  Status Open() override;
  std::string name() const override { return "Exchange"; }
  std::vector<Operator*> children() override;
  Status VerifySelf() const override;
  std::string StatsSuffix() const override;
  Status DrainTo(Materialized* out) override;

  /// Aborts the remaining morsels and waits for every worker task to
  /// return; the destructor does the same. Afterwards no thread but the
  /// caller touches the pipeline clones.
  void StopWorkers();

 protected:
  Result<bool> NextBatchImpl(RowBatch* out) override;

 private:
  using ArenaRows = Materialized::ArenaRows;

  using Blocks = std::vector<ArenaRows>;

  void WorkerTask(size_t pipeline_index);
  /// Appends \p batch's active rows to the morsel output \p blocks.
  void AppendToBlocks(RowBatch* batch, Blocks* blocks);
  /// Signals every synchronization point workers might be parked on.
  void AbortWorkers() RDFREL_EXCLUDES(mu_);
  /// Blocks until all submitted worker tasks have returned.
  void JoinWorkers() RDFREL_EXCLUDES(mu_);
  /// Waits for the blocks of morsel next_emit_ (or failure/end).
  Status AwaitNextBuffer(bool* done) RDFREL_EXCLUDES(mu_);

  // Arena declared first so buffers referencing its storage die before it.
  std::shared_ptr<util::QueryArena> arena_;
  std::vector<Pipeline> pipelines_;
  std::shared_ptr<MorselDispenser> dispenser_;
  std::vector<std::shared_ptr<SharedJoinBuild>> builds_;

  // kExchange: workers hold mu_ while aborting builds (kJoinBuild) in their
  // failure path, so the exchange lock ranks below the build barrier.
  mutable util::Mutex mu_{"exchange", util::lock_rank::kExchange};
  util::CondVar cv_;                      ///< consumer waits (buffer ready)
  util::CondVar workers_done_cv_;
  std::map<uint64_t, Blocks> ready_
      RDFREL_GUARDED_BY(mu_);             ///< reorder buffer
  Status worker_status_ RDFREL_GUARDED_BY(mu_);  ///< first worker error
  bool failed_ RDFREL_GUARDED_BY(mu_) = false;
  size_t workers_running_ RDFREL_GUARDED_BY(mu_) = 0;
  bool started_ = false;
  std::atomic<bool> abort_{false};

  // Consumer-side state below is touched only by the single consumer
  // thread (NextBatch/DrainTo caller), so it is not guarded.
  uint64_t next_emit_ = 0;                ///< consumer-side morsel cursor
  Blocks current_;                        ///< morsel output being served
  size_t serve_block_ = 0;                ///< block of current_ served next
  size_t serve_pos_ = 0;                  ///< row within that block
  uint64_t morsels_dispatched_ RDFREL_GUARDED_BY(mu_) = 0;
  bool stats_published_ = false;
};

/// Shape analysis of one core pipeline: can it be parallelized, what drives
/// it, and which joins need shared builds. Populated by AnalyzePipeline.
struct PipelineAnalysis {
  bool parallel_ok = false;
  std::string reject_reason;       ///< for logs/tests when !parallel_ok
  MorselSource* driving = nullptr;
  uint64_t driving_units = 0;
  uint64_t driving_rows = 0;
  uint64_t rows_per_unit = 1;
  std::vector<HashJoinOp*> joins;  ///< preorder along the pipeline
  /// Parallel to joins: the build-side MorselSource (null = solo build).
  std::vector<MorselSource*> build_leaves;
  /// Operator-name preorder signature; pipeline clones must match pass 0.
  std::string signature;
};

/// Walks \p root's driving spine (children()[0] through Filter/Project/
/// Unnest/HashJoin-left/IndexNLJoin-outer) to decide parallelizability.
PipelineAnalysis AnalyzePipeline(Operator* root);

}  // namespace rdfrel::sql

#endif  // RDFREL_SQL_PARALLEL_H_
