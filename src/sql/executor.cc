#include "sql/executor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "sql/operator_verifier.h"
#include "sql/parallel.h"
#include "util/verify.h"

namespace rdfrel::sql {

namespace {

Scope TableScope(const Table* table, const std::string& alias) {
  Scope s;
  for (const auto& col : table->schema().columns()) {
    s.Add(alias, col.name);
  }
  return s;
}

/// The scope of \p table's columns \p cols (stored slots, in order).
Scope TableScope(const Table* table, const std::string& alias,
                 const std::vector<int>& cols) {
  Scope s;
  for (int c : cols) {
    s.Add(alias, table->schema().column(static_cast<size_t>(c)).name);
  }
  return s;
}

/// " cols=E/N": emitted of \p table's stored columns.
std::string ColsSuffix(size_t emitted, const Table* table) {
  return " cols=" + std::to_string(emitted) + "/" +
         std::to_string(table->schema().num_columns());
}

/// Whether every entry of \p cols is a slot of \p table.
Status CheckColumns(const std::vector<int>& cols, const Table* table) {
  for (int c : cols) {
    if (c < 0 || static_cast<size_t>(c) >= table->schema().num_columns()) {
      return Status::InternalPlanError("emitted column " + std::to_string(c) +
                                       " outside the table's arity");
    }
  }
  return Status::OK();
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// --------------------------------------------------------------- Operator

Result<bool> Operator::NextBatch(RowBatch* out) {
  if (control_ != nullptr) {
    RDFREL_RETURN_NOT_OK(control_->Check());
  }
  out->Reset();
  bool has = false;
  if (!timing_) {
    RDFREL_ASSIGN_OR_RETURN(has, NextBatchImpl(out));
  } else {
    uint64_t start = NowNs();
    Result<bool> r = NextBatchImpl(out);
    stats_.ns += NowNs() - start;
    if (!r.ok()) return r;
    has = *r;
  }
  if (has) {
    stats_.rows += out->ActiveSize();
    ++stats_.batches;
    if (util::VerifyPlansEnabled()) {
      Status st = VerifyRowBatch(*out);
      if (!st.ok()) {
        return Status::InternalPlanError(name() + ": " + st.message());
      }
    }
  }
  return has;
}

void Operator::EnableTiming(bool on) {
  timing_ = on;
  for (Operator* c : children()) c->EnableTiming(on);
}

void Operator::SetControl(const ExecControl* control) {
  // A trivial control can never fire; detach instead of paying the
  // per-batch check.
  control_ = (control != nullptr && control->Trivial()) ? nullptr : control;
  for (Operator* c : children()) c->SetControl(control_);
}

Status Operator::ForEachChildRow(
    Operator* child, const std::function<Status(const Row&)>& fn) {
  RowBatch batch;
  while (true) {
    auto has = child->NextBatch(&batch);
    if (!has.ok()) return has.status();
    if (!*has) break;
    for (size_t i = 0; i < batch.ActiveSize(); ++i) {
      RDFREL_RETURN_NOT_OK(fn(batch.Active(i)));
    }
  }
  return Status::OK();
}

Status Operator::DrainTo(Materialized* out) {
  RowBatch batch;
  while (true) {
    RDFREL_ASSIGN_OR_RETURN(bool has, NextBatch(&batch));
    if (!has) return Status::OK();
    out->Append(&batch);
  }
}

uint64_t Operator::DrainClock() const { return timing_ ? NowNs() : 0; }

void Operator::CountDrained(uint64_t rows, uint64_t start_ns) {
  if (timing_) stats_.ns += NowNs() - start_ns;
  if (rows == 0) return;
  stats_.rows += rows;
  ++stats_.batches;
}

namespace {
void FormatStatsRec(Operator& op, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(op.name());
  const OperatorStats& s = op.stats();
  out->append(": rows=");
  out->append(std::to_string(s.rows));
  out->append(" batches=");
  out->append(std::to_string(s.batches));
  if (s.ns > 0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " ms=%.3f",
                  static_cast<double>(s.ns) / 1e6);
    out->append(buf);
  }
  out->append(op.StatsSuffix());
  out->push_back('\n');
  // Pipeline clones below an exchange are written by its workers.
  if (auto* exchange = dynamic_cast<ExchangeOp*>(&op)) exchange->StopWorkers();
  for (Operator* c : op.children()) FormatStatsRec(*c, depth + 1, out);
}
}  // namespace

std::string FormatOperatorStats(Operator& root) {
  std::string out;
  FormatStatsRec(root, 0, &out);
  return out;
}

// ------------------------------------------------------------- SeqScanOp

SeqScanOp::SeqScanOp(const Table* table, const std::string& alias)
    : table_(table) {
  scope_ = TableScope(table, alias);
}

Status SeqScanOp::Open() {
  page_ = static_cast<size_t>(range_begin_);
  cur_page_.reset();
  return Status::OK();
}

size_t SeqScanOp::EndPage() const {
  const size_t pages = table_->storage().heap().num_pages();
  return range_end_ < pages ? static_cast<size_t>(range_end_) : pages;
}

uint64_t SeqScanOp::MorselUnits() const {
  return table_->storage().heap().num_pages();
}

uint64_t SeqScanOp::RowsPerUnit() const {
  const uint64_t pages = MorselUnits();
  if (pages == 0) return 1;
  return std::max<uint64_t>(1, table_->row_count() / pages);
}

uint64_t SeqScanOp::ApproxRows() const { return table_->row_count(); }

Result<bool> SeqScanOp::NextBatchImpl(RowBatch* out) {
  const size_t end_page = EndPage();
  while (page_ < end_page) {
    RDFREL_ASSIGN_OR_RETURN(cur_page_,
                            table_->DecodePage(static_cast<uint32_t>(page_)));
    ++page_;
    if (cur_page_->rows.empty()) continue;
    // One whole page per call, zero copy: the batch points straight into
    // the decoded page, which cur_page_ keeps alive past this call.
    out->Borrow(cur_page_->rows.data(), cur_page_->rows.size());
    return true;
  }
  return false;
}

// -------------------------------------------------------------- RowReader

void RowReader::Reset() {
  decoded_ = table_->row_count() <= Table::kDecodedRowBudget;
  for (uint32_t p : touched_) pinned_[p].reset();
  touched_.clear();
}

Result<const Row*> RowReader::Read(RowId rid) {
  const HeapFile& heap = table_->storage().heap();
  if (rid.page >= heap.num_pages()) {
    return Status::Internal("rid page out of range");
  }
  if (!decoded_) {
    RDFREL_ASSIGN_OR_RETURN(std::string_view bytes,
                            heap.page(rid.page).Get(rid.slot));
    RDFREL_RETURN_NOT_OK(
        DeserializeRowInto(table_->schema(), bytes, &scratch_));
    return &scratch_;
  }
  if (rid.page >= pinned_.size()) pinned_.resize(heap.num_pages());
  std::shared_ptr<const DecodedPage>& page = pinned_[rid.page];
  if (page == nullptr) {
    RDFREL_ASSIGN_OR_RETURN(page, table_->DecodePage(rid.page));
    touched_.push_back(rid.page);
  }
  if (rid.slot >= page->slot_index.size() ||
      page->slot_index[rid.slot] == DecodedPage::kDeadSlot) {
    return Status::Internal("rid slot not live");
  }
  return &page->rows[page->slot_index[rid.slot]];
}

// ------------------------------------------------------------ IndexScanOp

IndexScanOp::IndexScanOp(const Table* table, const std::string& alias,
                         const IndexInfo* index, Value key,
                         std::vector<int> columns)
    : table_(table),
      index_(index),
      key_(std::move(key)),
      columns_(std::move(columns)),
      reader_(table) {
  scope_ = TableScope(table, alias, columns_);
}

Status IndexScanOp::Open() {
  rids_ = index_->Lookup(key_);
  pos_ = 0;
  reader_.Reset();
  return Status::OK();
}

std::string IndexScanOp::StatsSuffix() const {
  return ColsSuffix(columns_.size(), table_);
}

Result<bool> IndexScanOp::NextBatchImpl(RowBatch* out) {
  if (pos_ >= rids_.size()) return false;
  while (pos_ < rids_.size() && !out->Full()) {
    RDFREL_ASSIGN_OR_RETURN(const Row* row, reader_.Read(rids_[pos_++]));
    Row* slot = out->AddRow();
    slot->clear();
    for (int c : columns_) slot->push_back((*row)[static_cast<size_t>(c)]);
  }
  return true;
}

// ----------------------------------------------------------- Materialized

size_t Materialized::ChunkOf(size_t row) const {
  // Last chunk starting at or before row.
  auto it = std::upper_bound(starts_.begin(), starts_.end(), row);
  return static_cast<size_t>(it - starts_.begin()) - 1;
}

namespace {
// A handed-over chunk smaller than this is copied onto the tail chunk
// instead, so scans of the result are not cut into few-row batches.
constexpr size_t kMinChunkRows = RowBatch::kDefaultCapacity / 2;
}  // namespace

void Materialized::AddSpan(const Row* data, size_t size) {
  tail_open_ = false;
  spans_.push_back({data, size});
  starts_.push_back(num_rows_);
  num_rows_ += size;
}

std::vector<Row>* Materialized::Tail() {
  if (!tail_open_) {
    owned_.emplace_back();
    AddSpan(nullptr, 0);
    tail_open_ = true;
  }
  return &owned_.back();
}

void Materialized::SyncTail() {
  const std::vector<Row>& tail = owned_.back();
  spans_.back() = {tail.data(), tail.size()};
  num_rows_ = starts_.back() + tail.size();
}

void Materialized::Append(std::vector<Row> rows) {
  if (rows.empty()) return;
  // Moving the vector keeps its buffer, so the span stays valid.
  owned_.push_back(std::move(rows));
  AddSpan(owned_.back().data(), owned_.back().size());
}

void Materialized::Append(ArenaRows rows,
                          std::shared_ptr<util::QueryArena> arena) {
  if (rows.empty()) return;
  if (rows.size() < kMinChunkRows) {
    // Each Row's values live on the heap, not in the arena.
    std::vector<Row>* tail = Tail();
    for (Row& row : rows) tail->push_back(std::move(row));
    SyncTail();
    return;
  }
  if (arenas_.empty() || arenas_.back() != arena) {
    arenas_.push_back(std::move(arena));
  }
  arena_chunks_.push_back(std::move(rows));
  AddSpan(arena_chunks_.back().data(), arena_chunks_.back().size());
}

void Materialized::Append(RowBatch* batch) {
  if (batch->ActiveSize() == 0) return;
  if (batch->OwnedDense() && batch->size() >= kMinChunkRows) {
    std::vector<Row> rows;
    batch->TakeRows(&rows);
    Append(std::move(rows));
    return;
  }
  batch->FlushTo(Tail());
  SyncTail();
}

// ----------------------------------------------------- MaterializedScanOp

MaterializedScanOp::MaterializedScanOp(
    std::shared_ptr<const Materialized> mat, const std::string& alias,
    std::string name)
    : mat_(std::move(mat)), label_(std::move(name)) {
  for (size_t i = 0; i < mat_->scope.size(); ++i) {
    scope_.Add(alias, mat_->scope.column(i).second);
  }
}

Status MaterializedScanOp::Open() {
  pos_ = static_cast<size_t>(range_begin_);
  chunk_ = pos_ < mat_->num_rows() ? mat_->ChunkOf(pos_) : 0;
  return Status::OK();
}

size_t MaterializedScanOp::EndRow() const {
  const size_t rows = mat_->num_rows();
  return range_end_ < rows ? static_cast<size_t>(range_end_) : rows;
}

Result<bool> MaterializedScanOp::NextBatchImpl(RowBatch* out) {
  const size_t end_row = EndRow();
  if (pos_ >= end_row) return false;
  const size_t start = mat_->chunk_start(chunk_);
  const size_t in_chunk = pos_ - start;
  const size_t n = std::min({out->capacity(), end_row - pos_,
                             mat_->chunk_size(chunk_) - in_chunk});
  out->Borrow(mat_->chunk_data(chunk_) + in_chunk, n);
  pos_ += n;
  if (pos_ - start == mat_->chunk_size(chunk_)) ++chunk_;
  return true;
}

// --------------------------------------------------------------- FilterOp

FilterOp::FilterOp(OperatorPtr child, BoundExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {
  scope_ = child_->scope();
}

Status FilterOp::Open() { return child_->Open(); }

Result<bool> FilterOp::NextBatchImpl(RowBatch* out) {
  // The child fills the caller's batch; survivors are marked by a selection
  // vector, never moved.
  while (true) {
    RDFREL_ASSIGN_OR_RETURN(bool has, child_->NextBatch(out));
    if (!has) return false;
    RDFREL_RETURN_NOT_OK(EvalPredicateBatch(*predicate_, *out, &sel_));
    if (sel_.empty()) continue;
    if (sel_.size() != out->ActiveSize()) out->SetSelection(sel_);
    return true;
  }
}

// -------------------------------------------------------------- ProjectOp

ProjectOp::ProjectOp(OperatorPtr child, std::vector<BoundExprPtr> exprs,
                     Scope out)
    : child_(std::move(child)), exprs_(std::move(exprs)) {
  scope_ = std::move(out);
  slots_.reserve(exprs_.size());
  for (const auto& e : exprs_) slots_.push_back(e->AsSlot());
}

Status ProjectOp::Open() { return child_->Open(); }

Result<bool> ProjectOp::NextBatchImpl(RowBatch* out) {
  RDFREL_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&in_batch_));
  if (!has) return false;
  // Bare slot references copy straight from the input rows during
  // assembly; only computed expressions materialize a column first.
  cols_.resize(exprs_.size());
  for (size_t e = 0; e < exprs_.size(); ++e) {
    if (slots_[e] < 0) {
      RDFREL_RETURN_NOT_OK(exprs_[e]->EvaluateBatch(in_batch_, &cols_[e]));
    }
  }
  size_t n = in_batch_.ActiveSize();
  for (size_t i = 0; i < n; ++i) {
    const Row& in = in_batch_.Active(i);
    Row* slot = out->AddRow();
    slot->resize(exprs_.size());
    for (size_t e = 0; e < exprs_.size(); ++e) {
      if (slots_[e] >= 0) {
        if (static_cast<size_t>(slots_[e]) >= in.size()) {
          return Status::Internal("slot out of range");
        }
        (*slot)[e] = in[static_cast<size_t>(slots_[e])];
      } else {
        (*slot)[e] = std::move(cols_[e][i]);
      }
    }
  }
  return true;
}

// -------------------------------------------------------------- HashJoinOp

HashJoinOp::HashJoinOp(OperatorPtr left, OperatorPtr right,
                       std::vector<BoundExprPtr> left_keys,
                       std::vector<BoundExprPtr> right_keys, bool left_outer,
                       BoundExprPtr residual)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      left_outer_(left_outer),
      residual_(std::move(residual)) {
  scope_ = left_->scope();
  scope_.Append(right_->scope());
  right_width_ = right_->scope().size();
}

Status HashJoinOp::Open() {
  RDFREL_RETURN_NOT_OK(left_->Open());
  if (shared_ != nullptr) {
    // Parallel mode: the shared table is built at most once per query; a
    // per-morsel re-Open only resets probe state.
    RDFREL_RETURN_NOT_OK(EnsureSharedBuild());
  } else {
    RDFREL_RETURN_NOT_OK(right_->Open());
    build_.clear();
    RDFREL_RETURN_NOT_OK(ForEachChildRow(right_.get(), [&](const Row& row) {
      std::vector<Value> key;
      key.reserve(right_keys_.size());
      for (const auto& k : right_keys_) {
        RDFREL_ASSIGN_OR_RETURN(Value v, k->Evaluate(row));
        if (v.is_null()) return Status::OK();  // NULL keys never join
        key.push_back(std::move(v));
      }
      build_[std::move(key)].push_back(row);
      return Status::OK();
    }));
  }
  probe_.Reset();
  probe_pos_ = 0;
  return Status::OK();
}

void HashJoinOp::SetSharedBuild(std::shared_ptr<SharedJoinBuild> shared,
                                MorselSource* build_leaf) {
  shared_ = std::move(shared);
  build_leaf_ = build_leaf;
}

std::string HashJoinOp::StatsSuffix() const {
  if (shared_ == nullptr) return "";
  return shared_->build_dispenser() != nullptr ? " build=shared-coop"
                                               : " build=shared-solo";
}

const std::vector<Row>* HashJoinOp::LookupBuild(
    const std::vector<Value>& key) const {
  if (shared_ != nullptr) return shared_->Lookup(key);
  auto it = build_.find(key);
  return it == build_.end() ? nullptr : &it->second;
}

Status HashJoinOp::EnsureSharedBuild() {
  if (shared_->built()) return Status::OK();
  MorselDispenser* dispenser = shared_->build_dispenser();
  if (dispenser == nullptr) {
    // Solo: first arriver drains its own clone of the build side in serial
    // scan order; seq tags are already monotone.
    if (!shared_->TryClaimSolo()) return shared_->WaitBuilt(control_);
    Status st = right_->Open();
    if (st.ok()) {
      uint64_t seq = 0;
      st = ForEachChildRow(right_.get(), [&](const Row& row) {
        std::vector<Value> key;
        key.reserve(right_keys_.size());
        for (const auto& k : right_keys_) {
          RDFREL_ASSIGN_OR_RETURN(Value v, k->Evaluate(row));
          if (v.is_null()) return Status::OK();
          key.push_back(std::move(v));
        }
        shared_->Insert(std::move(key), seq++, row);
        return Status::OK();
      });
    }
    shared_->FinishSolo(st);
    return st.ok() ? shared_->WaitBuilt(control_) : st;
  }
  // Cooperative: claim build morsels over this pipeline's own clone of the
  // build subtree; the seq tag (morsel index, row-in-morsel) restores serial
  // insertion order when the last finisher seals the table.
  if (!shared_->BeginParticipate()) return shared_->WaitBuilt(control_);
  Status st = Status::OK();
  RowBatch batch;
  while (st.ok()) {
    if (control_ != nullptr) {
      st = control_->Check();
      if (!st.ok()) break;
    }
    auto m = dispenser->Claim();
    if (!m.has_value()) break;
    build_leaf_->SetMorselRange(m->begin, m->end);
    st = right_->Open();
    if (!st.ok()) break;
    // Row-in-morsel fits comfortably below 2^40 (a morsel is a bounded page
    // range), so the tag sorts as (morsel, row).
    uint64_t seq = m->index << 40;
    std::vector<Value> key;
    while (st.ok()) {
      auto has = right_->NextBatch(&batch);
      if (!has.ok()) {
        st = has.status();
        break;
      }
      if (!has.value()) break;
      for (size_t i = 0; i < batch.ActiveSize(); ++i) {
        const Row& row = batch.Active(i);
        key.clear();
        bool null_key = false;
        for (const auto& k : right_keys_) {
          auto v = k->Evaluate(row);
          if (!v.ok()) {
            st = v.status();
            break;
          }
          if (v->is_null()) {
            null_key = true;
            break;
          }
          key.push_back(std::move(v).value());
        }
        if (!st.ok()) break;
        const uint64_t tag = seq++;
        if (null_key) continue;  // NULL keys never join
        shared_->Insert(std::vector<Value>(key.begin(), key.end()), tag, row);
      }
    }
  }
  shared_->EndParticipate(st);
  Status built = shared_->WaitBuilt(control_);
  return st.ok() ? built : st;
}

Result<bool> HashJoinOp::NextBatchImpl(RowBatch* out) {
  // Pauses between probe rows once `out` reaches capacity; probe_pos_
  // remembers where to resume, so output batches stay near the target size
  // (one probe row's duplicate matches may still overshoot slightly)
  // instead of holding every match of the probe batch.
  std::vector<Value> key;
  key.reserve(left_keys_.size());
  while (!out->Full()) {
    if (probe_pos_ >= probe_.ActiveSize()) {
      RDFREL_ASSIGN_OR_RETURN(bool has, left_->NextBatch(&probe_));
      if (!has) return out->size() > 0;
      probe_pos_ = 0;
      key_cols_.resize(left_keys_.size());
      for (size_t k = 0; k < left_keys_.size(); ++k) {
        RDFREL_RETURN_NOT_OK(
            left_keys_[k]->EvaluateBatch(probe_, &key_cols_[k]));
      }
    }
    for (; probe_pos_ < probe_.ActiveSize() && !out->Full(); ++probe_pos_) {
      const size_t i = probe_pos_;
      const Row& lrow = probe_.Active(i);
      key.clear();
      bool null_key = false;
      for (size_t k = 0; k < left_keys_.size(); ++k) {
        const Value& v = key_cols_[k][i];
        if (v.is_null()) {
          null_key = true;
          break;
        }
        key.push_back(v);
      }
      const std::vector<Row>* matches = null_key ? nullptr : LookupBuild(key);
      bool emitted = false;
      if (matches != nullptr) {
        for (const Row& rrow : *matches) {
          Row* slot = out->AddRow();
          *slot = lrow;
          slot->insert(slot->end(), rrow.begin(), rrow.end());
          if (residual_) {
            RDFREL_ASSIGN_OR_RETURN(bool pass,
                                    EvalPredicate(*residual_, *slot));
            if (!pass) {
              out->PopRow();
              continue;
            }
          }
          emitted = true;
        }
      }
      if (left_outer_ && !emitted) {
        Row* slot = out->AddRow();
        *slot = lrow;
        slot->insert(slot->end(), right_width_, Value::Null());
      }
    }
  }
  return out->size() > 0;
}

// ---------------------------------------------------------- IndexNLJoinOp

IndexNLJoinOp::IndexNLJoinOp(OperatorPtr outer, const Table* inner,
                             const std::string& inner_alias,
                             const IndexInfo* index, BoundExprPtr outer_key,
                             bool left_outer, BoundExprPtr residual,
                             std::vector<int> inner_cols,
                             std::vector<InnerPredicate> inner_preds)
    : outer_(std::move(outer)),
      inner_(inner),
      index_(index),
      outer_key_(std::move(outer_key)),
      left_outer_(left_outer),
      residual_(std::move(residual)),
      inner_cols_(std::move(inner_cols)),
      inner_preds_(std::move(inner_preds)),
      reader_(inner) {
  scope_ = outer_->scope();
  scope_.Append(TableScope(inner, inner_alias, inner_cols_));
  for (const InnerPredicate& p : inner_preds_) {
    int slot = -1;
    const Value* lit = nullptr;
    if (p.expr == nullptr || !p.expr->AsSlotEquality(&slot, &lit)) slot = -1;
    inner_eq_.emplace_back(slot, lit);
  }
}

Status IndexNLJoinOp::Open() {
  RDFREL_RETURN_NOT_OK(outer_->Open());
  outer_batch_.Reset();
  outer_pos_ = 0;
  probing_ = false;
  posting_pos_ = 0;
  matched_ = false;
  reader_.Reset();
  return Status::OK();
}

std::string IndexNLJoinOp::StatsSuffix() const {
  std::string out = " probes=" + std::to_string(probes_) +
                    " fetched=" + std::to_string(fetched_) +
                    " rejected=" + std::to_string(rejected_) +
                    ColsSuffix(inner_cols_.size(), inner_);
  if (!inner_preds_.empty()) {
    out += " inner=[";
    for (size_t i = 0; i < inner_preds_.size(); ++i) {
      if (i > 0) out += " AND ";
      out += inner_preds_[i].text;
    }
    out += "]";
  }
  return out;
}

Result<bool> IndexNLJoinOp::PassesInner(const Row& inner) const {
  for (size_t i = 0; i < inner_preds_.size(); ++i) {
    const auto& [slot, lit] = inner_eq_[i];
    if (slot >= 0) {
      // SQL `=`: NULL on either side never passes; 5 = 5.0 does, and a
      // string never equals a number (Value::EqualsNonNull).
      if (static_cast<size_t>(slot) >= inner.size()) {
        return Status::Internal("inner predicate slot out of range");
      }
      const Value& v = inner[static_cast<size_t>(slot)];
      if (v.is_null() || lit->is_null() || !v.EqualsNonNull(*lit)) {
        return false;
      }
      continue;
    }
    RDFREL_ASSIGN_OR_RETURN(bool pass,
                            EvalPredicate(*inner_preds_[i].expr, inner));
    if (!pass) return false;
  }
  return true;
}

Result<bool> IndexNLJoinOp::NextBatchImpl(RowBatch* out) {
  // The cursor (outer_pos_, posting_pos_) pauses wherever `out` fills —
  // between outer rows or inside one outer row's posting list — so a chain
  // of joins hands capacity-sized batches downstream even when one key
  // fans out to thousands of inner rows.
  while (!out->Full()) {
    if (!probing_) {
      if (outer_pos_ >= outer_batch_.ActiveSize()) {
        RDFREL_ASSIGN_OR_RETURN(bool has, outer_->NextBatch(&outer_batch_));
        if (!has) return out->size() > 0;
        outer_pos_ = 0;
        RDFREL_RETURN_NOT_OK(
            outer_key_->EvaluateBatch(outer_batch_, &key_col_));
      }
      const Value& key = key_col_[outer_pos_];
      if (key.is_null()) {
        postings_ = {};  // NULL keys never join
      } else {
        postings_ = index_->Lookup(key);
        ++probes_;
      }
      probing_ = true;
      posting_pos_ = 0;
      matched_ = false;
    }
    const Row& outer_row = outer_batch_.Active(outer_pos_);
    while (posting_pos_ < postings_.size() && !out->Full()) {
      RDFREL_ASSIGN_OR_RETURN(const Row* inner,
                              reader_.Read(postings_[posting_pos_++]));
      ++fetched_;
      RDFREL_ASSIGN_OR_RETURN(bool pass, PassesInner(*inner));
      if (!pass) {
        ++rejected_;
        continue;
      }
      Row* slot = out->AddRow();
      slot->reserve(outer_row.size() + inner_cols_.size());
      *slot = outer_row;
      for (int c : inner_cols_) {
        slot->push_back((*inner)[static_cast<size_t>(c)]);
      }
      if (residual_) {
        RDFREL_ASSIGN_OR_RETURN(bool ok, EvalPredicate(*residual_, *slot));
        if (!ok) {
          out->PopRow();
          continue;
        }
      }
      matched_ = true;
    }
    if (posting_pos_ < postings_.size() || out->Full()) break;
    if (left_outer_ && !matched_) {
      Row* slot = out->AddRow();
      *slot = outer_row;
      slot->insert(slot->end(), inner_cols_.size(), Value::Null());
    }
    probing_ = false;
    ++outer_pos_;
  }
  return out->size() > 0;
}

// -------------------------------------------------------- NestedLoopJoinOp

NestedLoopJoinOp::NestedLoopJoinOp(OperatorPtr left, OperatorPtr right,
                                   bool left_outer, BoundExprPtr residual)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_outer_(left_outer),
      residual_(std::move(residual)) {
  scope_ = left_->scope();
  scope_.Append(right_->scope());
  right_width_ = right_->scope().size();
}

Status NestedLoopJoinOp::Open() {
  RDFREL_RETURN_NOT_OK(left_->Open());
  RDFREL_RETURN_NOT_OK(right_->Open());
  right_rows_.clear();
  RDFREL_RETURN_NOT_OK(ForEachChildRow(right_.get(), [&](const Row& row) {
    right_rows_.push_back(row);
    return Status::OK();
  }));
  left_batch_.Reset();
  left_pos_ = 0;
  return Status::OK();
}

Result<bool> NestedLoopJoinOp::NextBatchImpl(RowBatch* out) {
  // Bounded like IndexNLJoin: left_pos_ pauses between left rows once `out`
  // fills, so one left row's matches may overshoot capacity by at most
  // right_rows_.size() - 1 rows.
  while (!out->Full()) {
    if (left_pos_ >= left_batch_.ActiveSize()) {
      RDFREL_ASSIGN_OR_RETURN(bool has, left_->NextBatch(&left_batch_));
      if (!has) return out->size() > 0;
      left_pos_ = 0;
    }
    for (; left_pos_ < left_batch_.ActiveSize() && !out->Full();
         ++left_pos_) {
      const Row& lrow = left_batch_.Active(left_pos_);
      bool emitted = false;
      for (const Row& rrow : right_rows_) {
        Row* slot = out->AddRow();
        *slot = lrow;
        slot->insert(slot->end(), rrow.begin(), rrow.end());
        if (residual_) {
          RDFREL_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*residual_, *slot));
          if (!pass) {
            out->PopRow();
            continue;
          }
        }
        emitted = true;
      }
      if (left_outer_ && !emitted) {
        Row* slot = out->AddRow();
        *slot = lrow;
        slot->insert(slot->end(), right_width_, Value::Null());
      }
    }
  }
  return out->size() > 0;
}

// ---------------------------------------------------------------- UnnestOp

UnnestOp::UnnestOp(OperatorPtr child, std::vector<BoundExprPtr> args,
                   const std::string& alias, const std::string& column)
    : child_(std::move(child)), args_(std::move(args)) {
  scope_ = child_->scope();
  scope_.Add(alias, column);
}

Status UnnestOp::Open() {
  in_batch_.Reset();
  in_pos_ = 0;
  return child_->Open();
}

Result<bool> UnnestOp::NextBatchImpl(RowBatch* out) {
  while (!out->Full()) {
    if (in_pos_ >= in_batch_.ActiveSize()) {
      RDFREL_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&in_batch_));
      if (!has) return out->size() > 0;
      in_pos_ = 0;
      arg_cols_.resize(args_.size());
      for (size_t a = 0; a < args_.size(); ++a) {
        RDFREL_RETURN_NOT_OK(args_[a]->EvaluateBatch(in_batch_, &arg_cols_[a]));
      }
    }
    for (; in_pos_ < in_batch_.ActiveSize() && !out->Full(); ++in_pos_) {
      const Row& in = in_batch_.Active(in_pos_);
      for (size_t a = 0; a < args_.size(); ++a) {
        Row* slot = out->AddRow();
        *slot = in;
        slot->push_back(std::move(arg_cols_[a][in_pos_]));
      }
    }
  }
  return out->size() > 0;
}

// -------------------------------------------------------------- UnionAllOp

UnionAllOp::UnionAllOp(std::vector<OperatorPtr> children)
    : children_(std::move(children)) {
  scope_ = children_.front()->scope();
}

Status UnionAllOp::Open() {
  for (auto& c : children_) RDFREL_RETURN_NOT_OK(c->Open());
  current_ = 0;
  return Status::OK();
}

std::vector<Operator*> UnionAllOp::children() {
  std::vector<Operator*> out;
  out.reserve(children_.size());
  for (auto& c : children_) out.push_back(c.get());
  return out;
}

Status UnionAllOp::DrainTo(Materialized* out) {
  // Each branch hands over its own buffers (e.g. an Exchange's morsels).
  const uint64_t start = DrainClock();
  const size_t before = out->num_rows();
  for (; current_ < children_.size(); ++current_) {
    RDFREL_RETURN_NOT_OK(children_[current_]->DrainTo(out));
  }
  CountDrained(out->num_rows() - before, start);
  return Status::OK();
}

Result<bool> UnionAllOp::NextBatchImpl(RowBatch* out) {
  while (current_ < children_.size()) {
    RDFREL_ASSIGN_OR_RETURN(bool has, children_[current_]->NextBatch(out));
    if (has) return true;
    ++current_;
  }
  return false;
}

// -------------------------------------------------------------- DistinctOp

DistinctOp::DistinctOp(OperatorPtr child) : child_(std::move(child)) {
  scope_ = child_->scope();
}

Status DistinctOp::Open() {
  seen_.clear();
  return child_->Open();
}

Result<bool> DistinctOp::NextBatchImpl(RowBatch* out) {
  while (true) {
    RDFREL_ASSIGN_OR_RETURN(bool has, child_->NextBatch(out));
    if (!has) return false;
    sel_.clear();
    for (size_t i = 0; i < out->ActiveSize(); ++i) {
      if (seen_.insert(out->Active(i)).second) {
        sel_.push_back(out->ActiveIndex(i));
      }
    }
    if (sel_.empty()) continue;
    if (sel_.size() != out->ActiveSize()) out->SetSelection(sel_);
    return true;
  }
}

// ------------------------------------------------------------------ SortOp

SortOp::SortOp(OperatorPtr child, std::vector<BoundExprPtr> keys,
               std::vector<bool> descending)
    : child_(std::move(child)),
      keys_(std::move(keys)),
      descending_(std::move(descending)) {
  scope_ = child_->scope();
}

Status SortOp::Open() {
  RDFREL_RETURN_NOT_OK(child_->Open());
  rows_.clear();
  pos_ = 0;
  RDFREL_RETURN_NOT_OK(ForEachChildRow(child_.get(), [&](const Row& row) {
    rows_.push_back(row);
    return Status::OK();
  }));
  // Precompute sort keys per row to keep the comparator exception-free.
  std::vector<std::vector<Value>> sort_keys(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    sort_keys[i].reserve(keys_.size());
    for (const auto& k : keys_) {
      auto v = k->Evaluate(rows_[i]);
      if (!v.ok()) return v.status();
      sort_keys[i].push_back(std::move(*v));
    }
  }
  std::vector<size_t> order(rows_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t k = 0; k < keys_.size(); ++k) {
      int c = sort_keys[a][k].Compare(sort_keys[b][k]);
      if (c != 0) return descending_[k] ? c > 0 : c < 0;
    }
    return false;
  });
  std::vector<Row> sorted;
  sorted.reserve(rows_.size());
  for (size_t i : order) sorted.push_back(std::move(rows_[i]));
  rows_ = std::move(sorted);
  return Status::OK();
}

Result<bool> SortOp::NextBatchImpl(RowBatch* out) {
  if (pos_ >= rows_.size()) return false;
  size_t n = std::min(out->capacity(), rows_.size() - pos_);
  out->Borrow(rows_.data() + pos_, n);
  pos_ += n;
  return true;
}

// ------------------------------------------------------------- AggregateOp

AggregateOp::AggregateOp(OperatorPtr child, std::vector<BoundExprPtr> keys,
                         std::vector<AggSpec> aggs)
    : child_(std::move(child)),
      keys_(std::move(keys)),
      aggs_(std::move(aggs)) {
  for (size_t i = 0; i < keys_.size(); ++i) {
    scope_.Add("agg", "k" + std::to_string(i));
  }
  for (size_t i = 0; i < aggs_.size(); ++i) {
    scope_.Add("agg", "a" + std::to_string(i));
  }
}

Status AggregateOp::Update(const AggSpec& spec, AggState* st,
                           const Value& v) {
  if (spec.distinct && spec.input != nullptr) {
    if (!st->seen.insert(v).second) return Status::OK();
  }
  st->count += 1;
  switch (spec.func) {
    case ast::AggFunc::kCount:
      break;
    case ast::AggFunc::kSum:
    case ast::AggFunc::kAvg:
      if (v.is_string()) {
        return Status::ExecutionError("SUM/AVG over string values");
      }
      if (v.is_int() && st->int_only) {
        st->isum += v.AsInt();
      } else {
        if (st->int_only) {
          st->dsum = static_cast<double>(st->isum);
          st->int_only = false;
        }
        st->dsum += v.NumericValue();
      }
      break;
    case ast::AggFunc::kMin:
    case ast::AggFunc::kMax:
      if (!st->has_value) {
        st->min_value = v;
        st->max_value = v;
      } else {
        if (v.Compare(st->min_value) < 0) st->min_value = v;
        if (v.Compare(st->max_value) > 0) st->max_value = v;
      }
      break;
    case ast::AggFunc::kNone:
      return Status::Internal("kNone aggregate in AggregateOp");
  }
  st->has_value = true;
  return Status::OK();
}

Value AggregateOp::Finalize(const AggSpec& spec, const AggState& st) const {
  switch (spec.func) {
    case ast::AggFunc::kCount:
      return Value::Int(st.count);
    case ast::AggFunc::kSum:
      if (!st.has_value) return Value::Null();
      return st.int_only ? Value::Int(st.isum) : Value::Real(st.dsum);
    case ast::AggFunc::kAvg: {
      if (!st.has_value) return Value::Null();
      double total = st.int_only ? static_cast<double>(st.isum) : st.dsum;
      return Value::Real(total / static_cast<double>(st.count));
    }
    case ast::AggFunc::kMin:
      return st.has_value ? st.min_value : Value::Null();
    case ast::AggFunc::kMax:
      return st.has_value ? st.max_value : Value::Null();
    case ast::AggFunc::kNone:
      break;
  }
  return Value::Null();
}

Status AggregateOp::Open() {
  RDFREL_RETURN_NOT_OK(child_->Open());
  results_.clear();
  pos_ = 0;
  std::unordered_map<std::vector<Value>, std::vector<AggState>,
                     ValueVectorHasher>
      groups;
  std::vector<std::vector<Value>> group_order;
  // Group keys and aggregate inputs evaluate column-at-a-time; the key
  // buffer is reused so only new groups copy it.
  RowBatch batch;
  std::vector<std::vector<Value>> key_cols(keys_.size());
  std::vector<std::vector<Value>> agg_cols(aggs_.size());
  std::vector<Value> key;
  key.reserve(keys_.size());
  while (true) {
    RDFREL_ASSIGN_OR_RETURN(bool has, child_->NextBatch(&batch));
    if (!has) break;
    for (size_t k = 0; k < keys_.size(); ++k) {
      RDFREL_RETURN_NOT_OK(keys_[k]->EvaluateBatch(batch, &key_cols[k]));
    }
    for (size_t a = 0; a < aggs_.size(); ++a) {
      if (aggs_[a].input != nullptr) {
        RDFREL_RETURN_NOT_OK(
            aggs_[a].input->EvaluateBatch(batch, &agg_cols[a]));
      }
    }
    const size_t n = batch.ActiveSize();
    for (size_t r = 0; r < n; ++r) {
      key.clear();
      for (size_t k = 0; k < keys_.size(); ++k) {
        key.push_back(key_cols[k][r]);
      }
      auto it = groups.find(key);
      if (it == groups.end()) {
        it = groups.emplace(key, std::vector<AggState>(aggs_.size())).first;
        group_order.push_back(key);
      }
      std::vector<AggState>& states = it->second;
      for (size_t a = 0; a < aggs_.size(); ++a) {
        const AggSpec& spec = aggs_[a];
        if (spec.input != nullptr) {
          const Value& v = agg_cols[a][r];
          if (v.is_null()) continue;  // aggregates skip NULL inputs
          RDFREL_RETURN_NOT_OK(Update(spec, &states[a], v));
        } else {
          RDFREL_RETURN_NOT_OK(Update(spec, &states[a], Value::Int(1)));
        }
      }
    }
  }
  // SQL global aggregates produce one row over empty input.
  if (keys_.empty() && groups.empty()) {
    groups.try_emplace(std::vector<Value>{},
                       std::vector<AggState>(aggs_.size()));
    group_order.push_back({});
  }
  for (const auto& group : group_order) {
    const auto& states = groups.at(group);
    Row row = group;
    for (size_t i = 0; i < aggs_.size(); ++i) {
      row.push_back(Finalize(aggs_[i], states[i]));
    }
    results_.push_back(std::move(row));
  }
  return Status::OK();
}

Result<bool> AggregateOp::NextBatchImpl(RowBatch* out) {
  if (pos_ >= results_.size()) return false;
  size_t n = std::min(out->capacity(), results_.size() - pos_);
  out->Borrow(results_.data() + pos_, n);
  pos_ += n;
  return true;
}

// ----------------------------------------------------------------- LimitOp

LimitOp::LimitOp(OperatorPtr child, std::optional<int64_t> limit,
                 std::optional<int64_t> offset)
    : child_(std::move(child)), limit_(limit), offset_(offset) {
  scope_ = child_->scope();
}

Status LimitOp::Open() {
  skipped_ = 0;
  emitted_ = 0;
  return child_->Open();
}

Result<bool> LimitOp::NextBatchImpl(RowBatch* out) {
  while (true) {
    if (limit_.has_value() && emitted_ >= *limit_) return false;
    RDFREL_ASSIGN_OR_RETURN(bool has, child_->NextBatch(out));
    if (!has) return false;
    size_t n = out->ActiveSize();
    size_t begin = 0;
    if (offset_.has_value() && skipped_ < *offset_) {
      size_t to_skip =
          std::min(n, static_cast<size_t>(*offset_ - skipped_));
      skipped_ += static_cast<int64_t>(to_skip);
      begin = to_skip;
    }
    size_t take = n - begin;
    if (limit_.has_value()) {
      take = std::min(take, static_cast<size_t>(*limit_ - emitted_));
    }
    if (take == 0) continue;  // whole batch consumed by OFFSET
    emitted_ += static_cast<int64_t>(take);
    if (begin == 0 && take == n) return true;
    sel_.clear();
    sel_.reserve(take);
    for (size_t i = begin; i < begin + take; ++i) {
      sel_.push_back(out->ActiveIndex(i));
    }
    out->SetSelection(sel_);
    return true;
  }
}

// ---------------------------------------------------------------- VerifySelf
// Per-operator invariants for VerifyOperatorTree (DESIGN.md §8). Each
// returns a bare message; the tree walker prefixes the dotted path.

Status SeqScanOp::VerifySelf() const {
  if (scope_.size() != table_->schema().num_columns()) {
    return Status::InternalPlanError(
        "scope arity " + std::to_string(scope_.size()) +
        " != table column count " +
        std::to_string(table_->schema().num_columns()));
  }
  return Status::OK();
}

Status IndexScanOp::VerifySelf() const {
  RDFREL_RETURN_NOT_OK(CheckColumns(columns_, table_));
  if (scope_.size() != columns_.size()) {
    return Status::InternalPlanError(
        "scope arity " + std::to_string(scope_.size()) +
        " != emitted column count " + std::to_string(columns_.size()));
  }
  if (index_ == nullptr) {
    return Status::InternalPlanError("index scan without an index");
  }
  return Status::OK();
}

Status MaterializedScanOp::VerifySelf() const {
  if (scope_.size() != mat_->scope.size()) {
    return Status::InternalPlanError(
        "scope arity " + std::to_string(scope_.size()) +
        " != materialized arity " + std::to_string(mat_->scope.size()));
  }
  return Status::OK();
}

Status FilterOp::VerifySelf() const {
  if (predicate_ == nullptr) {
    return Status::InternalPlanError("filter without a predicate");
  }
  if (scope_.size() != child_->scope().size()) {
    return Status::InternalPlanError("filter changes scope arity");
  }
  return CheckExprSlots(*predicate_, child_->scope().size(), "predicate");
}

Status ProjectOp::VerifySelf() const {
  if (exprs_.size() != scope_.size()) {
    return Status::InternalPlanError(
        std::to_string(exprs_.size()) + " expressions for scope arity " +
        std::to_string(scope_.size()));
  }
  for (size_t i = 0; i < exprs_.size(); ++i) {
    std::string what = "projection " + std::to_string(i);
    RDFREL_RETURN_NOT_OK(
        CheckExprSlots(*exprs_[i], child_->scope().size(), what.c_str()));
  }
  return Status::OK();
}

Status HashJoinOp::VerifySelf() const {
  if (left_keys_.empty() || left_keys_.size() != right_keys_.size()) {
    return Status::InternalPlanError(
        "join key arity mismatch: " + std::to_string(left_keys_.size()) +
        " left vs " + std::to_string(right_keys_.size()) + " right");
  }
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    std::string what = "left key " + std::to_string(i);
    RDFREL_RETURN_NOT_OK(CheckExprSlots(*left_keys_[i],
                                        left_->scope().size(), what.c_str()));
    what = "right key " + std::to_string(i);
    RDFREL_RETURN_NOT_OK(CheckExprSlots(
        *right_keys_[i], right_->scope().size(), what.c_str()));
  }
  if (scope_.size() != left_->scope().size() + right_->scope().size()) {
    return Status::InternalPlanError(
        "scope arity " + std::to_string(scope_.size()) +
        " != left + right arities");
  }
  if (residual_ != nullptr) {
    RDFREL_RETURN_NOT_OK(
        CheckExprSlots(*residual_, scope_.size(), "residual"));
  }
  return Status::OK();
}

Status IndexNLJoinOp::VerifySelf() const {
  if (outer_key_ == nullptr) {
    return Status::InternalPlanError("index join without an outer key");
  }
  if (index_ == nullptr) {
    return Status::InternalPlanError("index join without an index");
  }
  RDFREL_RETURN_NOT_OK(
      CheckExprSlots(*outer_key_, outer_->scope().size(), "outer key"));
  RDFREL_RETURN_NOT_OK(CheckColumns(inner_cols_, inner_));
  if (scope_.size() != outer_->scope().size() + inner_cols_.size()) {
    return Status::InternalPlanError(
        "scope arity " + std::to_string(scope_.size()) +
        " != outer arity + emitted inner columns");
  }
  if (residual_ != nullptr) {
    RDFREL_RETURN_NOT_OK(
        CheckExprSlots(*residual_, scope_.size(), "residual"));
  }
  // Pushed predicates read the stored inner row, not the joined one.
  for (size_t i = 0; i < inner_preds_.size(); ++i) {
    if (inner_preds_[i].expr == nullptr) {
      return Status::InternalPlanError("inner predicate " + std::to_string(i) +
                                       " is empty");
    }
    std::string what = "inner predicate " + std::to_string(i);
    RDFREL_RETURN_NOT_OK(CheckExprSlots(*inner_preds_[i].expr,
                                        inner_->schema().num_columns(),
                                        what.c_str()));
  }
  return Status::OK();
}

Status NestedLoopJoinOp::VerifySelf() const {
  if (scope_.size() != left_->scope().size() + right_->scope().size()) {
    return Status::InternalPlanError(
        "scope arity " + std::to_string(scope_.size()) +
        " != left + right arities");
  }
  if (residual_ != nullptr) {
    RDFREL_RETURN_NOT_OK(
        CheckExprSlots(*residual_, scope_.size(), "residual"));
  }
  return Status::OK();
}

Status UnnestOp::VerifySelf() const {
  if (args_.empty()) {
    return Status::InternalPlanError("unnest with no arguments");
  }
  for (size_t i = 0; i < args_.size(); ++i) {
    std::string what = "argument " + std::to_string(i);
    RDFREL_RETURN_NOT_OK(
        CheckExprSlots(*args_[i], child_->scope().size(), what.c_str()));
  }
  if (scope_.size() != child_->scope().size() + 1) {
    return Status::InternalPlanError(
        "scope arity " + std::to_string(scope_.size()) +
        " != child arity + 1");
  }
  return Status::OK();
}

Status UnionAllOp::VerifySelf() const {
  if (children_.empty()) {
    return Status::InternalPlanError("union with no branches");
  }
  for (const auto& c : children_) {
    if (c->scope().size() != scope_.size()) {
      return Status::InternalPlanError(
          "branch arity " + std::to_string(c->scope().size()) +
          " != union arity " + std::to_string(scope_.size()));
    }
  }
  return Status::OK();
}

Status DistinctOp::VerifySelf() const {
  if (scope_.size() != child_->scope().size()) {
    return Status::InternalPlanError("distinct changes scope arity");
  }
  return Status::OK();
}

Status SortOp::VerifySelf() const {
  if (keys_.size() != descending_.size()) {
    return Status::InternalPlanError(
        std::to_string(keys_.size()) + " keys vs " +
        std::to_string(descending_.size()) + " direction flags");
  }
  for (size_t i = 0; i < keys_.size(); ++i) {
    std::string what = "sort key " + std::to_string(i);
    RDFREL_RETURN_NOT_OK(
        CheckExprSlots(*keys_[i], child_->scope().size(), what.c_str()));
  }
  if (scope_.size() != child_->scope().size()) {
    return Status::InternalPlanError("sort changes scope arity");
  }
  return Status::OK();
}

Status AggregateOp::VerifySelf() const {
  if (scope_.size() != keys_.size() + aggs_.size()) {
    return Status::InternalPlanError(
        "scope arity " + std::to_string(scope_.size()) +
        " != keys + aggregates");
  }
  for (size_t i = 0; i < keys_.size(); ++i) {
    std::string what = "group key " + std::to_string(i);
    RDFREL_RETURN_NOT_OK(
        CheckExprSlots(*keys_[i], child_->scope().size(), what.c_str()));
  }
  for (size_t i = 0; i < aggs_.size(); ++i) {
    if (aggs_[i].input == nullptr) continue;  // COUNT(*)
    std::string what = "aggregate input " + std::to_string(i);
    RDFREL_RETURN_NOT_OK(CheckExprSlots(
        *aggs_[i].input, child_->scope().size(), what.c_str()));
  }
  return Status::OK();
}

Status LimitOp::VerifySelf() const {
  if (limit_.has_value() && *limit_ < 0) {
    return Status::InternalPlanError("negative LIMIT");
  }
  if (offset_.has_value() && *offset_ < 0) {
    return Status::InternalPlanError("negative OFFSET");
  }
  if (scope_.size() != child_->scope().size()) {
    return Status::InternalPlanError("limit changes scope arity");
  }
  return Status::OK();
}

// --------------------------------------------------------------- CollectRows

Result<std::vector<Row>> CollectRows(Operator* op,
                                     const ExecControl* control) {
  if (control != nullptr) op->SetControl(control);
  RDFREL_RETURN_NOT_OK(op->Open());
  std::vector<Row> rows;
  RowBatch batch;
  while (true) {
    RDFREL_ASSIGN_OR_RETURN(bool has, op->NextBatch(&batch));
    if (!has) break;
    batch.FlushTo(&rows);
  }
  return rows;
}

Result<std::shared_ptr<Materialized>> Materialize(Operator* op,
                                                  const ExecControl* control) {
  if (control != nullptr) op->SetControl(control);
  RDFREL_RETURN_NOT_OK(op->Open());
  auto mat = std::make_shared<Materialized>();
  mat->scope = op->scope();
  RDFREL_RETURN_NOT_OK(op->DrainTo(mat.get()));
  return mat;
}

}  // namespace rdfrel::sql
