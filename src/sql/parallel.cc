#include "sql/parallel.h"

#include <algorithm>
#include <chrono>

#include "util/thread_pool.h"

namespace rdfrel::sql {

ParallelExecStats& GlobalParallelExecStats() {
  static ParallelExecStats stats;
  return stats;
}

// -------------------------------------------------------- MorselDispenser

MorselDispenser::MorselDispenser(uint64_t total_units,
                                 uint64_t units_per_morsel)
    : total_units_(total_units),
      units_per_morsel_(units_per_morsel == 0 ? 1 : units_per_morsel),
      total_morsels_(total_units == 0
                         ? 0
                         : (total_units + units_per_morsel_ - 1) /
                               units_per_morsel_) {}

std::optional<MorselDispenser::Morsel> MorselDispenser::Claim() {
  if (aborted()) return std::nullopt;
  const uint64_t index = next_.fetch_add(1, std::memory_order_relaxed);
  if (index >= total_morsels_) return std::nullopt;
  Morsel m;
  m.index = index;
  m.begin = index * units_per_morsel_;
  m.end = std::min(total_units_, m.begin + units_per_morsel_);
  return m;
}

bool MorselDispenser::Exhausted() const {
  return aborted() ||
         next_.load(std::memory_order_relaxed) >= total_morsels_;
}

// -------------------------------------------------------- SharedJoinBuild

SharedJoinBuild::SharedJoinBuild(
    std::shared_ptr<MorselDispenser> build_dispenser)
    : build_dispenser_(std::move(build_dispenser)) {}

bool SharedJoinBuild::BeginParticipate() {
  util::MutexLock lock(&mu_);
  if (finished_ || sealing_) return false;
  ++active_builders_;
  return true;
}

void SharedJoinBuild::Insert(std::vector<Value> key, uint64_t seq, Row row) {
  Shard& shard = shards_[ShardOf(key)];
  util::MutexLock lock(&shard.mu);
  shard.pending[std::move(key)].emplace_back(seq, std::move(row));
}

void SharedJoinBuild::Seal() {
  uint64_t rows = 0;
  for (Shard& shard : shards_) {
    // Every builder has stopped inserting (the caller is the unique last
    // finisher), so the shard locks are uncontended — taken anyway (once
    // per query) to keep the analysis airtight.
    util::MutexLock lock(&shard.mu);
    for (auto& [key, seq_rows] : shard.pending) {
      std::sort(seq_rows.begin(), seq_rows.end(),
                [](const SeqRow& a, const SeqRow& b) {
                  return a.first < b.first;
                });
      auto& sealed = shard.sealed[key];
      sealed.reserve(seq_rows.size());
      for (auto& [seq, row] : seq_rows) sealed.push_back(std::move(row));
      rows += sealed.size();
    }
    shard.pending.clear();
  }
  num_rows_ = rows;
}

void SharedJoinBuild::EndParticipate(const Status& status) {
  util::MutexLock lock(&mu_);
  --active_builders_;
  if (!status.ok() && status_.ok()) status_ = status;
  // A dispenser abort (query teardown) must not seal a half-built table as
  // good; record it as cancelled so waiters fail instead of probing it.
  if (status_.ok() && build_dispenser_ != nullptr &&
      build_dispenser_->aborted()) {
    status_ = Status::Cancelled("join build aborted");
  }
  if (finished_ || sealing_) return;
  if (!status_.ok()) {
    finished_ = true;
    cv_.NotifyAll();
    return;
  }
  if (active_builders_ != 0) return;
  // Everyone is done inserting and nobody failed: this thread is the unique
  // finisher. sealing_ turns away late arrivals (BeginParticipate) and
  // late finishers while the lock is dropped for the sort.
  sealing_ = true;
  lock.Unlock();
  Seal();
  lock.Lock();
  built_.store(true, std::memory_order_release);
  finished_ = true;
  cv_.NotifyAll();
}

bool SharedJoinBuild::TryClaimSolo() {
  util::MutexLock lock(&mu_);
  if (solo_claimed_ || finished_) return false;
  solo_claimed_ = true;
  return true;
}

void SharedJoinBuild::FinishSolo(const Status& status) {
  {
    util::MutexLock lock(&mu_);
    if (!status.ok() && status_.ok()) status_ = status;
  }
  if (status.ok()) Seal();
  {
    util::MutexLock lock(&mu_);
    if (status_.ok()) built_.store(true, std::memory_order_release);
    finished_ = true;
  }
  cv_.NotifyAll();
}

Status SharedJoinBuild::WaitBuilt(const ExecControl* control) {
  util::MutexLock lock(&mu_);
  while (!finished_) {
    if (control != nullptr) {
      Status st = control->Check();
      if (!st.ok()) return st;
    }
    cv_.WaitFor(mu_, std::chrono::milliseconds(50));
  }
  return status_;
}

void SharedJoinBuild::Abort() {
  if (build_dispenser_ != nullptr) build_dispenser_->Abort();
  util::MutexLock lock(&mu_);
  if (!finished_) {
    // Leave finished_ to the builders still in flight (EndParticipate /
    // FinishSolo must run exactly once); just make sure nobody seals the
    // table as good and every waiter re-checks soon.
    if (status_.ok()) status_ = Status::Cancelled("join build aborted");
  }
  cv_.NotifyAll();
}

const std::vector<Row>* SharedJoinBuild::Lookup(
    const std::vector<Value>& key) const {
  const Shard& shard = shards_[ShardOf(key)];
  auto it = shard.sealed.find(key);
  return it == shard.sealed.end() ? nullptr : &it->second;
}

// ------------------------------------------------------------- ExchangeOp

ExchangeOp::ExchangeOp(std::vector<Pipeline> pipelines,
                       std::shared_ptr<MorselDispenser> dispenser,
                       std::vector<std::shared_ptr<SharedJoinBuild>> builds)
    : arena_(std::make_shared<util::QueryArena>()),
      pipelines_(std::move(pipelines)),
      dispenser_(std::move(dispenser)),
      builds_(std::move(builds)) {
  if (!pipelines_.empty() && pipelines_[0].root != nullptr) {
    scope_ = pipelines_[0].root->scope();
  }
}

void ExchangeOp::StopWorkers() {
  AbortWorkers();
  JoinWorkers();
}

ExchangeOp::~ExchangeOp() {
  StopWorkers();
  // Publish global counters once per execution (workers have stopped, so
  // morsels_dispatched_ is stable; the lock is uncontended and satisfies
  // the analysis).
  if (started_ && !stats_published_) {
    stats_published_ = true;
    uint64_t dispatched = 0;
    {
      util::MutexLock lock(&mu_);
      dispatched = morsels_dispatched_;
    }
    auto& g = GlobalParallelExecStats();
    g.queries.fetch_add(1, std::memory_order_relaxed);
    g.morsels.fetch_add(dispatched, std::memory_order_relaxed);
    const uint64_t bytes = arena_->bytes_reserved();
    uint64_t peak = g.arena_bytes_peak.load(std::memory_order_relaxed);
    while (bytes > peak && !g.arena_bytes_peak.compare_exchange_weak(
                               peak, bytes, std::memory_order_relaxed)) {
    }
  }
}

std::vector<Operator*> ExchangeOp::children() {
  std::vector<Operator*> out;
  out.reserve(pipelines_.size());
  for (auto& p : pipelines_) out.push_back(p.root.get());
  return out;
}

Status ExchangeOp::Open() {
  if (started_) {
    return Status::Internal("Exchange cannot be re-opened");
  }
  started_ = true;
  {
    util::MutexLock lock(&mu_);
    workers_running_ = pipelines_.size();
  }
  for (size_t k = 0; k < pipelines_.size(); ++k) {
    util::ThreadPool::Global().Submit([this, k] { WorkerTask(k); });
  }
  return Status::OK();
}

void ExchangeOp::WorkerTask(size_t pipeline_index) {
  Pipeline& p = pipelines_[pipeline_index];
  Status st = Status::OK();
  RowBatch batch;
  while (!abort_.load(std::memory_order_acquire)) {
    if (control_ != nullptr) {
      st = control_->Check();
      if (!st.ok()) break;
    }
    auto m = dispenser_->Claim();
    if (!m.has_value()) break;
    p.leaf->SetMorselRange(m->begin, m->end);
    Blocks blocks;
    st = p.root->Open();
    while (st.ok()) {
      auto has = p.root->NextBatch(&batch);
      if (!has.ok()) {
        st = has.status();
        break;
      }
      if (!has.value()) break;
      AppendToBlocks(&batch, &blocks);
    }
    if (!st.ok()) break;
    {
      util::MutexLock lock(&mu_);
      ++morsels_dispatched_;
      ready_.emplace(m->index, std::move(blocks));
    }
    cv_.NotifyOne();
  }
  util::MutexLock lock(&mu_);
  if (!st.ok() && !failed_) {
    failed_ = true;
    worker_status_ = st;
    // Drain fast: peers stop claiming, build waiters wake with an error.
    // (Holding mu_ across the builds' Abort is why kExchange < kJoinBuild.)
    dispenser_->Abort();
    for (auto& b : builds_) b->Abort();
  }
  // Both notifies must happen while mu_ is held and BEFORE this thread's
  // decrement can release ~ExchangeOp: JoinWorkers re-acquires mu_ after
  // its wait loop passes, which cannot happen until this scope's unlock —
  // so the unlock is provably the last touch of *this. Notifying after
  // unlock would let the destructor free the condition variables while
  // this thread is still inside notify_all (a use-after-free that
  // corrupts whatever reuses the allocation).
  cv_.NotifyAll();
  if (--workers_running_ == 0) workers_done_cv_.NotifyAll();
}

void ExchangeOp::AppendToBlocks(RowBatch* batch, Blocks* blocks) {
  constexpr size_t kMaxBlockRows = RowBatch::kDefaultCapacity;
  const size_t n = batch->ActiveSize();
  size_t total = 0;
  for (const ArenaRows& b : *blocks) total += b.size();
  for (size_t i = 0; i < n;) {
    if (blocks->empty() ||
        blocks->back().size() == blocks->back().capacity()) {
      blocks->emplace_back(util::ArenaAllocator<Row>(arena_.get()));
      blocks->back().reserve(
          std::min(kMaxBlockRows, std::max(n - i, total)));
    }
    ArenaRows& block = blocks->back();
    const size_t take = std::min(n - i, block.capacity() - block.size());
    batch->FlushTo(&block, i, i + take);
    i += take;
    total += take;
  }
}

void ExchangeOp::AbortWorkers() {
  abort_.store(true, std::memory_order_release);
  if (dispenser_ != nullptr) dispenser_->Abort();
  for (auto& b : builds_) b->Abort();
  cv_.NotifyAll();
}

void ExchangeOp::JoinWorkers() {
  util::MutexLock lock(&mu_);
  while (workers_running_ != 0) workers_done_cv_.Wait(mu_);
}

Status ExchangeOp::AwaitNextBuffer(bool* done) {
  util::MutexLock lock(&mu_);
  current_.clear();
  serve_block_ = 0;
  serve_pos_ = 0;
  const uint64_t total = dispenser_->total_morsels();
  while (true) {
    if (failed_) return worker_status_;
    if (next_emit_ >= total) {
      *done = true;
      return Status::OK();
    }
    auto it = ready_.find(next_emit_);
    if (it != ready_.end()) {
      current_ = std::move(it->second);
      ready_.erase(it);
      ++next_emit_;
      *done = false;
      return Status::OK();
    }
    if (workers_running_ == 0) {
      // All workers exited without failure yet morsel next_emit_ never
      // arrived: only an external abort can do that.
      return Status::Cancelled("parallel execution aborted");
    }
    if (control_ != nullptr) {
      Status st = control_->Check();
      if (!st.ok()) return st;
    }
    cv_.WaitFor(mu_, std::chrono::milliseconds(50));
  }
}

Result<bool> ExchangeOp::NextBatchImpl(RowBatch* out) {
  while (true) {
    while (serve_block_ < current_.size()) {
      const ArenaRows& block = current_[serve_block_];
      if (serve_pos_ < block.size()) {
        const size_t n = std::min(out->capacity(), block.size() - serve_pos_);
        out->Borrow(block.data() + serve_pos_, n);
        serve_pos_ += n;
        return true;
      }
      ++serve_block_;
      serve_pos_ = 0;
    }
    bool done = false;
    RDFREL_RETURN_NOT_OK(AwaitNextBuffer(&done));
    if (done) return false;
  }
}

Status ExchangeOp::DrainTo(Materialized* out) {
  // Hands each morsel's blocks over in morsel order: the rows stay where
  // the worker wrote them, in arena_, which the Materialized now co-owns.
  while (true) {
    if (control_ != nullptr) RDFREL_RETURN_NOT_OK(control_->Check());
    const uint64_t start = DrainClock();
    bool done = false;
    RDFREL_RETURN_NOT_OK(AwaitNextBuffer(&done));
    if (done) return Status::OK();
    size_t n = 0;
    for (ArenaRows& block : current_) {
      n += block.size();
      out->Append(std::move(block), arena_);
    }
    current_.clear();
    CountDrained(n, start);
  }
}

std::string ExchangeOp::StatsSuffix() const {
  uint64_t dispatched = 0;
  {
    util::MutexLock lock(&mu_);
    dispatched = morsels_dispatched_;
  }
  std::string out = " morsels=";
  out += std::to_string(dispatched);
  out += "/";
  out += std::to_string(dispenser_ != nullptr ? dispenser_->total_morsels()
                                              : 0);
  out += " workers=";
  out += std::to_string(pipelines_.size());
  out += " arena_bytes=";
  out += std::to_string(arena_->bytes_reserved());
  return out;
}

namespace {

/// Follows the driving spine one step down; null when \p op terminates the
/// spine (a scan) or is not allowed on a parallel pipeline.
Operator* SpineChild(Operator* op) {
  if (dynamic_cast<FilterOp*>(op) != nullptr ||
      dynamic_cast<ProjectOp*>(op) != nullptr ||
      dynamic_cast<UnnestOp*>(op) != nullptr ||
      dynamic_cast<HashJoinOp*>(op) != nullptr ||
      dynamic_cast<IndexNLJoinOp*>(op) != nullptr) {
    return op->children()[0];
  }
  return nullptr;
}

bool ContainsExchange(Operator* op) {
  if (dynamic_cast<ExchangeOp*>(op) != nullptr) return true;
  for (Operator* c : op->children()) {
    if (ContainsExchange(c)) return true;
  }
  return false;
}

void AppendSignature(Operator* op, std::string* out) {
  out->append(op->name());
  // The width too: clones must prune index-join columns alike.
  out->push_back('/');
  out->append(std::to_string(op->scope().size()));
  out->push_back('(');
  for (Operator* c : op->children()) AppendSignature(c, out);
  out->push_back(')');
}

}  // namespace

Status ExchangeOp::VerifySelf() const {
  auto* self = const_cast<ExchangeOp*>(this);
  if (self->pipelines_.empty()) {
    return Status::InternalPlanError("Exchange: no pipelines");
  }
  if (self->dispenser_ == nullptr) {
    return Status::InternalPlanError("Exchange: no morsel dispenser");
  }
  for (size_t k = 0; k < self->pipelines_.size(); ++k) {
    Pipeline& p = self->pipelines_[k];
    if (p.root == nullptr) {
      return Status::InternalPlanError("Exchange: pipeline " +
                                       std::to_string(k) + " has no root");
    }
    if (p.root->scope().size() != scope_.size()) {
      return Status::InternalPlanError(
          "Exchange: pipeline " + std::to_string(k) + " arity " +
          std::to_string(p.root->scope().size()) + " != exchange arity " +
          std::to_string(scope_.size()));
    }
    // The driving spine must be order-preserving per morsel: only Filter/
    // Project/Unnest/HashJoin/IndexNLJoin above a morselizable scan. Order-
    // sensitive operators (Sort, Distinct, Aggregate, Limit) belong above
    // the exchange, where they see the deterministic merged stream.
    Operator* cur = p.root.get();
    while (true) {
      if (auto* ms = dynamic_cast<MorselSource*>(cur)) {
        if (ms != p.leaf) {
          return Status::InternalPlanError(
              "Exchange: pipeline " + std::to_string(k) +
              " driving leaf does not match its registered morsel source");
        }
        break;
      }
      Operator* next = SpineChild(cur);
      if (next == nullptr) {
        return Status::InternalPlanError(
            "Exchange: operator not allowed on a parallel pipeline spine: " +
            cur->name());
      }
      cur = next;
    }
    if (ContainsExchange(p.root.get())) {
      return Status::InternalPlanError(
          "Exchange: nested Exchange inside pipeline " + std::to_string(k));
    }
  }
  return Status::OK();
}

// -------------------------------------------------------- AnalyzePipeline

PipelineAnalysis AnalyzePipeline(Operator* root) {
  PipelineAnalysis a;
  AppendSignature(root, &a.signature);
  Operator* cur = root;
  while (true) {
    if (auto* hj = dynamic_cast<HashJoinOp*>(cur)) {
      a.joins.push_back(hj);
      // Build side: a chain of filters over a scan. A morselizable leaf
      // enables cooperative build; anything else falls back to solo build
      // (one pipeline drains its whole clone), which is always correct.
      Operator* b = hj->children()[1];
      while (auto* f = dynamic_cast<FilterOp*>(b)) b = f->children()[0];
      a.build_leaves.push_back(dynamic_cast<MorselSource*>(b));
      cur = hj->children()[0];
      continue;
    }
    if (auto* ms = dynamic_cast<MorselSource*>(cur)) {
      a.driving = ms;
      a.driving_units = ms->MorselUnits();
      a.rows_per_unit = ms->RowsPerUnit();
      a.driving_rows = ms->ApproxRows();
      a.parallel_ok = true;
      return a;
    }
    Operator* next = SpineChild(cur);
    if (next == nullptr) {
      // IndexScan driving (a point lookup) or an order-sensitive/unknown
      // operator: stay serial.
      a.reject_reason = "unsupported driving operator: " + cur->name();
      return a;
    }
    cur = next;
  }
}

}  // namespace rdfrel::sql
