#include "durability.h"

#include <set>
#include <utility>

namespace perfbench {

namespace rdf = rdfrel::rdf;

namespace {
constexpr const char* kWriteNs = "http://perfbench/w/";
}  // namespace

std::vector<rdf::Triple> WriteBatch(uint64_t batch) {
  std::vector<rdf::Triple> triples;
  const rdf::Term pred = rdf::Term::Iri(std::string(kWriteNs) + "p");
  for (uint64_t j = 0; j < kTriplesPerWrite; ++j) {
    const std::string id = std::to_string(batch) + "_" + std::to_string(j);
    triples.push_back({rdf::Term::Iri(std::string(kWriteNs) + "s" + id), pred,
                       rdf::Term::Literal("v" + id)});
  }
  return triples;
}

void TimedWrite(rdfrel::store::RdfStore& store, uint64_t batch,
                WriteLog* log) {
  const std::vector<rdf::Triple> triples = WriteBatch(batch);
  const auto t0 = Clock::now();
  const rdfrel::Status st = store.InsertBatch(triples);
  log->start.push_back(t0);
  log->latency_ms.push_back(MsSince(t0));
  ++log->attempted;
  if (st.ok()) {
    log->acked.push_back(batch);
  } else {
    ++log->failed;
  }
}

void AddWriteSpans(const WriteLog& log, size_t first, Tracer* tracer) {
  for (size_t i = first; i < log.start.size(); ++i) {
    const auto end = log.start[i] +
                     std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             log.latency_ms[i]));
    tracer->Add("persist.insert_batch", log.start[i], end, -1,
                (2ULL << 48) | i);
  }
}

void FinishDurable(std::unique_ptr<rdfrel::store::RdfStore> store,
                   const std::string& dir, const WriteLog& log,
                   Report* report) {
  report->Attempt(log.attempted);
  if (log.failed > 0) report->Fail(log.failed, "durable InsertBatch failed");

  const double live_triples = static_cast<double>(
      store->load_stats().triples + log.acked.size() * kTriplesPerWrite);
  const rdfrel::persist::PersistStats ps = store->persist_stats();
  const double written =
      static_cast<double>(log.acked.size() * kTriplesPerWrite);
  report->Set("persist.write_p50_ms", Median(log.latency_ms));
  report->Set("persist.wal_bytes_per_triple",
              written > 0 ? static_cast<double>(ps.wal_bytes) / written : 0);
  report->Set("persist.fsyncs_per_commit",
              ps.wal_records > 0 ? static_cast<double>(ps.fsyncs) /
                                       static_cast<double>(ps.wal_records)
                                 : 0);
  report->Set("persist.group_commit_batch", ps.avg_group_commit_batch);
  if (auto tail = HighestHonestTail(log.latency_ms)) {
    report->Set("persist.commit_tail_ms", tail->value);
    report->MetaNumber("persist.commit_tail_q", tail->q);
  } else {
    report->Problem("too few writes for a commit-latency tail");
  }

  auto t0 = Clock::now();
  if (auto st = store->Checkpoint(); !st.ok()) {
    report->Problem("Checkpoint: " + st.ToString());
    return;
  }
  report->Set("persist.checkpoint_ms", MsSince(t0));
  const uint64_t snap = NewestSnapshotBytes(dir);
  if (snap == 0) report->Problem("no snapshot written in " + dir);
  report->Set("snapshot_bytes_per_triple",
              static_cast<double>(snap) / live_triples);
  if (auto st = store->Close(); !st.ok()) {
    report->Problem("Close: " + st.ToString());
    return;
  }
  store.reset();

  t0 = Clock::now();
  auto reopened = rdfrel::store::RdfStore::Open(dir);
  report->Set("persist.recovery_ms", MsSince(t0));
  if (!reopened.ok()) {
    report->Problem("Open: " + reopened.status().ToString());
    return;
  }
  auto rs = (*reopened)->Query(std::string("SELECT ?s ?o WHERE { ?s <") +
                               kWriteNs + "p> ?o }");
  if (!rs.ok()) {
    report->Problem("reading back writes: " + rs.status().ToString());
    return;
  }
  std::set<std::string> present;
  for (const auto& row : rs->rows) {
    if (row[0]) present.insert(row[0]->lexical());
  }
  uint64_t lost = 0;
  for (uint64_t batch : log.acked) {
    for (const rdf::Triple& t : WriteBatch(batch)) {
      if (present.count(t.subject.lexical()) == 0) ++lost;
    }
  }
  if (lost > 0) {
    report->Problem(std::to_string(lost) +
                    " acknowledged triples missing after reopen");
  }
  if (rs->rows.size() != log.acked.size() * kTriplesPerWrite) {
    report->Problem("reopened store holds " + std::to_string(rs->rows.size()) +
                    " written triples, expected " +
                    std::to_string(log.acked.size() * kTriplesPerWrite));
  }
  if (auto st = (*reopened)->Close(); !st.ok()) {
    report->Problem("closing the reopened store: " + st.ToString());
  }
}

}  // namespace perfbench
