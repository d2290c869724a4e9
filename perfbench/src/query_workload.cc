// lubm-analytic and dbpedia-lookup: a closed loop of in-process
// RdfStore::QueryWith calls. See perfbench/README.md for why each exists.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "benchdata/dbpedia.h"
#include "benchdata/lubm.h"
#include "digest.h"
#include "durability.h"
#include "layers.h"
#include "serve_phase.h"
#include "stats.h"
#include "store/rdf_store.h"
#include "store/triple_store_backend.h"
#include "trace.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace rs = rdfrel::store;

// LUBM at ~200 universities (~454k triples): big enough that LQ9/LQ2/LQ6
// spend tens of ms in SQL execution and decode.
constexpr uint64_t kLubmUniversities = 200;
// DBpedia-shaped: ~264k triples. Lookups draw entities Zipf(1.0) over all
// of them, so distinct texts far exceed the 256-entry plan cache.
constexpr uint64_t kDbpediaEntities = 20000;
constexpr uint64_t kDbpediaPredicates = 2000;
constexpr double kEntitySkew = 1.0;
constexpr int kDbpediaClients = 3;
constexpr int kSetups = 5;
// The measured loop is cut into rounds; read_qps is the median round, so
// a short stall on a shared host moves it less than a whole-run mean.
constexpr int kRounds = 10;
// lubm-analytic's durable writes, issued back to back after the reads.
constexpr uint64_t kEpilogueWrites = 200;
// dbpedia-lookup's HTTP requests draw lookups from their own generator.
constexpr int kServeClient = 1000;
// Output check budget for dbpedia-lookup: the hottest texts plus an even
// spread over the rest.
constexpr size_t kCheckedHot = 100;
constexpr size_t kCheckedTotal = 400;
// Share of a traced run spent untraced, to measure the tracing overhead.
constexpr double kUntracedShare = 0.25;

struct QuerySpec {
  size_t kind = 0;
  std::string text;
};

struct QueryWorkload {
  rdfrel::rdf::Graph graph;
  std::vector<std::string> kinds;
  int clients = 1;
  rs::QueryOptions opts;
  /// Operation \p op of a client whose generator is \p rng.
  std::function<QuerySpec(rdfrel::Random& rng, uint64_t op)> next;
  std::vector<QuerySpec> warmup;
};

uint64_t ClientSeed(uint64_t seed, int client) {
  return seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(client) + 1;
}

QueryWorkload MakeLubmAnalytic(uint64_t seed) {
  auto lubm = rdfrel::benchdata::MakeLubm(kLubmUniversities, seed);
  QueryWorkload w;
  w.graph = std::move(lubm.graph);
  std::vector<QuerySpec> queries;
  for (const auto& q : lubm.queries) {
    queries.push_back({w.kinds.size(), q.sparql});
    w.kinds.push_back(q.id);
  }
  w.warmup = queries;
  // Every pass runs all 12 queries in its own seeded order. A query that
  // follows LQ9 runs on cold caches, so one order for the whole run would
  // tie the small queries' medians to the seed.
  w.next = [queries, seed](rdfrel::Random&, uint64_t op) {
    std::vector<size_t> order(queries.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    const uint64_t pass = op / order.size();
    rdfrel::Random rng((seed + 1) * 0xD1B54A32D192ED03ULL + pass);
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Uniform(i)]);
    }
    return queries[order[op % order.size()]];
  };
  return w;
}

QueryWorkload MakeDbpediaLookup(uint64_t seed) {
  auto dbp = rdfrel::benchdata::MakeDbpedia(kDbpediaEntities,
                                            kDbpediaPredicates, seed);
  QueryWorkload w;
  w.graph = std::move(dbp.graph);
  w.clients = kDbpediaClients;
  // Lookups run serially, so clients never ask for more threads than
  // there are cores; lubm-analytic keeps the default (auto) degree.
  w.opts.max_threads = 1;
  // Entity-centric templates shaped like DQ1/DQ5/DQ7/DQ10, plus a star.
  const std::string p =
      "PREFIX : <http://dbp/> "
      "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> ";
  using Template = std::function<std::string(const std::string&)>;
  const std::vector<std::pair<std::string, Template>> templates = {
      {"DQ1", [p](const std::string& e) {
         return p + "SELECT ?o WHERE { " + e + " :label ?o }";
       }},
      {"DQ5", [p](const std::string& e) {
         return p + "SELECT ?s WHERE { ?s :birthPlace " + e + " }";
       }},
      {"DQ7", [p](const std::string& e) {
         return p + "SELECT ?s WHERE { { ?s :birthPlace " + e +
                " } UNION { ?s :deathPlace " + e + " } }";
       }},
      {"DQ10", [p](const std::string& e) {
         return p + "SELECT ?f ?a WHERE { ?f :starring ?a . ?a :birthPlace " +
                e + " }";
       }},
      {"STAR", [p](const std::string& e) {
         return p + "SELECT ?t ?l ?b WHERE { " + e + " rdf:type ?t . " + e +
                " :label ?l . OPTIONAL { " + e + " :birthPlace ?b } }";
       }},
  };
  for (const auto& t : templates) w.kinds.push_back(t.first);
  // Popularity rank -> entity through a seeded permutation, so the hot
  // entities are not simply the generator's low ids.
  std::vector<uint64_t> perm(kDbpediaEntities);
  for (uint64_t i = 0; i < perm.size(); ++i) perm[i] = i;
  rdfrel::Random prng(seed ^ 0x5DEECE66DULL);
  for (size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[prng.Uniform(i)]);
  }
  auto zipf =
      std::make_shared<rdfrel::ZipfSampler>(kDbpediaEntities, kEntitySkew);
  auto entity = [perm](uint64_t rank) {
    return ":Entity" + std::to_string(perm[rank]);
  };
  for (size_t t = 0; t < templates.size(); ++t) {
    w.warmup.push_back({t, templates[t].second(entity(0))});
  }
  w.next = [templates, zipf, entity](rdfrel::Random& rng, uint64_t) {
    const size_t t = rng.Uniform(templates.size());
    return QuerySpec{t, templates[t].second(entity(zipf->Sample(rng)))};
  };
  return w;
}

struct OpRecord {
  uint32_t kind = 0;
  uint32_t rows = 0;
  double ms = 0;
  bool ok = false;
};

/// One client thread's generator, log and (in a traced phase) spans.
struct Client {
  explicit Client(uint64_t seed, Clock::time_point epoch)
      : rng(seed), tracer(epoch) {}
  rdfrel::Random rng;
  uint64_t next_op = 0;
  std::vector<OpRecord> untraced;  ///< ops of untraced phases
  std::vector<OpRecord> traced;    ///< ops of the traced phase
  Tracer tracer;
  LayerCounts counts;
  std::string first_error;
};

void RunClient(rs::RdfStore& store, const QueryWorkload& w, int client_id,
               Clock::time_point deadline, bool traced, Client* c) {
  while (Clock::now() < deadline) {
    const QuerySpec q = w.next(c->rng, c->next_op);
    const uint64_t request =
        (static_cast<uint64_t>(client_id) << 40) | c->next_op;
    ++c->next_op;
    rs::CollectingSink sink;
    const int32_t root =
        traced ? c->tracer.Begin("store.query_with", -1, request) : -1;
    const auto t0 = Clock::now();
    const rdfrel::Status st = store.QueryWith(q.text, w.opts, sink);
    OpRecord rec;
    rec.ms = MsSince(t0);
    if (traced) c->tracer.End(root);
    rec.kind = static_cast<uint32_t>(q.kind);
    rec.ok = st.ok();
    rec.rows = static_cast<uint32_t>(sink.result().rows.size());
    std::string error = st.ok() ? "" : st.ToString();
    if (traced && st.ok()) {
      const int32_t dec = c->tracer.Begin("bench.decompose", -1, request);
      auto counts =
          DecomposeQuery(store, q.text, w.opts, c->tracer, dec, request);
      c->tracer.End(dec);
      if (!counts.ok()) {
        error = "decomposition: " + counts.status().ToString();
      } else if (counts->rows != rec.rows) {
        error = "decomposition returned " + std::to_string(counts->rows) +
                " rows, QueryWith " + std::to_string(rec.rows);
      } else {
        c->counts += *counts;
      }
    }
    if (!error.empty()) {
      rec.ok = false;
      if (c->first_error.empty()) c->first_error = error;
    }
    (traced ? c->traced : c->untraced).push_back(rec);
  }
}

void RunPhase(rs::RdfStore& store, const QueryWorkload& w, double seconds,
              bool traced, std::vector<std::unique_ptr<Client>>& clients) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back(RunClient, std::ref(store), std::cref(w),
                         static_cast<int>(i), deadline, traced,
                         clients[i].get());
  }
  for (auto& t : threads) t.join();
}

/// What the loop saw for one distinct query text.
struct TextSeen {
  size_t kind = 0;
  uint64_t ops = 0;
  uint32_t rows = 0;
  bool consistent = true;  ///< every op returned the same row count
};

/// Replays each client's generator to recover the texts of the ops it
/// ran (the loop itself keeps no texts), then checks a sample of distinct
/// texts against TripleStoreBackend loaded from the same graph.
void CheckOutputs(const QueryWorkload& w, uint64_t seed,
                  const std::vector<std::unique_ptr<Client>>& clients,
                  rs::RdfStore& store, Report* report) {
  std::unordered_map<std::string, TextSeen> seen;
  for (size_t c = 0; c < clients.size(); ++c) {
    rdfrel::Random rng(ClientSeed(seed, static_cast<int>(c)));
    std::vector<const OpRecord*> ops;
    for (const auto& r : clients[c]->untraced) ops.push_back(&r);
    for (const auto& r : clients[c]->traced) ops.push_back(&r);
    // Phases ran in order untraced, traced, each continuing one sequence.
    for (uint64_t op = 0; op < ops.size(); ++op) {
      const QuerySpec q = w.next(rng, op);
      const OpRecord& rec = *ops[op];
      if (!rec.ok) continue;  // counted as failed already
      auto [it, fresh] = seen.try_emplace(q.text);
      TextSeen& s = it->second;
      if (fresh) {
        s.kind = q.kind;
        s.rows = rec.rows;
      } else if (s.rows != rec.rows) {
        s.consistent = false;
      }
      ++s.ops;
    }
  }
  std::vector<std::pair<const std::string*, const TextSeen*>> distinct;
  for (const auto& [text, s] : seen) {
    if (!s.consistent) {
      report->Fail(s.ops, "row count changed between runs of one query");
    }
    distinct.push_back({&text, &s});
  }
  std::sort(distinct.begin(), distinct.end(), [](const auto& a,
                                                 const auto& b) {
    return a.second->ops != b.second->ops ? a.second->ops > b.second->ops
                                          : *a.first < *b.first;
  });
  std::vector<size_t> picks;
  for (size_t i = 0; i < distinct.size() && i < kCheckedHot; ++i) {
    picks.push_back(i);
  }
  if (distinct.size() > kCheckedTotal) {
    const size_t rest = distinct.size() - kCheckedHot;
    const size_t want = kCheckedTotal - kCheckedHot;
    for (size_t k = 0; k < want; ++k) picks.push_back(kCheckedHot + k * rest / want);
  } else {
    for (size_t i = kCheckedHot; i < distinct.size(); ++i) picks.push_back(i);
  }

  uint64_t swaps = 0;
  auto ref_graph = ReferenceGraph(w.graph, seed, &swaps);
  if (!ref_graph) {
    report->Problem("reference graph: no numbering found that the "
                    "TripleStoreBackend loader keeps whole");
    return;
  }
  report->MetaNumber("reference_id_swaps", static_cast<double>(swaps));
  auto reference = rs::TripleStoreBackend::Load(std::move(*ref_graph));
  if (!reference.ok()) {
    report->Problem("reference load: " + reference.status().ToString());
    return;
  }
  for (size_t i : picks) {
    const std::string& text = *distinct[i].first;
    const TextSeen& s = *distinct[i].second;
    auto ours = store.Query(text);
    auto theirs = (*reference)->Query(text);
    if (!ours.ok() || !theirs.ok()) {
      report->Fail(s.ops, "check query failed: " + text);
      continue;
    }
    const Digest d = DigestResult(*ours);
    if (!(d == DigestResult(*theirs)) || d.rows != s.rows) {
      report->Fail(s.ops, "result differs from TripleStoreBackend (" +
                              w.kinds[s.kind] + "): " + text);
    }
  }
  report->MetaNumber("distinct_texts", static_cast<double>(distinct.size()));
  report->MetaNumber("checked_texts", static_cast<double>(picks.size()));
}

/// Loads the store kSetups times (Load plus one warm-up pass) and keeps
/// the last one; sets setup_s and the schema.* metrics. Null on failure.
std::unique_ptr<rs::RdfStore> SetUp(const QueryWorkload& w, Report* report) {
  std::unique_ptr<rs::RdfStore> store;
  std::vector<double> setup_s, load_ms;
  for (int i = 0; i < kSetups; ++i) {
    store.reset();
    rdfrel::rdf::Graph copy = w.graph;
    const auto t0 = Clock::now();
    auto loaded = rs::RdfStore::Load(std::move(copy));
    load_ms.push_back(MsSince(t0));
    if (!loaded.ok()) {
      report->Problem("Load: " + loaded.status().ToString());
      return nullptr;
    }
    store = std::move(*loaded);
    for (const QuerySpec& q : w.warmup) {
      if (auto r = store->Query(q.text); !r.ok()) {
        report->Problem("warm-up " + w.kinds[q.kind] + ": " +
                        r.status().ToString());
        return nullptr;
      }
    }
    setup_s.push_back(MsSince(t0) / 1000.0);
  }
  report->Set("setup_s", Median(setup_s));
  report->Set("schema.load_ms", Median(load_ms));
  const auto& ls = store->load_stats();
  report->MetaNumber("store_triples", static_cast<double>(ls.triples));
  report->Set("schema.dph_spill_frac",
              ls.dph_rows == 0 ? 0
                               : static_cast<double>(ls.dph_spill_rows) /
                                     static_cast<double>(ls.dph_rows));
  report->Set("schema.rows_per_triple",
              static_cast<double>(ls.dph_rows + ls.rph_rows + ls.ds_rows +
                                  ls.rs_rows) /
                  static_cast<double>(std::max<uint64_t>(ls.triples, 1)));
  return store;
}

/// Counts the clients' operations and sets the read metrics: latency
/// from the untraced operations, throughput as the median round.
void EmitReads(const QueryWorkload& w,
               const std::vector<std::unique_ptr<Client>>& clients,
               const std::vector<double>& round_qps, bool trace,
               Report* report) {
  KindSamples by_kind;
  std::vector<double> all, traced_ms;
  uint64_t ops = 0, failed = 0;
  for (const auto& c : clients) {
    for (const OpRecord& r : c->untraced) {
      by_kind[w.kinds[r.kind]].push_back(r.ms);
      all.push_back(r.ms);
    }
    for (const OpRecord& r : c->traced) traced_ms.push_back(r.ms);
    for (const auto* log : {&c->untraced, &c->traced}) {
      for (const OpRecord& r : *log) {
        ++ops;
        if (!r.ok) ++failed;
      }
    }
    if (!c->first_error.empty()) {
      std::fprintf(stderr, "perfbench: first query error: %s\n",
                   c->first_error.c_str());
    }
  }
  report->Attempt(ops);
  if (failed > 0) report->Fail(failed, "queries returned an error");
  report->MetaNumber("read_samples", static_cast<double>(all.size()));
  report->Set("read_p50_ms", GeoMeanOfKindMedians(by_kind));
  for (const auto& [kind, ms] : by_kind) {
    report->MetaNumber("read_p50_ms@" + kind, Median(ms));
  }
  if (auto p95 = HonestPercentile(all, 0.95)) {
    report->Set("read_p95_ms", *p95);
  } else if (!trace) {  // a traced run reports no end-to-end metric
    report->Problem("too few reads for p95");
  }
  if (auto p99 = HonestPercentile(all, 0.99)) {
    report->MetaNumber("read_p99_ms", *p99);
  }
  report->Set("read_qps", Median(round_qps));
  if (trace) {
    report->Set("bench.trace_overhead_ms", Mean(traced_ms) - Mean(all));
  }
}

}  // namespace

void RunQueryWorkload(const Config& cfg, Report* report) {
  const bool lubm = cfg.workload == "lubm-analytic";
  QueryWorkload w = lubm ? MakeLubmAnalytic(cfg.seed)
                         : MakeDbpediaLookup(cfg.seed);
  report->MetaNumber("graph_triples", static_cast<double>(w.graph.size()));
  report->MetaNumber("clients", w.clients);
  std::unique_ptr<rs::RdfStore> store = SetUp(w, report);
  if (store == nullptr) return;

  const auto epoch = Clock::now();
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < w.clients; ++c) {
    clients.push_back(std::make_unique<Client>(ClientSeed(cfg.seed, c), epoch));
  }
  const double untraced_s =
      cfg.trace ? cfg.seconds * kUntracedShare : cfg.seconds;
  std::vector<double> round_qps;
  for (int r = 0; r < kRounds; ++r) {
    size_t before = 0, after = 0;
    for (const auto& c : clients) before += c->untraced.size();
    const auto t0 = Clock::now();
    RunPhase(*store, w, untraced_s / kRounds, false, clients);
    const double elapsed_s = MsSince(t0) / 1000.0;
    for (const auto& c : clients) after += c->untraced.size();
    round_qps.push_back(static_cast<double>(after - before) / elapsed_s);
  }
  if (cfg.trace) {
    const auto plan0 = store->plan_cache_stats();
    const auto page0 = store->page_cache_stats();
    RunPhase(*store, w, cfg.seconds - untraced_s, true, clients);
    const double miss_rate =
        EmitCacheMetrics(plan0, store->plan_cache_stats(), page0,
                         store->page_cache_stats(), report);
    LayerCounts counts;
    std::vector<const Tracer*> tracers;
    for (const auto& c : clients) {
      counts += c->counts;
      tracers.push_back(&c->tracer);
    }
    EmitLayerMetrics(tracers, counts, miss_rate, miss_rate, report);
    report->MetaNumber("traced_ops", static_cast<double>(counts.ops));
  }
  report->Set("rss_peak_mb", PeakRssMb());
  EmitReads(w, clients, round_qps, cfg.trace, report);
  CheckOutputs(w, cfg.seed, clients, *store, report);

  // After the reads: attach persistence, write (lubm-analytic back to
  // back; dbpedia-lookup beside HTTP reads), then checkpoint, close,
  // reopen and check every acknowledged write.
  const std::string dir = cfg.workdir + "/store";
  if (auto st = store->EnablePersistence(dir); !st.ok()) {
    report->Problem("EnablePersistence: " + st.ToString());
    return;
  }
  WriteLog writes;
  Tracer tracer(epoch);
  if (lubm) {
    for (uint64_t i = 0; i < kEpilogueWrites; ++i) {
      TimedWrite(*store, i, &writes);
    }
    if (cfg.trace) AddWriteSpans(writes, 0, &tracer);
    // No server and no open-loop generator in this workload.
    for (const char* name :
         {"serve.http_p50_ms", "serve.http_p95_ms", "serve.overhead_ms",
          "serve.shed", "serve.bad", "serve.response_bytes", "serve.max_qps",
          "bench.gen_lag_p99_ms"}) {
      report->Set(name, 0);
    }
  } else {
    rdfrel::Random rng(ClientSeed(cfg.seed, kServeClient));
    uint64_t op = 0;
    RunServePhase(
        *store, [&] { return w.next(rng, op++).text; }, cfg.seconds, &writes,
        cfg.trace ? &tracer : nullptr, report);
  }
  FinishDurable(std::move(store), dir, writes, report);

  if (cfg.trace) {
    std::vector<const Tracer*> tracers = {&tracer};
    for (const auto& c : clients) tracers.push_back(&c->tracer);
    if (!WriteSpans(cfg.trace_path, tracers)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   cfg.trace_path.c_str());
    }
  }
}

}  // namespace perfbench
