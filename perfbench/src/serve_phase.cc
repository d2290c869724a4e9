#include "serve_phase.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "digest.h"
#include "http_load.h"
#include "serve/http.h"
#include "serve/result_writer.h"
#include "serve/server.h"
#include "stats.h"

namespace perfbench {

namespace {

namespace serve = rdfrel::serve;

// One more connection than server workers; with the generator and the
// writer that is four busy threads.
constexpr int kWorkers = 2;
constexpr int kConnections = kWorkers + 1;
// The reference rate, then a ladder of multiples of it for serve.max_qps,
// whose limit is a p95 of kTailLimitMs (from the scheduled send).
constexpr double kReferenceRate = 200;
constexpr double kLadder[] = {2, 4, 8};
constexpr double kTailLimitMs = 25;
// Shares of --seconds: the reference rate, then each ladder step.
constexpr double kReferenceShare = 0.25;
constexpr double kStepShare = 0.05;
// Durable InsertBatch calls per second beside the reads.
constexpr double kWriteRate = 10;

struct Expected {
  uint64_t hash = 0;
  uint64_t bytes = 0;
  double in_process_ms = 0;
};

}  // namespace

void RunServePhase(rdfrel::store::RdfStore& store,
                   const std::function<std::string()>& next_text,
                   double seconds, WriteLog* writes, Tracer* tracer,
                   Report* report) {
  struct Step {
    double rate;
    std::vector<std::string> texts;
    std::vector<std::string> requests;
  };
  std::vector<Step> steps = {{kReferenceRate, {}, {}}};
  for (double m : kLadder) steps.push_back({kReferenceRate * m, {}, {}});
  for (Step& step : steps) {
    const double length =
        seconds * (&step == &steps.front() ? kReferenceShare : kStepShare);
    const auto n = static_cast<size_t>(step.rate * length);
    for (size_t i = 0; i < n; ++i) {
      step.texts.push_back(next_text());
      step.requests.push_back("GET /sparql?query=" +
                              serve::UrlEncode(step.texts.back()) +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: keep-alive\r\n\r\n");
    }
  }

  serve::ServerOptions opts;
  opts.workers = kWorkers;
  serve::SparqlServer server(&store, opts);
  if (auto st = server.Start(); !st.ok()) {
    report->Problem("server start: " + st.ToString());
    return;
  }

  std::atomic<bool> stop_writer{false};
  const uint64_t first_write = writes->attempted;
  std::thread writer([&] {
    const auto start = Clock::now();
    for (uint64_t i = 0; !stop_writer.load(); ++i) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       static_cast<double>(i) / kWriteRate));
      while (Clock::now() < due && !stop_writer.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      if (stop_writer.load()) break;
      TimedWrite(store, first_write + i, writes);
    }
  });
  std::vector<std::vector<HttpSample>> samples;
  for (const Step& step : steps) {
    samples.push_back(
        RunOpenLoop(server.port(), step.requests, step.rate, kConnections));
  }
  stop_writer.store(true);
  writer.join();
  const auto& m = server.metrics();
  report->Set("serve.shed", static_cast<double>(m.connections_shed.load()));
  report->Set("serve.bad", static_cast<double>(m.requests_bad.load()));
  server.Stop();

  // The in-process answer to every text, with the writer stopped (the
  // writes match no read, so answers are the same as during the phase),
  // run serially as the server runs it.
  rdfrel::store::QueryOptions serial;
  serial.max_threads = 1;
  std::unordered_map<std::string, Expected> expected;
  for (const Step& step : steps) {
    for (const std::string& text : step.texts) {
      if (expected.count(text) > 0) continue;
      const auto t0 = Clock::now();
      auto rs = store.QueryWith(text, serial);
      Expected e;
      e.in_process_ms = MsSince(t0);
      if (rs.ok()) {
        const std::string body = serve::SerializeResultSet(*rs, "json");
        e.hash = Fnv1a(body);
        e.bytes = body.size();
      }
      expected.emplace(text, e);
    }
  }

  uint64_t attempted = 0, failed = 0, ok_bytes = 0;
  std::vector<RateStep> ladder;
  std::vector<double> lag;
  uint64_t request_id = 1ULL << 48;
  for (size_t p = 0; p < steps.size(); ++p) {
    std::vector<double> ms;
    Clock::time_point last_due{}, last_done{};
    bool all_ok = true;
    for (const HttpSample& s : samples[p]) {
      const Expected& e = expected[steps[p].texts[s.request]];
      const bool ok = s.status == 200 && e.bytes > 0 &&
                      s.body_hash == e.hash && s.body_bytes == e.bytes;
      ++attempted;
      if (ok) {
        ok_bytes += s.body_bytes;
      } else {
        ++failed;
      }
      all_ok = all_ok && ok;
      ms.push_back(s.LatencyMs());
      lag.push_back(s.LagMs());
      last_due = std::max(last_due, s.scheduled);
      last_done = std::max(last_done, s.done);
      if (tracer != nullptr) {
        // Built from the generator's own timestamps, so tracing adds
        // nothing to the served path.
        const int32_t root = tracer->Add("http.request", s.scheduled, s.done,
                                         -1, request_id);
        tracer->Add("bench.gen_lag", s.scheduled, s.released, root,
                    request_id);
        tracer->Add("serve.response", s.sent, s.done, root, request_id++);
      }
    }
    const auto tail = HonestPercentile(ms, 0.95);
    // A step keeps up when every answer was right and it drained within
    // the limit after its last due request.
    const bool drained = Ms(last_done - last_due) <= kTailLimitMs;
    ladder.push_back({steps[p].rate, tail ? *tail : Percentile(ms, 1.0),
                      all_ok && drained && tail.has_value()});
    report->MetaNumber(
        "serve.step_p95_ms@" + std::to_string(static_cast<int>(steps[p].rate)),
        ladder.back().tail_ms);
  }
  report->Attempt(attempted);
  if (failed > 0) report->Fail(failed, "HTTP responses wrong or refused");
  report->Set("serve.response_bytes",
              attempted > failed ? static_cast<double>(ok_bytes) /
                                       static_cast<double>(attempted - failed)
                                 : 0);
  report->Set("serve.max_qps", MaxPassingRate(ladder, kTailLimitMs));
  report->MetaNumber("serve.tail_limit_ms", kTailLimitMs);
  if (auto p99 = HonestPercentile(lag, 0.99)) {
    report->Set("bench.gen_lag_p99_ms", *p99);
  } else {
    report->Problem("too few open-loop requests for a generator-lag p99");
  }

  // The reference rate: latency from the scheduled send, and the serving
  // overhead as the median service time (send to last byte) minus the
  // median in-process time of the same texts.
  std::vector<double> latency, service, in_process;
  for (const HttpSample& s : samples.front()) {
    latency.push_back(s.LatencyMs());
    service.push_back(s.ServiceMs());
    in_process.push_back(expected[steps.front().texts[s.request]].in_process_ms);
  }
  report->Set("serve.http_p50_ms", Median(latency));
  if (auto p95 = HonestPercentile(latency, 0.95)) {
    report->Set("serve.http_p95_ms", *p95);
  } else {
    report->Problem("too few reference-rate requests for p95");
  }
  report->Set("serve.overhead_ms", Median(service) - Median(in_process));
  if (tracer != nullptr) AddWriteSpans(*writes, first_write, tracer);
}

}  // namespace perfbench
