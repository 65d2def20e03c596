// threads-closed: the CausalMemory library path — a 3-replica ThreadCluster
// driven by one closed-loop client thread (each call waits for the previous
// one to return), 50/50 reads and writes over Zipf-skewed keys, round-robin
// across replicas.
//
// Rounds are bounded (kOpsPerRound operations on a fresh cluster) so the
// full consistency checker, whose ↦co closure is quadratic in the history,
// runs on every round's complete history, and a run has hundreds of rounds
// for its medians.

#include <malloc.h>

#include <memory>

#include "dsm/common/rng.h"
#include "dsm/history/checker.h"
#include "dsm/runtime/thread_cluster.h"
#include "round_stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kReplicas = 3;
constexpr std::size_t kVars = 32;
constexpr std::size_t kOpsPerRound = 3'000;

struct Call {
  dsm::ProcessId replica = 0;
  bool write = false;
  dsm::VarId var = 0;
  dsm::Value value = 0;
};

std::vector<Call> generate_calls(std::uint64_t seed, std::size_t n) {
  dsm::Rng rng(seed);
  const dsm::ZipfSampler zipf(kVars, 0.9);
  std::vector<Call> calls(n);
  for (std::size_t i = 0; i < n; ++i) {
    calls[i].replica = static_cast<dsm::ProcessId>(i % kReplicas);
    calls[i].write = rng.chance(0.5);
    calls[i].var = static_cast<dsm::VarId>(zipf.sample(rng));
    calls[i].value = static_cast<dsm::Value>(i + 1);  // unique per write
  }
  return calls;
}

struct ThreadsRound {
  std::uint64_t ops = 0;
  std::vector<double> write_us, read_us;  ///< per-call latency
  double generate_s = 0;
  double setup_s = 0;   ///< generation + cluster construction
  double window_s = 0;  ///< first call → quiescence
  double quiesce_s = 0;
  double cpu_s = 0;
  std::uint64_t vol_switches = 0;
  bool quiesced = false;
  bool consistent = false;
  double rss_mb = 0;    ///< resident after quiescence: cluster + recorder
  double co_s = 0;
  double check_s = 0;
  double verify_s = 0;
  std::uint64_t events = 0;
  dsm::ProtocolStats protocol;
  EventAnalysis events_seen;
};

ThreadsRound threads_round(std::uint64_t seed, Tracer& tracer, int parent,
                           dsm::RunTelemetry* telemetry) {
  ThreadsRound out;
  Scope setup(tracer, "workload.generate", parent);
  const std::vector<Call> calls = generate_calls(seed, kOpsPerRound);
  out.generate_s = setup.stop();
  Scope build(tracer, "runtime.cluster", parent);
  dsm::ThreadCluster::Config config;
  config.kind = dsm::ProtocolKind::kOptP;
  config.n_procs = kReplicas;
  config.n_vars = kVars;
  config.seed = seed;
  config.telemetry = telemetry;
  dsm::ThreadCluster cluster(config);
  out.setup_s = out.generate_s + build.stop();

  out.write_us.reserve(calls.size());
  out.read_us.reserve(calls.size());
  const Usage u0 = usage_self();
  const auto t0 = Clock::now();
  {
    Scope ops(tracer, "runtime.ops", parent);
    for (const Call& c : calls) {
      const auto start = Clock::now();
      if (c.write) {
        cluster.write(c.replica, c.var, c.value);
      } else {
        (void)cluster.read(c.replica, c.var);
      }
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - start)
              .count();
      (c.write ? out.write_us : out.read_us).push_back(us);
    }
  }
  Scope quiesce(tracer, "runtime.quiesce", parent);
  out.quiesced = cluster.await_quiescence(std::chrono::seconds(30));
  out.quiesce_s = quiesce.stop();
  out.window_s = seconds_since(t0);
  const Usage u1 = usage_self();
  out.cpu_s = u1.cpu_s - u0.cpu_s;
  out.vol_switches = u1.vol_switches - u0.vol_switches;
  out.ops = calls.size();
  // Freed heap pages of earlier rounds stay resident until trimmed, by an
  // amount that depends on the allocator's timing; after the trim the RSS
  // is what the live cluster and its recorder hold.
  ::malloc_trim(0);
  out.rss_mb = rss_now_mb();
  cluster.shutdown();

  const dsm::RunRecorder& rec = cluster.recorder();
  for (dsm::ProcessId p = 0; p < kReplicas; ++p) out.protocol += cluster.stats(p);
  out.events = rec.events().size();
  {
    Scope co_span(tracer, "history.co", parent);
    const auto co = dsm::CoRelation::build(rec.history());
    out.co_s = co_span.stop();
    Scope check_span(tracer, "history.check", parent);
    out.consistent =
        co.has_value() &&
        dsm::ConsistencyChecker::check(rec.history(), *co).consistent();
    out.check_s = check_span.stop();
    out.verify_s = out.co_s + out.check_s;
  }
  Scope analyze(tracer, "bench.analyze", parent);
  out.events_seen = analyze_events(rec.events(), kReplicas, 1000.0);
  return out;
}

}  // namespace

RunReport run_threads_closed(const Options& options) {
  return run_rounds(
      options, "threads-closed", Pace::kCpuBound,
      [](std::uint64_t seed, Tracer& tracer, int parent, bool traced) {
        std::unique_ptr<dsm::RunTelemetry> telemetry;
        if (traced) telemetry = std::make_unique<dsm::RunTelemetry>(kReplicas);
        const ThreadsRound s = threads_round(seed, tracer, parent, telemetry.get());
        RoundResult out;
        out.ops = s.ops;
        // Gate: quiescence, every write applied at every replica (the
        // recorder's apply events), and the full checker on the round's
        // bounded history.
        if (!s.quiesced || !s.consistent || s.events_seen.incomplete != 0) {
          out.error = std::string(s.quiesced ? "" : " did not quiesce") +
                      (s.consistent ? "" : " inconsistent") +
                      (s.events_seen.incomplete == 0 ? ""
                                                     : " writes not applied");
          return out;
        }
        const auto n = static_cast<double>(s.ops);
        std::vector<double> calls = s.write_us;
        calls.insert(calls.end(), s.read_us.begin(), s.read_us.end());
        Values& v = out.values;
        out.window_s = s.window_s;
        out.cpu_s = s.cpu_s;
        Values& t = out.timed;
        t["verify_s"] = s.verify_s;
        t["setup_s"] = s.setup_s;
        v["rss_mb"] = s.rss_mb;
        tail(out, "op_p50_us", 50, calls);
        tail(out, "op_p99_us", 99, std::move(calls));
        add_event_metrics(s.events_seen, nullptr, out);
        t["workload.generate_ms"] = s.generate_s * 1e3;
        tail(out, "runtime.write_call_p99_us", 99, s.write_us);
        tail(out, "runtime.read_call_p99_us", 99, s.read_us);
        v["runtime.ctx_switches_per_op"] =
            static_cast<double>(s.vol_switches) / n;
        t["runtime.quiesce_ms"] = s.quiesce_s * 1e3;
        t["history.co_ms"] = s.co_s * 1e3;
        t["history.check_ms"] = s.check_s * 1e3;
        v["protocols.drain_scans_per_apply"] =
            ratio(s.protocol.drain_scans, s.protocol.remote_applies);
        v["protocols.peak_pending"] =
            static_cast<double>(s.protocol.peak_pending);
        v["protocols.recorder_events_per_op"] = ratio(s.events, s.ops);
        return out;
      });
}

}  // namespace perfbench
