// sim-lossy: the `optcm run` path — generate, run_sim, then the consistency
// checker and the optimality auditor — on the 16-process lossy cell.

#include <malloc.h>

#include <algorithm>
#include <memory>

#include "dsm/audit/auditor.h"
#include "dsm/history/checker.h"
#include "dsm/sim/latency.h"
#include "dsm/workload/generator.h"
#include "dsm/workload/sim_harness.h"
#include "round_stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kProcs = 16;
constexpr std::size_t kVars = 32;
// 50 operations per process give a round about 640 writes and keep the
// auditor's safety loop, which grows as n·W², to about 0.1 s, so a run has
// a hundred rounds or more for its medians.
constexpr std::size_t kOpsPerProc = 50;
constexpr std::size_t kSetupReps = 16;

}  // namespace

SimRound sim_lossy_round(std::uint64_t seed, std::size_t ops_per_proc,
                         Tracer& tracer, int parent,
                         dsm::RunTelemetry* telemetry) {
  SimRound out;
  dsm::WorkloadSpec spec;
  spec.n_procs = kProcs;
  spec.n_vars = kVars;
  spec.ops_per_proc = ops_per_proc;
  spec.write_fraction = 0.8;
  spec.mean_gap = dsm::sim_us(300);
  spec.seed = seed;
  // Set-up takes well under a millisecond, so it is repeated and the median
  // kept; every repetition builds the same inputs.
  std::vector<dsm::Script> scripts;
  std::unique_ptr<dsm::LatencyModel> latency;
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    Scope setup(tracer, "workload.generate", parent);
    scripts = dsm::generate_workload(spec);
    latency = dsm::make_latency(dsm::LatencyKind::kLogNormal, dsm::sim_us(400),
                                1.0, seed ^ 0xC11);
    setup_s.push_back(setup.stop());
  }
  out.setup_s = median(setup_s);
  dsm::SimRunConfig config;
  config.kind = dsm::ProtocolKind::kOptP;
  config.n_procs = kProcs;
  config.n_vars = kVars;
  config.latency = latency.get();
  config.fault.drop = 0.15;
  config.fault.seed = seed ^ 0xFA;
  config.telemetry = telemetry;

  const Usage cpu0 = usage_thread();
  Scope run(tracer, "sim.run", parent);
  const dsm::SimRunResult result = dsm::run_sim(config, scripts);
  out.run_s = run.stop();
  out.run_cpu_s = usage_thread().cpu_s - cpu0.cpu_s;

  const dsm::RunRecorder& rec = *result.recorder;
  out.ops = rec.history().size();
  for (const dsm::Script& s : scripts) {
    out.writes += static_cast<std::uint64_t>(
        std::count_if(s.begin(), s.end(), [](const dsm::ScriptStep& step) {
          return step.kind == dsm::StepKind::kWrite;
        }));
  }
  out.net = result.net;
  out.arq = result.reliable;
  for (const dsm::ProtocolStats& st : result.stats) out.protocol += st;
  out.events = rec.events().size();
  out.settled = result.settled;

  {
    Scope co_span(tracer, "history.co", parent);
    const auto co = dsm::CoRelation::build(rec.history());
    out.co_s = co_span.stop();
    Scope check_span(tracer, "history.check", parent);
    out.consistent =
        co.has_value() && dsm::ConsistencyChecker::check(rec.history(), *co)
                              .consistent();
    out.check_s = check_span.stop();
  }
  Scope audit_span(tracer, "audit.audit", parent);
  const dsm::AuditReport audit = dsm::OptimalityAuditor::audit(rec);
  out.audit_s = audit_span.stop();
  out.verify_s = out.co_s + out.check_s + out.audit_s;
  out.safe = audit.safe();
  out.live = audit.live();
  out.optimal = audit.write_delay_optimal();

  Scope analyze(tracer, "bench.analyze", parent);
  out.events_seen = analyze_events(rec.events(), kProcs, 1.0);
  // Trimmed first, so earlier rounds' freed heap pages do not count.
  ::malloc_trim(0);
  out.rss_mb = rss_now_mb();
  return out;
}

RunReport run_sim_lossy(const Options& options) {
  return run_rounds(
      options, "sim-lossy", Pace::kCpuBound,
      [](std::uint64_t seed, Tracer& tracer, int parent, bool traced) {
        std::unique_ptr<dsm::RunTelemetry> telemetry;
        if (traced) telemetry = std::make_unique<dsm::RunTelemetry>(kProcs);
        const SimRound s =
            sim_lossy_round(seed, kOpsPerProc, tracer, parent, telemetry.get());
        RoundResult out;
        out.ops = s.ops;
        if (!s.passed()) {
          out.error = std::string(s.consistent ? "" : " inconsistent") +
                      (s.safe ? "" : " unsafe") + (s.live ? "" : " not live") +
                      (s.optimal ? "" : " not write-delay optimal") +
                      (s.settled ? "" : " not settled") +
                      (s.events_seen.incomplete == 0 ? ""
                                                     : " writes not applied");
          return out;
        }
        Values& v = out.values;
        out.window_s = s.run_s;
        out.cpu_s = s.run_cpu_s;
        Values& t = out.timed;
        t["verify_s"] = s.verify_s;
        t["setup_s"] = s.setup_s;
        v["rss_mb"] = s.rss_mb;
        // Simulated reads and writes return at once (OptP never blocks its
        // caller): an operation's latency is how long a reader at another
        // replica waits for it, averaged over the other replicas.
        add_event_metrics(s.events_seen, &s.events_seen.mean_remote, out);
        t["workload.generate_ms"] = s.setup_s * 1e3;
        t["sim.run_ms"] = s.run_s * 1e3;
        t["history.co_ms"] = s.co_s * 1e3;
        t["history.check_ms"] = s.check_s * 1e3;
        t["audit.audit_ms"] = s.audit_s * 1e3;
        v["sim.msgs_per_write"] = ratio(s.net.messages_sent, s.writes);
        v["sim.arq_retx_per_data"] =
            ratio(s.arq.retransmissions, s.arq.data_sent);
        v["sim.arq_dups_per_data"] =
            ratio(s.arq.duplicates_suppressed, s.arq.data_sent);
        v["codec.bytes_per_msg"] = ratio(s.net.bytes_sent, s.net.messages_sent);
        v["protocols.drain_scans_per_apply"] =
            ratio(s.protocol.drain_scans, s.protocol.remote_applies);
        v["protocols.peak_pending"] =
            static_cast<double>(s.protocol.peak_pending);
        v["protocols.recorder_events_per_op"] = ratio(s.events, s.ops);
        return out;
      });
}

}  // namespace perfbench
