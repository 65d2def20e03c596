// proc-burst / proc-durable: a forked 3-node ProcessCluster over loopback
// TCP, steered through its control plane exactly as `optcm drive` does:
// spawn → wait_ready → run(scripts) → wait_done → fetch logs and stats →
// shutdown, then merge_runs + ConsistencyChecker on the fetched logs.
//
// proc-burst scripts have a near-zero think time, so steps arrive faster
// than the nodes absorb them; proc-durable gives every node a WAL + snapshot
// state dir with tick-edge group commit and paces the scripts.  The nodes'
// CPU, context switches, storage writes and private memory are read from
// /proc while they run.  Rounds are bounded well below the node limits
// (65 536 script steps; FetchLog refuses a log past 16 MiB).

#include <filesystem>

#include "dsm/history/checker.h"
#include "dsm/net/merge.h"
#include "dsm/net/process_cluster.h"
#include "dsm/workload/generator.h"
#include "round_stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kNodes = 3;
constexpr std::size_t kVars = 32;

struct Shape {
  std::size_t ops_per_node;
  dsm::SimTime mean_gap_us;
  /// Times the round's logs are verified (verify_s is the median).
  std::size_t verify_reps;
};
// Fetching and checking the logs costs about five times a burst round's
// run and grows faster than it, so burst rounds stay at 18 000 operations.
// The durable cluster is offered one step per 10 ms per node, 300 ops/s:
// about half of the 600 ops/s a durable three-node cluster was measured to
// sustain on this hardware, so that its throughput shows the cluster at a
// fixed load rather than how much CPU other tenants leave it (at one step
// per 5 ms it fell from 560 to 356 ops/s when the host slowed).  100 steps
// per node make a round of about 1.1 s, so a run has a couple of dozen
// rounds for its medians (README.md, "proc-durable's pace").
constexpr Shape kBurst{6'000, 1, 1};
constexpr Shape kDurable{100, 10'000, 5};

struct ProcRound {
  std::uint64_t ops = 0;
  std::string error;  ///< first failed step; empty when the round passed
  double generate_s = 0;
  double generate_cpu_s = 0;  ///< this thread's CPU in generate_workload
  double spawn_s = 0;   ///< spawn + wait_ready
  double spawn_cpu_s = 0;  ///< the nodes' CPU from fork to ready
  double run_s = 0;     ///< run → wait_done
  double fetch_s = 0;   ///< fetch_stats + fetch_log
  double merge_s = 0;
  double co_s = 0;
  double check_s = 0;
  double verify_cpu_s = 0;  ///< merge + co + check, this thread's CPU
  double cpu_s = 0;
  double private_mb = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t vol_switches = 0;
  std::uint64_t state_bytes = 0;
  std::uint64_t events = 0;
  dsm::NodeNetStats net;  ///< summed over nodes
  EventAnalysis events_seen;
};

void accumulate(dsm::NodeNetStats& sum, const dsm::NodeNetStats& s) {
  sum.reliable += s.reliable;
  sum.tcp.frames_out += s.tcp.frames_out;
  sum.tcp.bytes_out += s.tcp.bytes_out;
  sum.tcp.reconnects += s.tcp.reconnects;
  sum.wal_write_errors += s.wal_write_errors;
  sum.wal_fsync_errors += s.wal_fsync_errors;
  sum.snapshot_failures += s.snapshot_failures;
}

ProcRound proc_round(std::uint64_t seed, bool durable, const std::string& dir,
                     Tracer& tracer, int parent) {
  ProcRound out;
  const Shape shape = durable ? kDurable : kBurst;
  const double gen_cpu0 = usage_thread().cpu_s;
  Scope gen(tracer, "workload.generate", parent);
  dsm::WorkloadSpec spec;
  spec.n_procs = kNodes;
  spec.n_vars = kVars;
  spec.ops_per_proc = shape.ops_per_node;
  spec.write_fraction = 0.5;
  spec.mean_gap = dsm::sim_us(shape.mean_gap_us);
  spec.seed = seed;
  const std::vector<dsm::Script> scripts = dsm::generate_workload(spec);
  out.ops = kNodes * shape.ops_per_node;
  out.generate_s = gen.stop();
  out.generate_cpu_s = usage_thread().cpu_s - gen_cpu0;

  dsm::ProcessClusterConfig config;
  config.shape.kind = dsm::ProtocolKind::kOptP;
  config.shape.n_procs = kNodes;
  config.shape.n_vars = kVars;
  if (durable) {
    config.shape.recoverable = true;
    config.state_dir = dir;
    config.wal_group_commit = true;
  }
  dsm::ProcessCluster cluster(config);
  Scope spawn(tracer, "net.spawn", parent);
  const bool ready = cluster.spawn() && cluster.wait_ready();
  out.spawn_s = spawn.stop();
  if (!ready) {
    out.error = "spawn/wait_ready failed";
    return out;
  }
  // The node probes must see every node, or CPU, memory and storage would
  // read too low and pass for an improvement.
  const std::vector<int> pids = child_pids();
  if (pids.size() != kNodes) {
    out.error = "found " + std::to_string(pids.size()) +
                " node processes in /proc, expected " + std::to_string(kNodes);
    return out;
  }
  std::vector<ProcSample> before;
  for (const int pid : pids) {
    before.push_back(sample_proc(pid));
    out.spawn_cpu_s += before.back().cpu_s;
  }

  Scope run(tracer, "net.run", parent);
  const bool done = cluster.run(scripts, 1) && cluster.wait_done(60'000);
  out.run_s = run.stop();
  for (std::size_t i = 0; i < pids.size(); ++i) {
    const ProcSample after = sample_proc(pids[i]);
    if (!before[i].ok || !after.ok) {
      out.error = "cannot read /proc of node process " + std::to_string(pids[i]);
      return out;
    }
    out.cpu_s += after.cpu_s - before[i].cpu_s;
    out.write_bytes += after.write_bytes - before[i].write_bytes;
    out.vol_switches += after.vol_switches - before[i].vol_switches;
    out.private_mb += after.private_mb;
  }
  if (!done) {
    out.error = "run/wait_done failed";
    return out;
  }

  Scope fetch(tracer, "net.fetch", parent);
  std::vector<dsm::ImportedRun> logs;
  for (dsm::ProcessId p = 0; p < kNodes; ++p) {
    const auto stats = cluster.fetch_stats(p);
    auto log = cluster.fetch_log(p);
    if (!stats || !log) {
      out.error = "fetch_stats/fetch_log failed on node " + std::to_string(p);
      return out;
    }
    accumulate(out.net, *stats);
    logs.push_back(std::move(*log));
  }
  out.fetch_s = fetch.stop();
  {
    Scope shutdown(tracer, "net.shutdown", parent);
    if (!cluster.shutdown()) out.error = "unclean shutdown";
  }
  if (durable) out.state_bytes = dir_bytes(dir);

  std::vector<dsm::RunEvent> events;
  for (const dsm::ImportedRun& log : logs) {
    events.insert(events.end(), log.events.begin(), log.events.end());
  }
  out.events = events.size();
  // Verifying a durable round's logs takes about a millisecond, so it is
  // repeated and the medians kept; every repetition checks the same logs.
  bool consistent = false;
  std::vector<double> merge_s, co_s, check_s, verify_cpu_s;
  for (std::size_t i = 0; i < shape.verify_reps; ++i) {
    const double cpu0 = usage_thread().cpu_s;
    Scope merge(tracer, "history.merge", parent);
    const auto merged = dsm::merge_runs(logs);
    merge_s.push_back(merge.stop());
    if (!merged) {
      out.error = "logs do not merge into a causal order";
      return out;
    }
    Scope co_span(tracer, "history.co", parent);
    const auto co = dsm::CoRelation::build(merged->history);
    co_s.push_back(co_span.stop());
    Scope check_span(tracer, "history.check", parent);
    consistent =
        co.has_value() &&
        dsm::ConsistencyChecker::check(merged->history, *co).consistent();
    check_s.push_back(check_span.stop());
    verify_cpu_s.push_back(usage_thread().cpu_s - cpu0);
  }
  out.merge_s = median(merge_s);
  out.co_s = median(co_s);
  out.check_s = median(check_s);
  out.verify_cpu_s = median(verify_cpu_s);

  Scope analyze(tracer, "bench.analyze", parent);
  out.events_seen = analyze_events(events, kNodes, 1.0, /*align=*/true);
  if (!out.error.empty()) return out;
  if (!consistent) {
    out.error = "inconsistent history";
  } else if (out.events_seen.incomplete != 0) {
    out.error = "writes not applied at every replica";
  } else if (out.net.tcp.reconnects != 0) {
    out.error = "TCP reconnects";
  } else if (out.net.wal_write_errors + out.net.wal_fsync_errors +
                 out.net.snapshot_failures !=
             0) {
    out.error = "WAL/snapshot errors";
  }
  return out;
}

}  // namespace

RunReport run_proc(const Options& options, bool durable) {
  std::size_t round_index = 0;
  return run_rounds(
      options, durable ? "proc-durable" : "proc-burst",
      durable ? Pace::kPaced : Pace::kCpuBound,
      [&](std::uint64_t seed, Tracer& tracer, int parent, bool /*traced*/) {
        // The nodes always carry their own RunTelemetry, so a traced round
        // differs from an untraced one only by the benchmark's spans.
        const std::string dir =
            options.work_dir + "/state-" + std::to_string(round_index++);
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        const ProcRound s = proc_round(seed, durable, dir, tracer, parent);
        std::filesystem::remove_all(dir);
        RoundResult out;
        out.ops = s.ops;
        out.error = s.error;
        if (!out.error.empty()) return out;
        Values& v = out.values;
        out.window_s = s.run_s;
        out.cpu_s = s.cpu_s;
        Values& t = out.timed;
        // Both are CPU times of bursts of a few milliseconds or less, which a
        // wall clock would stretch by whatever waits for a CPU they meet.
        // verify_s is what runs once the logs are in hand (fetching them is
        // net.fetch_ms).  Set-up is the CPU it costs: how long the nodes
        // take to come up in wall time follows the host's scheduling
        // (net.spawn_ms; over ten runs its median moved from 5.2 to
        // 12.8 ms), while the CPU a node spends from fork to ready is its
        // start-up work.
        out.cpu_timed["verify_s"] = s.verify_cpu_s;
        out.cpu_timed["setup_s"] = s.generate_cpu_s + s.spawn_cpu_s;
        v["rss_mb"] = s.private_mb;
        // Node clocks are aligned from the logs (see visibility.h).  The
        // tier exposes no per-call latency (script steps never block, and
        // nodes stamp them at their scheduled times), and on the durable
        // cluster the nearer node can even appear to apply a write before
        // its send; so op_* repeats the visibility samples, whose far end
        // is steady.
        add_event_metrics(s.events_seen, &s.events_seen.visible, out);
        t["workload.generate_ms"] = s.generate_s * 1e3;
        t["net.spawn_ms"] = s.spawn_s * 1e3;
        t["net.run_ms"] = s.run_s * 1e3;
        t["net.fetch_ms"] = s.fetch_s * 1e3;
        t["history.merge_ms"] = s.merge_s * 1e3;
        t["history.co_ms"] = s.co_s * 1e3;
        t["history.check_ms"] = s.check_s * 1e3;
        v["sim.arq_retx_per_data"] =
            ratio(s.net.reliable.retransmissions, s.net.reliable.data_sent);
        v["sim.arq_dups_per_data"] = ratio(
            s.net.reliable.duplicates_suppressed, s.net.reliable.data_sent);
        v["codec.bytes_per_msg"] =
            ratio(s.net.tcp.bytes_out, s.net.tcp.frames_out);
        v["net.frames_per_op"] = ratio(s.net.tcp.frames_out, s.ops);
        v["net.bytes_per_op"] = ratio(s.net.tcp.bytes_out, s.ops);
        v["storage.write_kb_per_op"] = ratio(s.write_bytes, s.ops) / 1024.0;
        v["storage.state_kb_per_op"] = ratio(s.state_bytes, s.ops) / 1024.0;
        v["runtime.ctx_switches_per_op"] = ratio(s.vol_switches, s.ops);
        v["protocols.recorder_events_per_op"] = ratio(s.events, s.ops);
        return out;
      });
}

}  // namespace perfbench
