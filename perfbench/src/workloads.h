// perfbench — the four workloads, each against one tier's public API.
//
//   sim-lossy       run_sim (OptP, 16 processes, lossy datagrams + ARQ) and
//                   both verifiers: the `optcm run` path.
//   threads-closed  a 3-replica ThreadCluster driven by one closed-loop
//                   client thread: the CausalMemory library path.
//   proc-burst      a forked 3-node ProcessCluster over TCP, scripts with a
//                   near-zero think time (the cluster is saturated).
//   proc-durable    the same cluster with a WAL + snapshot state dir per
//                   node and group commit, at a paced think time.
//
// Each runs in rounds (set up, run, verify) until the time budget is spent.
// sim_lossy_round is exposed for the self-tests.

#pragma once

#include <cstdint>
#include <string>

#include "dsm/telemetry/telemetry.h"
#include "report.h"
#include "visibility.h"

namespace perfbench {

// ---- sim-lossy ---------------------------------------------------------------

struct SimRound {
  std::uint64_t ops = 0;
  std::uint64_t writes = 0;
  dsm::NetworkStats net;
  dsm::ReliableStats arq;
  dsm::ProtocolStats protocol;  ///< summed over processes (peak: max)
  std::uint64_t events = 0;
  EventAnalysis events_seen;    ///< simulated µs
  bool consistent = false;
  bool safe = false;
  bool live = false;
  bool optimal = false;
  bool settled = false;
  double run_s = 0;       ///< wall time of run_sim
  double run_cpu_s = 0;   ///< this thread's CPU during run_sim
  double setup_s = 0;     ///< workload generation + latency/fault set-up
  double co_s = 0;        ///< CoRelation::build
  double check_s = 0;     ///< ConsistencyChecker::check
  double audit_s = 0;     ///< OptimalityAuditor::audit
  double verify_s = 0;    ///< all three
  double rss_mb = 0;      ///< resident with the run's result still held

  [[nodiscard]] bool passed() const {
    return consistent && safe && live && optimal && settled &&
           events_seen.incomplete == 0;
  }
};

/// One simulated run of `ops_per_proc` operations per process from `seed`,
/// verified.  Spans go under `parent`; `telemetry` (nullable) is attached to
/// the run.
[[nodiscard]] SimRound sim_lossy_round(std::uint64_t seed,
                                       std::size_t ops_per_proc,
                                       Tracer& tracer, int parent,
                                       dsm::RunTelemetry* telemetry);

[[nodiscard]] RunReport run_sim_lossy(const Options& options);

// ---- threads-closed ----------------------------------------------------------

[[nodiscard]] RunReport run_threads_closed(const Options& options);

// ---- proc-burst / proc-durable -----------------------------------------------

[[nodiscard]] RunReport run_proc(const Options& options, bool durable);

}  // namespace perfbench
