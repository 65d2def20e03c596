// perfbench — the round loop every workload shares.
//
// A run repeats rounds (set up, run, verify) until its time budget is
// spent.  Each round reports its own value of every metric, and the run
// reports the median over its rounds: many small rounds, so that neither
// one slow round nor the spread between rounds' inputs moves the value.
//
// Wall-clock and CPU times are also scaled to a reference host speed.  The
// host is shared, and other tenants' load changes its speed for minutes at
// a time, which no rule over one run's rounds can absorb.  So the run also
// times a fixed reference loop (reference_loop_s(), code of the benchmark's
// own, not of optcm) every half second, in wall time and in this thread's
// CPU time.  A wall-clock time is divided by k = median loop wall time /
// kReferenceLoopS, which also counts the waits for a CPU that other
// processes cause; a CPU time (cpu_us_per_op, and the `cpu_timed` costs of
// bursts too short to be preempted) is divided by k_cpu, the same ratio in
// CPU time.  The values read as if measured on a host where the loop takes
// exactly kReferenceLoopS.  A CPU-bound throughput is multiplied by k; a
// paced one (set by the script's think time, not by the host) is reported
// as measured.  Latency percentiles are reported as measured: they are in
// simulated time on sim-lossy, and set by wake-ups and queueing elsewhere.
// The notes print k, k_cpu and the raw values.
//
// A traced run alternates untraced and traced rounds.  Per-layer numbers
// come from the traced rounds; the latencies and CPU per operation that
// the traced run also reports come from its untraced rounds, and the gap
// between the two kinds' throughput is the tracing overhead.

#pragma once

#include <functional>
#include <string>

#include "report.h"
#include "visibility.h"

namespace perfbench {

/// Raw samples behind one tail metric of one round.
struct TailSamples {
  double pct = 50;
  std::vector<double> samples;
};

struct RoundResult {
  std::uint64_t ops = 0;  ///< operations attempted in the round
  std::string error;      ///< the failed gate; empty when the round passed
  double window_s = 0;    ///< the measured window (ops_per_s's denominator)
  double cpu_s = 0;       ///< CPU of the system under test in the window
  Values values;          ///< host-independent metrics (counts, memory)
  Values timed;           ///< wall-clock costs in seconds or ms (scaled)
  Values cpu_timed;       ///< CPU costs in seconds (scaled by k_cpu)
  /// Latency samples of each percentile metric (see tail()).
  std::map<std::string, TailSamples> tails;
};

/// Reports the `pct` percentile of `samples` as metric `name`, aggregated
/// over rounds by run_tail().
void tail(RoundResult& round, const std::string& name, double pct,
          std::vector<double> samples);

/// One percentile metric over a run's rounds.  When every round supports
/// the percentile (at least ten samples beyond it), the median of the
/// rounds' percentiles; otherwise the percentile of all rounds' samples
/// pooled, or the highest one the pool supports (supported_tail()).  Adds a
/// note saying which rule applied.
[[nodiscard]] double run_tail(const std::string& name,
                              const std::vector<TailSamples>& rounds,
                              std::vector<std::string>& notes);

/// visible_p50_us / visible_p99_us, op_p50_us / op_p99_us from `op`
/// (nullptr: the caller reports its own op_*), and the per-layer latencies
/// and delay rate of the same log.
void add_event_metrics(const EventAnalysis& a, const std::vector<double>* op,
                       RoundResult& round);

using RoundFn = std::function<RoundResult(std::uint64_t seed, Tracer& tracer,
                                          int parent, bool traced)>;

/// What sets a workload's throughput.
enum class Pace {
  kCpuBound,  ///< the host's speed: ops_per_s is scaled like the times
  kPaced,     ///< the scripts' think time: ops_per_s is reported as measured
};

/// Runs rounds of `round_fn` until options.seconds is spent (at least one,
/// and at least one of each kind in a traced run), applies the gate, and
/// reports every metric by the rules above: ops_per_s is the median of
/// ops / window_s, cpu_us_per_op that of cpu_s / ops.
[[nodiscard]] RunReport run_rounds(const Options& options,
                                   const std::string& workload, Pace pace,
                                   const RoundFn& round_fn);

[[nodiscard]] inline double ratio(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

}  // namespace perfbench
