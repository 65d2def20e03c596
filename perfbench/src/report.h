// perfbench — shared pieces of the benchmark program: run options, the
// percentile rule, in-memory spans, resource probes and the result line.
//
// Every workload runs in rounds (set up, run, verify) until its time budget
// is spent, and reports one RunReport: the correctness tally plus the
// metrics, end-to-end ones in an untraced run (--trace 0) and per-layer ones
// in a traced run (--trace 1).

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (durable state dirs live here).
  std::string work_dir = ".bench_build/perfbench-work";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result line (sample counts,
  /// gate failures, the tail percentile actually supported).
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Record a failed correctness gate: the run is marked incorrect.
  void fail(std::string why) {
    correct = false;
    notes.push_back("GATE FAILED: " + std::move(why));
  }
};

// ---- statistics ------------------------------------------------------------

/// Nearest-rank percentile (pct in (0, 100]) of an ascending sample; 0 when
/// empty.
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted,
                                       double pct);

[[nodiscard]] double median(std::vector<double> samples);

/// Samples ranked strictly above the nearest-rank `pct` percentile.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double pct);

/// A tail percentile the sample supports: the highest of p99.99, p99.9, p99,
/// p90 and p50 that has at least ten samples beyond it, with the sample
/// count.  `pct` is 0 (and `value` the maximum) when even p50 is unsupported.
struct Tail {
  double pct = 0;
  double value = 0;
  std::size_t n = 0;
};
[[nodiscard]] Tail supported_tail(std::vector<double> samples);

// ---- spans -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// In-memory span log: name, start, end and parent, written by the
/// benchmark around each call into a layer.  Spans of one parent do not
/// overlap (the benchmark makes its calls one after another).
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;  ///< seconds since the tracer was created
    double end = 0;
    int parent = -1;
  };

  int begin(std::string name, int parent = -1);
  /// Closes span `id` and returns its duration in seconds.
  double end(int id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Drops every span from index `n` on (all of them closed).
  void truncate(std::size_t n) { spans_.resize(std::min(n, spans_.size())); }
  /// Summed self time by name: a span's duration minus its children's.
  [[nodiscard]] std::map<std::string, double> self_times() const;

 private:
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span; `stop()` (or destruction) closes it and returns its duration.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, int parent = -1)
      : tracer_(&tracer), id_(tracer.begin(std::move(name), parent)) {}
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  double stop() {
    if (!stopped_) {
      seconds_ = tracer_->end(id_);
      stopped_ = true;
    }
    return seconds_;
  }
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  int id_;
  double seconds_ = 0;
  bool stopped_ = false;
};

// ---- resource probes -------------------------------------------------------

struct Usage {
  double cpu_s = 0;              ///< user + system
  std::uint64_t vol_switches = 0;
};
/// getrusage of this process (RUSAGE_SELF) or the calling thread.
[[nodiscard]] Usage usage_self();
[[nodiscard]] Usage usage_thread();

/// This process's resident set right now (VmRSS).
[[nodiscard]] double rss_now_mb();

/// What /proc shows of one live process (all its threads).
struct ProcSample {
  double cpu_s = 0;              ///< schedstat run time
  std::uint64_t write_bytes = 0; ///< bytes sent to the storage layer
  std::uint64_t vol_switches = 0;
  double private_mb = 0;         ///< Private_Clean + Private_Dirty
  /// False when a file behind these numbers could not be read (no such
  /// process, or a kernel without it): the numbers are then too low.
  bool ok = false;
};
[[nodiscard]] ProcSample sample_proc(int pid);

/// Direct children of this process's main thread.
[[nodiscard]] std::vector<int> child_pids();

/// Wall time of a fixed loop of the benchmark's own (hashing into a map and
/// sorting; no optcm code), which tracks the host's speed.  Takes about
/// kReferenceLoopS on a 2.0 GHz Xeon vCPU with the host quiet.
[[nodiscard]] double reference_loop_s();
inline constexpr double kReferenceLoopS = 0.008;

/// Total size of the regular files under `dir`.
[[nodiscard]] std::uint64_t dir_bytes(const std::string& dir);

// ---- metric sets -----------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Reported by every untraced run, on every workload (BENCHMARK.json's
/// end_to_end list, in its order).
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// Reported by every traced run (BENCHMARK.json's per_layer list).
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

using Values = std::map<std::string, double>;

/// Appends the metric set of the run's mode to `report`, in spec order.  An
/// end-to-end metric missing from `values` fails the run; a missing
/// per-layer metric reads 0 (the layer does no work on this workload).
void emit(RunReport& report, const Values& values, bool trace);

/// The seed of round `round` of a run seeded with `seed`.
[[nodiscard]] std::uint64_t round_seed(std::uint64_t seed, std::size_t round);

// ---- output ----------------------------------------------------------------

/// The result line: {"correct":…,"attempted":…,"failed":…,"metrics":{…}}.
[[nodiscard]] std::string result_json(const RunReport& report);

}  // namespace perfbench
