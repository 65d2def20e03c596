#include "round_stats.h"

#include <algorithm>
#include <cstdio>
#include <string_view>

namespace perfbench {

void tail(RoundResult& round, const std::string& name, double pct,
          std::vector<double> samples) {
  round.tails[name] = {pct, std::move(samples)};
}

void add_event_metrics(const EventAnalysis& a, const std::vector<double>* op,
                       RoundResult& round) {
  tail(round, "visible_p50_us", 50, a.visible);
  tail(round, "visible_p99_us", 99, a.visible);
  if (op != nullptr) {
    tail(round, "op_p50_us", 50, *op);
    tail(round, "op_p99_us", 99, *op);
  }
  tail(round, "runtime.transit_p50_us", 50, a.transit);
  tail(round, "runtime.transit_p99_us", 99, a.transit);
  tail(round, "protocols.buffer_wait_p99_us", 99, a.buffer_wait);
  round.values["protocols.delayed_per_1k"] =
      1000.0 * ratio(a.delayed, a.receipts);
}

double run_tail(const std::string& name, const std::vector<TailSamples>& rounds,
                std::vector<std::string>& notes) {
  if (rounds.empty()) return 0;
  const double pct = rounds.front().pct;
  bool all_supported = true;
  std::size_t min_n = SIZE_MAX;
  std::size_t max_n = 0;
  std::vector<double> per_round;
  std::vector<double> pooled;
  for (const TailSamples& r : rounds) {
    std::vector<double> sorted = r.samples;
    std::sort(sorted.begin(), sorted.end());
    all_supported = all_supported && samples_beyond(sorted.size(), pct) >= 10;
    min_n = std::min(min_n, sorted.size());
    max_n = std::max(max_n, sorted.size());
    per_round.push_back(percentile_sorted(sorted, pct));
    pooled.insert(pooled.end(), sorted.begin(), sorted.end());
  }
  char buf[200];
  if (all_supported) {
    std::snprintf(buf, sizeof buf,
                  "%s: median over %zu rounds of each round's p%g "
                  "(n=%zu..%zu per round)",
                  name.c_str(), rounds.size(), pct, min_n, max_n);
    notes.emplace_back(buf);
    return median(per_round);
  }
  std::sort(pooled.begin(), pooled.end());
  const bool supported = samples_beyond(pooled.size(), pct) >= 10;
  const Tail t = supported_tail(pooled);
  std::snprintf(buf, sizeof buf, "%s: p%g of %zu rounds' samples pooled (n=%zu)",
                name.c_str(), supported ? pct : t.pct, rounds.size(),
                pooled.size());
  notes.emplace_back(buf);
  return supported ? percentile_sorted(pooled, pct) : t.value;
}

namespace {

/// Root span names: a traced round has RunTelemetry attached where the tier
/// accepts one.
constexpr std::string_view kRound = "round";
constexpr std::string_view kTracedRound = "round.traced";

/// How often the reference loop is timed, and how many times in a row (the
/// sample is their median).
constexpr double kReferenceEveryS = 0.5;
constexpr int kReferenceRepeats = 3;

/// One sample of the host's speed: the reference loop's median wall time
/// and median CPU time (this thread's) over kReferenceRepeats runs.
struct SpeedSample {
  double wall_s = 0;
  double cpu_s = 0;
};

SpeedSample speed_sample() {
  std::vector<double> wall, cpu;
  for (int i = 0; i < kReferenceRepeats; ++i) {
    const double cpu0 = usage_thread().cpu_s;
    wall.push_back(reference_loop_s());
    cpu.push_back(usage_thread().cpu_s - cpu0);
  }
  return {median(wall), median(cpu)};
}

/// trace.unaccounted_pct: the share of traced rounds' wall time that no
/// layer span covers (the round's own self time).  A small value shows the
/// per-layer self times account for the end-to-end time.
double unaccounted_pct(const Tracer& tracer) {
  double total = 0;
  for (const Tracer::Span& s : tracer.spans()) {
    if (s.name == kTracedRound) total += s.end - s.start;
  }
  const auto self = tracer.self_times();
  const auto it = self.find(std::string(kTracedRound));
  return total == 0 || it == self.end() ? 0.0 : 100.0 * it->second / total;
}

/// End-to-end quantities of the system under test, which a traced run
/// takes from its untraced rounds: names without a layer prefix.
bool from_untraced_rounds(const std::string& name) {
  return name.find('.') == std::string::npos;
}

}  // namespace

RunReport run_rounds(const Options& options, const std::string& workload,
                     Pace pace, const RoundFn& round_fn) {
  RunReport report;
  Tracer tracer;
  std::vector<double> rates[2];  // per-round ops/s: untraced, traced rounds
  std::vector<double> cpu_per_op, reference_wall_s, reference_cpu_s;
  std::map<std::string, std::vector<double>> values, timed, cpu_timed;
  std::map<std::string, std::vector<TailSamples>> tails;
  const auto t0 = Clock::now();
  auto last_reference = t0;
  std::size_t r = 0;
  for (; r == 0 || (options.trace && r < 2) ||
         seconds_since(t0) < options.seconds;
       ++r) {
    if (r == 0 || seconds_since(last_reference) >= kReferenceEveryS) {
      const SpeedSample speed = speed_sample();
      reference_wall_s.push_back(speed.wall_s);
      reference_cpu_s.push_back(speed.cpu_s);
      last_reference = Clock::now();
    }
    const bool traced = options.trace && r % 2 == 1;
    const std::size_t mark = tracer.spans().size();
    Scope round(tracer, std::string(traced ? kTracedRound : kRound));
    RoundResult s = round_fn(round_seed(options.seed, r), tracer, round.id(),
                             traced);
    round.stop();
    // Untraced rounds' spans are never read; holding them would grow the
    // resident memory that an untraced run reports.
    if (!traced) tracer.truncate(mark);
    report.attempted += s.ops;
    if (!s.error.empty()) {
      report.failed += s.ops;
      report.fail(workload + " round " + std::to_string(r) + ": " + s.error);
      continue;
    }
    if (s.window_s > 0) {
      rates[traced ? 1 : 0].push_back(static_cast<double>(s.ops) / s.window_s);
    }
    if (!traced && s.ops > 0) {
      cpu_per_op.push_back(s.cpu_s / static_cast<double>(s.ops) * 1e6);
    }
    // Only a traced run reports latencies (for the same reason, an untraced
    // run does not keep their samples).
    if (options.trace) {
      for (auto& [name, t] : s.tails) {
        if (from_untraced_rounds(name) != traced) {
          tails[name].push_back(std::move(t));
        }
      }
    }
    if (options.trace != traced) continue;
    for (const auto& [name, value] : s.values) values[name].push_back(value);
    for (const auto& [name, value] : s.timed) timed[name].push_back(value);
    for (const auto& [name, value] : s.cpu_timed) {
      cpu_timed[name].push_back(value);
    }
  }

  // k > 1: the host ran slower than the reference speed during this run.
  const double k = median(reference_wall_s) / kReferenceLoopS;
  const double k_cpu = median(reference_cpu_s) / kReferenceLoopS;
  const double rate_scale = pace == Pace::kCpuBound ? k : 1.0;
  Values v;
  for (const auto& [name, x] : values) v[name] = median(x);
  for (const auto& [name, x] : timed) v[name] = median(x) / k;
  for (const auto& [name, x] : cpu_timed) v[name] = median(x) / k_cpu;
  v["ops_per_s"] = median(rates[options.trace ? 1 : 0]) * rate_scale;
  v["cpu_us_per_op"] = median(cpu_per_op) / k_cpu;
  if (options.trace) {
    const double untraced = median(rates[0]);
    const double traced = median(rates[1]);
    v["telemetry.overhead_pct"] =
        untraced == 0 ? 0.0 : 100.0 * (untraced - traced) / untraced;
    v["trace.unaccounted_pct"] = unaccounted_pct(tracer);
  }
  for (const auto& [name, rounds] : tails) {
    v[name] = run_tail(name, rounds, report.notes);
  }

  char buf[300];
  std::snprintf(buf, sizeof buf,
                "host speed: reference loop median %.4g ms wall, %.4g ms CPU "
                "over %zu samples (reference %.4g ms): k=%.4f, k_cpu=%.4f; "
                "wall times divided by k, CPU times by k_cpu%s",
                median(reference_wall_s) * 1e3, median(reference_cpu_s) * 1e3,
                reference_wall_s.size(), kReferenceLoopS * 1e3, k, k_cpu,
                pace == Pace::kCpuBound ? ", ops_per_s multiplied by k"
                                        : "; ops_per_s is paced, as measured");
  report.notes.emplace_back(buf);
  const std::vector<double>& counted = rates[options.trace ? 1 : 0];
  const auto [lo, hi] = std::minmax_element(counted.begin(), counted.end());
  if (lo != counted.end()) {
    std::snprintf(buf, sizeof buf,
                  "%zu rounds; raw ops_per_s per counted round: min %.6g, "
                  "median %.6g, max %.6g; raw verify_s %.6g, raw setup_s %.6g",
                  r, *lo, median(counted), *hi,
                  median(timed.count("verify_s") != 0 ? timed["verify_s"]
                                                      : cpu_timed["verify_s"]),
                  median(timed.count("setup_s") != 0 ? timed["setup_s"]
                                                     : cpu_timed["setup_s"]));
    report.notes.emplace_back(buf);
  }
  emit(report, v, options.trace);
  return report;
}

}  // namespace perfbench
