// Tests for the benchmark's own code: the percentile rule, the round rule
// (medians, scaling to the reference speed), latencies read off a
// hand-built event log, and the determinism of sim-lossy's counts.
//
//   python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <numeric>
#include <thread>

#include "report.h"
#include "round_stats.h"
#include "visibility.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(PercentileRule, P99NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(999, 99), 9u);
  const Tail t = supported_tail(one_to(1000));
  EXPECT_EQ(t.pct, 99.0);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.n, 1000u);
}

TEST(PercentileRule, FallsBackToTheHighestSupportedPercentile) {
  const Tail t = supported_tail(one_to(999));
  EXPECT_EQ(t.pct, 90.0);
  EXPECT_EQ(t.value, 900.0);
  EXPECT_EQ(t.n, 999u);

  const Tail tiny = supported_tail(one_to(20));
  EXPECT_EQ(tiny.pct, 50.0);
  EXPECT_EQ(tiny.value, 10.0);

  const Tail none = supported_tail(one_to(10));
  EXPECT_EQ(none.pct, 0.0);
  EXPECT_EQ(none.value, 10.0);  // the maximum
  EXPECT_EQ(none.n, 10u);
}

TEST(PercentileRule, MedianAndNearestRank) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(percentile_sorted({10, 20, 30, 40}, 50), 20.0);
  EXPECT_EQ(percentile_sorted({10, 20, 30, 40}, 100), 40.0);
}

/// A round that reports every end-to-end metric, with `n` latency samples
/// 1..n behind each tail metric.
RoundResult fake_round(std::size_t n) {
  RoundResult r;
  r.ops = 100;
  r.window_s = 0.5;
  for (const MetricSpec& m : end_to_end_metrics()) r.values[m.name] = 1;
  tail(r, "visible_p50_us", 50, one_to(n));
  tail(r, "visible_p99_us", 99, one_to(n));
  return r;
}

double metric(const RunReport& report, const std::string& name) {
  for (const Metric& m : report.metrics) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "no metric " << name;
  return 0;
}

/// A host-speed factor ("k" or "k_cpu") the run printed in its notes.
double host_factor(const RunReport& report, const std::string& name) {
  const std::string key = " " + name + "=";
  for (const std::string& note : report.notes) {
    const auto pos = note.find(key);
    if (pos != std::string::npos) return std::stod(note.substr(pos + key.size()));
  }
  ADD_FAILURE() << "no host speed note";
  return 1;
}

TailSamples samples(double pct, std::size_t n) { return {pct, one_to(n)}; }

bool has_note(const std::vector<std::string>& notes, const std::string& note) {
  return std::find(notes.begin(), notes.end(), note) != notes.end();
}

TEST(PercentileRule, RoundsThatSupportTheTailReportTheirMedian) {
  std::vector<std::string> notes;
  // Per-round p99: 1980, 2970, 3960; their median is the middle one.
  EXPECT_EQ(run_tail("visible_p99_us",
                     {samples(99, 2000), samples(99, 3000), samples(99, 4000)},
                     notes),
            2970.0);
  EXPECT_TRUE(has_note(notes,
                       "visible_p99_us: median over 3 rounds of each round's "
                       "p99 (n=2000..4000 per round)"));
}

TEST(PercentileRule, OneSmallRoundMakesTheRunPoolEveryRound) {
  std::vector<std::string> notes;
  // 600 samples leave only six beyond p99, so all 3600 are pooled.
  EXPECT_EQ(run_tail("visible_p99_us", {samples(99, 3000), samples(99, 600)},
                     notes),
            [] {
              std::vector<double> pooled = one_to(3000);
              const std::vector<double> small = one_to(600);
              pooled.insert(pooled.end(), small.begin(), small.end());
              std::sort(pooled.begin(), pooled.end());
              return percentile_sorted(pooled, 99);
            }());
  EXPECT_TRUE(has_note(
      notes, "visible_p99_us: p99 of 2 rounds' samples pooled (n=3600)"));
}

TEST(PercentileRule, APoolTooSmallForTheTailReportsTheHighestItSupports) {
  std::vector<std::string> notes;
  // 2 × 400 samples: p99 has 8 beyond it, so p90 of the pool is reported.
  EXPECT_EQ(run_tail("op_p99_us", {samples(99, 400), samples(99, 400)}, notes),
            360.0);
  EXPECT_TRUE(has_note(notes, "op_p99_us: p90 of 2 rounds' samples pooled (n=800)"));
  EXPECT_EQ(run_tail("op_p50_us", {samples(50, 400), samples(50, 400)}, notes),
            200.0);  // every round supports p50: median of 200 and 200
}

TEST(RoundRule, ValuesAreMediansAndTimesAreScaledToTheReferenceSpeed) {
  Options options;
  options.seconds = 1;
  std::size_t rounds = 0;
  const RunReport report = run_rounds(
      options, "fake", Pace::kCpuBound, [&](std::uint64_t, Tracer&, int, bool) {
        ++rounds;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        RoundResult r = fake_round(2000);
        r.values["rss_mb"] = rounds % 3 == 0 ? 10 : 20;
        r.timed["verify_s"] = rounds % 3 == 0 ? 1 : 2;
        r.cpu_timed["setup_s"] = 0.5;
        return r;
      });
  ASSERT_GE(rounds, 3u);
  EXPECT_TRUE(report.correct);
  EXPECT_EQ(report.attempted, 100 * rounds);
  EXPECT_EQ(report.failed, 0u);
  const double k = host_factor(report, "k");
  const double k_cpu = host_factor(report, "k_cpu");
  EXPECT_GT(k, 0.0);
  EXPECT_GT(k_cpu, 0.0);
  // Two rounds in three report 20 MB and 2 s, so the medians do too; wall
  // times are divided by k, CPU times by k_cpu, and the CPU-bound
  // throughput is multiplied by k.
  EXPECT_EQ(metric(report, "rss_mb"), 20.0);
  EXPECT_NEAR(metric(report, "verify_s"), 2.0 / k, 1e-3);
  EXPECT_NEAR(metric(report, "setup_s"), 0.5 / k_cpu, 1e-3);
  EXPECT_NEAR(metric(report, "ops_per_s"), 200.0 * k, 0.5);
}

TEST(RoundRule, PacedThroughputIsReportedAsMeasured) {
  Options options;
  options.seconds = 0;
  const RunReport report = run_rounds(
      options, "fake", Pace::kPaced,
      [](std::uint64_t, Tracer&, int, bool) { return fake_round(100); });
  EXPECT_EQ(metric(report, "ops_per_s"), 200.0);
}

TEST(RoundRule, TracedRunTakesLatenciesFromItsUntracedRounds) {
  Options options;
  options.seconds = 0.05;
  options.trace = true;
  const RunReport report = run_rounds(
      options, "fake", Pace::kCpuBound,
      [](std::uint64_t, Tracer&, int, bool traced) {
        RoundResult r = fake_round(traced ? 4000 : 2000);
        tail(r, "runtime.transit_p99_us", 99, one_to(traced ? 4000 : 2000));
        return r;
      });
  EXPECT_EQ(metric(report, "visible_p99_us"), 1980.0);
  EXPECT_EQ(metric(report, "runtime.transit_p99_us"), 3960.0);
}

TEST(Probes, ReferenceLoopIsSteady) {
  std::vector<double> loops;
  for (int i = 0; i < 5; ++i) loops.push_back(reference_loop_s());
  std::sort(loops.begin(), loops.end());
  EXPECT_GT(loops.front(), 0.0);
  EXPECT_LT(loops[1], 1.5 * loops[0]);
}

TEST(Probes, SampleProcReadsALiveProcess) {
  volatile double sink = 0;
  for (int i = 0; i < 1'000'000; ++i) sink = sink + i;
  const ProcSample s = sample_proc(static_cast<int>(::getpid()));
  EXPECT_TRUE(s.ok);
  EXPECT_GT(s.cpu_s, 0.0);
  EXPECT_GT(s.private_mb, 0.0);
  EXPECT_FALSE(sample_proc(-1).ok);
}

TEST(Gate, FailedRoundCountsItsOperationsAsFailed) {
  Options options;
  options.seconds = 0;
  const RunReport report = run_rounds(
      options, "fake", Pace::kCpuBound, [](std::uint64_t, Tracer&, int, bool) {
        RoundResult r = fake_round(100);
        r.ops = 42;
        r.error = "inconsistent history";
        return r;
      });
  EXPECT_FALSE(report.correct);
  EXPECT_EQ(report.attempted, 42u);
  EXPECT_EQ(report.failed, 42u);
}

dsm::RunEvent ev(dsm::EvKind kind, dsm::ProcessId at, dsm::WriteId w,
                 std::uint64_t time, bool delayed = false) {
  dsm::RunEvent e;
  e.kind = kind;
  e.at = at;
  e.write = w;
  e.time = time;
  e.delayed = delayed;
  return e;
}

TEST(Visibility, HandBuiltLog) {
  using K = dsm::EvKind;
  const dsm::WriteId a{0, 1};
  const dsm::WriteId b{1, 1};
  const std::vector<dsm::RunEvent> log = {
      ev(K::kSend, 0, a, 10),     ev(K::kApply, 0, a, 10),
      ev(K::kReceipt, 1, a, 15),  ev(K::kApply, 1, a, 15),
      ev(K::kReceipt, 2, a, 20),  ev(K::kApply, 2, a, 30, /*delayed=*/true),
      ev(K::kSend, 1, b, 40),     ev(K::kReceipt, 0, b, 45),
      ev(K::kApply, 0, b, 46),    // never reaches process 2
  };
  const EventAnalysis r = analyze_events(log, 3, 1.0);
  EXPECT_EQ(r.writes, 2u);
  EXPECT_EQ(r.incomplete, 1u);
  EXPECT_EQ(r.visible, (std::vector<double>{20}));
  EXPECT_EQ(r.mean_remote, (std::vector<double>{12.5}));
  EXPECT_EQ(r.transit, (std::vector<double>{5, 10, 5}));
  EXPECT_EQ(r.buffer_wait, (std::vector<double>{10}));
  EXPECT_EQ(r.receipts, 3u);
  EXPECT_EQ(r.delayed, 1u);
}

TEST(Visibility, NanosecondClockAndSkips) {
  using K = dsm::EvKind;
  const dsm::WriteId a{1, 1};
  const std::vector<dsm::RunEvent> log = {
      ev(K::kSend, 1, a, 1'000), ev(K::kReceipt, 0, a, 3'000),
      ev(K::kSkip, 0, a, 4'000),
  };
  const EventAnalysis r = analyze_events(log, 2, 1000.0);
  EXPECT_EQ(r.incomplete, 0u);
  EXPECT_EQ(r.visible, (std::vector<double>{3}));
  EXPECT_EQ(r.transit, (std::vector<double>{2}));
}

TEST(Visibility, AlignsPerProcessClocksFromTheLog) {
  // Process 0's clock reads true time + 1000, process 1's true time + 500;
  // every message takes 10 µs in both directions.
  using K = dsm::EvKind;
  const dsm::WriteId a{0, 1};
  const dsm::WriteId b{1, 1};
  const std::vector<dsm::RunEvent> log = {
      ev(K::kSend, 0, a, 1'100), ev(K::kReceipt, 1, a, 610),
      ev(K::kApply, 1, a, 630),  ev(K::kSend, 1, b, 700),
      ev(K::kReceipt, 0, b, 1'210), ev(K::kApply, 0, b, 1'210),
  };
  const EventAnalysis raw = analyze_events(log, 2, 1.0);
  EXPECT_NE(raw.visible[0], 30.0);
  const EventAnalysis r = analyze_events(log, 2, 1.0, /*align=*/true);
  EXPECT_EQ(r.offsets_us, (std::vector<double>{0, 500}));
  EXPECT_EQ(r.transit, (std::vector<double>{10, 10}));
  EXPECT_EQ(r.visible, (std::vector<double>{30, 10}));
}

TEST(Tracer, SelfTimeSubtractsChildren) {
  Tracer t;
  const int root = t.begin("round");
  const int child = t.begin("layer", root);
  t.end(child);
  t.end(root);
  const auto self = t.self_times();
  const auto& spans = t.spans();
  const double root_d = spans[0].end - spans[0].start;
  const double child_d = spans[1].end - spans[1].start;
  EXPECT_DOUBLE_EQ(self.at("round"), root_d - child_d);
  EXPECT_DOUBLE_EQ(self.at("layer"), child_d);
}

/// The counts sim-lossy reports that do not depend on the wall clock.
struct SimCounts {
  std::uint64_t ops, delayed, messages, bytes, data_sent, retransmissions,
      duplicates, events;
  std::vector<double> visible, mean_remote;

  friend bool operator==(const SimCounts&, const SimCounts&) = default;
};

SimCounts sim_counts(std::uint64_t seed) {
  Tracer tracer;
  const SimRound s = sim_lossy_round(seed, 25, tracer, -1, nullptr);
  EXPECT_TRUE(s.passed());
  return {s.ops,
          s.protocol.delayed_writes,
          s.net.messages_sent,
          s.net.bytes_sent,
          s.arq.data_sent,
          s.arq.retransmissions,
          s.arq.duplicates_suppressed,
          s.events,
          s.events_seen.visible,
          s.events_seen.mean_remote};
}

TEST(SimLossy, CountsRepeatExactlyForOneSeedAndChangeWithAnother) {
  const SimCounts a = sim_counts(7);
  const SimCounts again = sim_counts(7);
  const SimCounts other = sim_counts(8);
  EXPECT_GT(a.delayed, 0u);
  EXPECT_GT(a.retransmissions, 0u);
  EXPECT_EQ(a.ops, 16u * 25u);
  EXPECT_TRUE(a == again);
  EXPECT_NE(a.delayed, other.delayed);
  EXPECT_NE(a.messages, other.messages);
  EXPECT_NE(a.bytes, other.bytes);
  EXPECT_NE(a.retransmissions, other.retransmissions);
  EXPECT_NE(a.visible, other.visible);
}

TEST(SimLossy, TracedRoundHasTheSameCounts) {
  Tracer tracer;
  dsm::RunTelemetry telemetry(16);
  const SimRound traced = sim_lossy_round(7, 25, tracer, -1, &telemetry);
  const SimRound plain = sim_lossy_round(7, 25, tracer, -1, nullptr);
  EXPECT_EQ(traced.net.messages_sent, plain.net.messages_sent);
  EXPECT_EQ(traced.protocol.delayed_writes, plain.protocol.delayed_writes);
  EXPECT_EQ(traced.events_seen.visible, plain.events_seen.visible);
}

}  // namespace
}  // namespace perfbench
