// The grand property sweep: every protocol × latency model × access pattern
// × seed, validated against the paper's claims on randomized workloads.
//
// For each configuration the same workload is executed under all five
// protocols over identical message-arrival patterns (latency draws are keyed
// per channel-index, see latency.h), and we assert:
//
//   1. CONSISTENCY  — the recorded history is causally consistent
//                     (independent checker, Definitions 1–2);
//   2. SAFETY       — per-replica apply order extends ↦co (Theorem 3 for
//                     OptP; [1] for ANBKH; construction for the others);
//   3. LIVENESS     — every write is applied (or legally skipped) at every
//                     process (Theorem 5);
//   4. OPTIMALITY   — OptP and OptP-WS never suffer an unnecessary delay
//                     (Theorem 4); and OptP's total delay count never
//                     exceeds ANBKH's on the identical arrival pattern;
//   5. CHARACTERIZATION — Write_co characterizes ↦co: for every pair of
//                     writes, w ↦co w' ⇔ Write_co(w) < Write_co(w') and
//                     w ‖co w' ⇔ Write_co(w) ‖ Write_co(w')
//                     (Theorems 1–2, Corollaries 1–2).

#include <gtest/gtest.h>

#include "dsm/audit/auditor.h"
#include "dsm/history/checker.h"
#include "dsm/workload/generator.h"
#include "dsm/workload/sim_harness.h"
#include "param_print.h"

namespace dsm {
namespace {

struct SweepParams {
  LatencyKind latency;
  AccessPattern pattern;
  std::uint64_t seed;
};

void PrintTo(const SweepParams& p, std::ostream* os) {
  testutil::print_member_bytes(p, os, &SweepParams::latency,
                               &SweepParams::pattern, &SweepParams::seed);
}

std::string param_name(const ::testing::TestParamInfo<SweepParams>& info) {
  return std::string(to_string(info.param.latency)) + "_" +
         to_string(info.param.pattern) + "_s" +
         std::to_string(info.param.seed);
}

class ProtocolSweep : public ::testing::TestWithParam<SweepParams> {
 protected:
  static constexpr std::size_t kProcs = 5;
  static constexpr std::size_t kVars = 6;
  static constexpr std::size_t kOps = 40;

  SimRunResult run(ProtocolKind kind) {
    const SweepParams& p = GetParam();
    WorkloadSpec spec;
    spec.n_procs = kProcs;
    spec.n_vars = kVars;
    spec.ops_per_proc = kOps;
    spec.write_fraction = 0.5;
    spec.pattern = p.pattern;
    spec.mean_gap = sim_us(300);
    spec.seed = p.seed;

    latency_ = make_latency(p.latency, sim_us(400), 1.5, p.seed ^ 0xFEED);
    SimRunConfig cfg;
    cfg.kind = kind;
    cfg.n_procs = kProcs;
    cfg.n_vars = kVars;
    cfg.latency = latency_.get();
    return run_sim(cfg, generate_workload(spec));
  }

  std::unique_ptr<LatencyModel> latency_;
};

TEST_P(ProtocolSweep, AllProtocolsProduceCausallyConsistentHistories) {
  for (const auto kind : all_protocol_kinds()) {
    const auto result = run(kind);
    ASSERT_TRUE(result.settled) << to_string(kind);
    const auto check = ConsistencyChecker::check(result.recorder->history());
    EXPECT_TRUE(check.consistent())
        << to_string(kind) << ": " << check.violations.size()
        << " violations, first: "
        << (check.violations.empty() ? "" : check.violations[0].detail);
  }
}

TEST_P(ProtocolSweep, VectorProtocolsAreSafeAndLive) {
  // Token runs have no receipt events (batches, not write messages), so the
  // auditor's Def-3 classification applies to the vector protocols only;
  // safety and liveness hold for all of them.
  for (const auto kind :
       {ProtocolKind::kOptP, ProtocolKind::kAnbkh, ProtocolKind::kOptPWs,
        ProtocolKind::kAnbkhWs, ProtocolKind::kTokenWs}) {
    const auto result = run(kind);
    ASSERT_TRUE(result.settled) << to_string(kind);
    const auto audit = OptimalityAuditor::audit(*result.recorder);
    EXPECT_TRUE(audit.safe()) << to_string(kind) << ": "
                              << (audit.safety_violations.empty()
                                      ? ""
                                      : audit.safety_violations[0]);
    EXPECT_TRUE(audit.live()) << to_string(kind) << ": "
                              << audit.liveness_violations.size()
                              << " writes missing";
  }
}

TEST_P(ProtocolSweep, OptPIsWriteDelayOptimal_Theorem4) {
  for (const auto kind : {ProtocolKind::kOptP, ProtocolKind::kOptPWs}) {
    const auto result = run(kind);
    ASSERT_TRUE(result.settled);
    const auto audit = OptimalityAuditor::audit(*result.recorder);
    EXPECT_EQ(audit.total_unnecessary(), 0u) << to_string(kind);
    EXPECT_TRUE(audit.write_delay_optimal()) << to_string(kind);
  }
}

TEST_P(ProtocolSweep, OptPNeverDelaysMoreThanAnbkh) {
  const auto optp = run(ProtocolKind::kOptP);
  const auto anbkh = run(ProtocolKind::kAnbkh);
  ASSERT_TRUE(optp.settled && anbkh.settled);
  // Identical arrival patterns (same per-channel-index latency draws), so
  // X_OptP ⊆ X_ANBKH per apply: OptP can only delay a subset.
  EXPECT_LE(optp.total_delayed(), anbkh.total_delayed());
  // ANBKH delays cascade (a falsely-delayed write postpones downstream
  // applies, turning later receipts into genuine waits), so its *necessary*
  // count can only match or exceed OptP's — never undercut it.
  const auto audit = OptimalityAuditor::audit(*anbkh.recorder);
  EXPECT_GE(audit.total_necessary(),
            OptimalityAuditor::audit(*optp.recorder).total_necessary());
}

TEST_P(ProtocolSweep, WriteCoCharacterizesCo_Theorems1and2) {
  const auto result = run(ProtocolKind::kOptP);
  ASSERT_TRUE(result.settled);
  const GlobalHistory& h = result.recorder->history();
  const auto co = CoRelation::build(h);
  ASSERT_TRUE(co.has_value());

  // Collect each write's Write_co from its send event.
  std::unordered_map<WriteId, VectorClock> send_clock;
  for (const auto& e : result.recorder->events()) {
    if (e.kind == EvKind::kSend) send_clock.emplace(e.write, e.clock);
  }

  const auto writes = h.writes();
  for (const OpRef a : writes) {
    for (const OpRef b : writes) {
      if (a == b) continue;
      const WriteId wa = h.op(a).write_id;
      const WriteId wb = h.op(b).write_id;
      const VectorClock& ca = send_clock.at(wa);
      const VectorClock& cb = send_clock.at(wb);
      const bool co_rel = co->precedes(a, b);
      // Theorem 1 (both directions).
      EXPECT_EQ(co_rel, ca.less(cb))
          << to_string(wa) << " vs " << to_string(wb) << ": " << ca.str()
          << " " << cb.str();
      // Theorem 2.
      EXPECT_EQ(co->concurrent(a, b), ca.concurrent(cb));
      // Corollary 1: w_a ↦co w_b ⇔ Write_co(w_a)[a.proc] ≤ Write_co(w_b)[a.proc].
      if (co_rel) {
        EXPECT_LE(ca[wa.proc], cb[wa.proc]);
      }
      // Corollary 2 (both conjuncts) for concurrent pairs.
      if (co->concurrent(a, b)) {
        EXPECT_LT(cb[wa.proc], ca[wa.proc]);
        EXPECT_LT(ca[wb.proc], cb[wb.proc]);
      }
    }
  }
}

TEST_P(ProtocolSweep, WritingSemanticsNeverIncreasesDelays) {
  const auto plain = run(ProtocolKind::kOptP);
  const auto ws = run(ProtocolKind::kOptPWs);
  ASSERT_TRUE(plain.settled && ws.settled);
  EXPECT_LE(ws.total_delayed(), plain.total_delayed());
  // Accounting identity: every remote write is applied, skipped, or still
  // pending (none, since settled): applies + skips = writes × (n − 1).
  const std::uint64_t writes = ws.recorder->history().writes().size();
  EXPECT_EQ(ws.total_applies() + ws.total_skipped(), writes * (kProcs - 1));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProtocolSweep,
    ::testing::Values(
        SweepParams{LatencyKind::kConstant, AccessPattern::kUniform, 1},
        SweepParams{LatencyKind::kUniform, AccessPattern::kUniform, 2},
        SweepParams{LatencyKind::kUniform, AccessPattern::kZipf, 3},
        SweepParams{LatencyKind::kUniform, AccessPattern::kPartitioned, 4},
        SweepParams{LatencyKind::kUniform, AccessPattern::kHotspot, 5},
        SweepParams{LatencyKind::kExponential, AccessPattern::kUniform, 6},
        SweepParams{LatencyKind::kExponential, AccessPattern::kPartitioned, 7},
        SweepParams{LatencyKind::kLogNormal, AccessPattern::kUniform, 8},
        SweepParams{LatencyKind::kLogNormal, AccessPattern::kZipf, 9},
        SweepParams{LatencyKind::kLogNormal, AccessPattern::kHotspot, 10},
        SweepParams{LatencyKind::kExponential, AccessPattern::kZipf, 11},
        SweepParams{LatencyKind::kLogNormal, AccessPattern::kPartitioned, 12}),
    param_name);

}  // namespace
}  // namespace dsm
