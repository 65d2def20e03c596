// Tests for convergent causal memory (optp-conv): LWW arbitration of
// concurrent writes under a total order extending ↦co — replicas agree on
// every variable once quiescent, while causal consistency, safety and
// optimality are untouched.

#include <gtest/gtest.h>

#include "dsm/audit/auditor.h"
#include "dsm/history/checker.h"
#include "dsm/workload/generator.h"
#include "dsm/workload/sim_harness.h"
#include "param_print.h"
#include "test_util.h"

namespace dsm {
namespace {

using testutil::DirectCluster;

TEST(Convergent, CausallyOrderedWritesBehaveAsPlainOptP) {
  DirectCluster c(ProtocolKind::kOptPConv, 2, 1);
  c.write(0, 0, 1);
  c.deliver_all();
  (void)c.read(1, 0);
  c.write(1, 0, 2);  // causally after: must win everywhere
  c.deliver_all();
  EXPECT_EQ(c.node(0).peek(0).value, 2);
  EXPECT_EQ(c.node(1).peek(0).value, 2);
}

TEST(Convergent, ConcurrentWritesConvergeRegardlessOfArrivalOrder) {
  // Plain OptP: last applied wins per replica (they disagree; see
  // test_optp.cpp ConcurrentWritesLastApplyWinsPerReplica).  Convergent mode
  // must agree — and agree on the SAME winner under both arrival orders.
  Value winner_ab = 0, winner_ba = 0;
  {
    DirectCluster c(ProtocolKind::kOptPConv, 3, 1);
    c.write(0, 0, 100);
    c.write(1, 0, 200);
    ASSERT_TRUE(c.deliver_to(2, 0));  // p1's first
    ASSERT_TRUE(c.deliver_to(2, 1));
    winner_ab = c.node(2).peek(0).value;
    c.deliver_all();
  }
  {
    DirectCluster c(ProtocolKind::kOptPConv, 3, 1);
    c.write(0, 0, 100);
    c.write(1, 0, 200);
    ASSERT_TRUE(c.deliver_to(2, 1));  // p2's first
    ASSERT_TRUE(c.deliver_to(2, 0));
    winner_ba = c.node(2).peek(0).value;
    c.deliver_all();
  }
  EXPECT_EQ(winner_ab, winner_ba);
  // Both writes have clock-sum 1; the tie breaks to the higher writer id.
  EXPECT_EQ(winner_ab, 200);
}

TEST(Convergent, AllReplicasAgreeAfterFullDelivery) {
  DirectCluster c(ProtocolKind::kOptPConv, 4, 1);
  for (ProcessId p = 0; p < 4; ++p) c.write(p, 0, 100 + p);
  c.deliver_all();
  const Value v0 = c.node(0).peek(0).value;
  for (ProcessId p = 1; p < 4; ++p) {
    EXPECT_EQ(c.node(p).peek(0).value, v0) << "replica " << p;
  }
}

TEST(Convergent, OwnWriteCanLoseToAppliedConcurrentWinner) {
  DirectCluster c(ProtocolKind::kOptPConv, 2, 2);
  // p2 builds a heavier clock (two writes on x2) then writes x1.
  c.write(1, 1, 1);
  c.write(1, 1, 2);
  c.write(1, 0, 50);  // clock-sum 3 on x1
  ASSERT_TRUE(c.deliver_to(0, 1));
  ASSERT_TRUE(c.deliver_to(0, 1));
  ASSERT_TRUE(c.deliver_to(0, 1));  // p1 applied p2's x1=50 (sum 3)
  c.write(0, 0, 60);  // p1's own write: sum 1 — loses to the applied winner
  EXPECT_EQ(c.node(0).peek(0).value, 50);
  c.deliver_all();
  EXPECT_EQ(c.node(1).peek(0).value, 50);  // p2 agrees
}

TEST(Convergent, ReadsMergeTheWinnersVector) {
  // After arbitration suppresses a loser, a read must merge the WINNER's
  // Write_co (the value actually returned), not the loser's.
  DirectCluster c(ProtocolKind::kOptPConv, 3, 2);
  c.write(1, 1, 1);     // bump p2's clock
  c.deliver_all();
  (void)c.read(1, 1);
  c.write(1, 0, 50);    // sum 2 — the winner on x1
  c.write(0, 0, 60);    // sum 1 — the loser (concurrent)
  c.deliver_all();
  EXPECT_EQ(c.node(2).peek(0).value, 50);
  const auto r = c.read(2, 0);
  EXPECT_EQ(r.writer, (WriteId{1, 2}));
  // p3's next write must causally follow the winner.
  c.write(2, 1, 9);
  const auto send = c.recorder().find(EvKind::kSend, 2, WriteId{2, 1});
  ASSERT_TRUE(send.has_value());
  EXPECT_GE(send->clock[1], 2u);  // counts p2's two writes
}

struct ConvParams {
  std::uint64_t seed;
  AccessPattern pattern;
};

void PrintTo(const ConvParams& p, std::ostream* os) {
  testutil::print_member_bytes(p, os, &ConvParams::seed, &ConvParams::pattern);
}

class ConvergentSweep : public ::testing::TestWithParam<ConvParams> {};

TEST_P(ConvergentSweep, ConvergesAndKeepsEveryPaperProperty) {
  const auto [seed, pattern] = GetParam();
  WorkloadSpec spec;
  spec.n_procs = 5;
  spec.n_vars = 4;
  spec.ops_per_proc = 50;
  spec.write_fraction = 0.6;
  spec.pattern = pattern;
  spec.seed = seed;
  const auto latency =
      make_latency(LatencyKind::kLogNormal, sim_us(400), 1.5, seed ^ 0xCC);
  SimRunConfig cfg;
  cfg.kind = ProtocolKind::kOptPConv;
  cfg.n_procs = 5;
  cfg.n_vars = 4;
  cfg.latency = latency.get();
  const auto result = run_sim(cfg, generate_workload(spec));
  ASSERT_TRUE(result.settled);

  // Paper properties survive the strengthening.
  EXPECT_TRUE(
      ConsistencyChecker::check(result.recorder->history()).consistent());
  const auto audit = OptimalityAuditor::audit(*result.recorder);
  EXPECT_TRUE(audit.safe());
  EXPECT_TRUE(audit.live());
  EXPECT_EQ(audit.total_unnecessary(), 0u);  // arbitration ≠ extra waiting
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConvergentSweep,
    ::testing::Values(ConvParams{1, AccessPattern::kUniform},
                      ConvParams{2, AccessPattern::kHotspot},
                      ConvParams{3, AccessPattern::kPartitioned},
                      ConvParams{4, AccessPattern::kZipf}),
    [](const ::testing::TestParamInfo<ConvParams>& pi) {
      return std::string(to_string(pi.param.pattern)) + "_s" +
             std::to_string(pi.param.seed);
    });

TEST(Convergent, SimulatedReplicasConvergeEverywhere) {
  // Stronger end-to-end check: after a settled run, read every variable at
  // every replica — all must agree (plain causal memory cannot promise
  // this; the convergent variant must).
  WorkloadSpec spec;
  spec.n_procs = 4;
  spec.n_vars = 3;
  spec.ops_per_proc = 60;
  spec.write_fraction = 0.7;
  spec.seed = 21;
  const auto latency =
      make_latency(LatencyKind::kExponential, sim_us(500), 2.0, 0x21);
  SimRunConfig cfg;
  cfg.kind = ProtocolKind::kOptPConv;
  cfg.n_procs = 4;
  cfg.n_vars = 3;
  cfg.latency = latency.get();

  // Append one read per variable per process at the very end of each script
  // so the recorded history itself witnesses the convergence.
  auto scripts = generate_workload(spec);
  for (auto& script : scripts) {
    for (VarId x = 0; x < 3; ++x) {
      script.push_back(read_step(sim_ms(400), x));  // after settling
    }
  }
  const auto result = run_sim(cfg, scripts);
  ASSERT_TRUE(result.settled);

  const GlobalHistory& h = result.recorder->history();
  for (VarId x = 0; x < 3; ++x) {
    WriteId seen = kNoWrite;
    bool first = true;
    for (ProcessId p = 0; p < 4; ++p) {
      // Last read of x in p's local history.
      WriteId mine = kNoWrite;
      for (const OpRef r : h.local(p)) {
        const Operation& op = h.op(r);
        if (op.is_read() && op.var == x) mine = op.write_id;
      }
      if (first) {
        seen = mine;
        first = false;
      } else {
        EXPECT_EQ(mine, seen) << "replica " << p << " diverged on x" << x + 1;
      }
    }
  }
}

}  // namespace
}  // namespace dsm
