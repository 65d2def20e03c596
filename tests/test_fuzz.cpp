// Adversarial delivery-order fuzzing.
//
// The latency models explore "plausible" arrival orders; this suite explores
// *arbitrary* ones: a seeded scheduler interleaves operation issuance with
// message deliveries picked uniformly from everything in flight, including
// pathological orders no latency assignment would produce (e.g. the last
// broadcast of a long chain delivered first everywhere).  After every run:
// the history is causally consistent, applies extend ↦co, everything is
// live once drained, and OptP never suffers an unnecessary delay.

#include <gtest/gtest.h>

#include "dsm/audit/auditor.h"
#include "dsm/common/rng.h"
#include "dsm/history/checker.h"
#include "param_print.h"
#include "test_util.h"

namespace dsm {
namespace {

using testutil::DirectCluster;

struct FuzzParams {
  ProtocolKind kind;
  std::uint64_t seed;
};

void PrintTo(const FuzzParams& p, std::ostream* os) {
  testutil::print_member_bytes(p, os, &FuzzParams::kind, &FuzzParams::seed);
}

class DeliveryFuzz : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(DeliveryFuzz, RandomInterleavingsPreserveAllInvariants) {
  const auto [kind, base_seed] = GetParam();
  constexpr std::size_t kProcs = 4;
  constexpr std::size_t kVars = 3;
  constexpr int kRunsPerSeed = 20;
  constexpr int kOpsPerRun = 60;

  for (int run = 0; run < kRunsPerSeed; ++run) {
    Rng rng(base_seed * 1000003 + static_cast<std::uint64_t>(run));
    ProtocolConfig config;
    config.token_max_rounds = 10'000;
    DirectCluster c(kind, kProcs, kVars, config);

    Value next_value = 1;
    for (int step = 0; step < kOpsPerRun; ++step) {
      // 50/50: issue an operation somewhere, or deliver something in flight.
      if (c.in_flight() == 0 || rng.chance(0.5)) {
        const auto p = static_cast<ProcessId>(rng.below(kProcs));
        const auto x = static_cast<VarId>(rng.below(kVars));
        if (rng.chance(0.6)) {
          c.write(p, x, next_value++);
        } else {
          (void)c.read(p, x);
        }
      } else {
        // Deliver a uniformly random in-flight message (arbitrary order!).
        c.deliver(rng.below(c.in_flight()));
      }
    }
    c.deliver_all();  // drain

    const auto check = ConsistencyChecker::check(c.recorder().history());
    ASSERT_TRUE(check.consistent())
        << to_string(kind) << " run " << run << ": "
        << (check.violations.empty() ? "" : check.violations[0].detail);

    const auto audit = OptimalityAuditor::audit(c.recorder());
    ASSERT_TRUE(audit.safe()) << to_string(kind) << " run " << run << ": "
                              << (audit.safety_violations.empty()
                                      ? ""
                                      : audit.safety_violations[0]);
    ASSERT_TRUE(audit.live()) << to_string(kind) << " run " << run;
    if (kind == ProtocolKind::kOptP || kind == ProtocolKind::kOptPWs) {
      ASSERT_EQ(audit.total_unnecessary(), 0u)
          << to_string(kind) << " run " << run << " (Theorem 4)";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DeliveryFuzz,
    ::testing::Values(FuzzParams{ProtocolKind::kOptP, 1},
                      FuzzParams{ProtocolKind::kOptP, 2},
                      FuzzParams{ProtocolKind::kOptP, 3},
                      FuzzParams{ProtocolKind::kAnbkh, 4},
                      FuzzParams{ProtocolKind::kAnbkh, 5},
                      FuzzParams{ProtocolKind::kOptPWs, 6},
                      FuzzParams{ProtocolKind::kOptPWs, 7},
                      FuzzParams{ProtocolKind::kAnbkhWs, 8},
                      FuzzParams{ProtocolKind::kTokenWs, 9}),
    [](const ::testing::TestParamInfo<FuzzParams>& param_info) {
      std::string name = to_string(param_info.param.kind);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + "_s" + std::to_string(param_info.param.seed);
    });

// A hand-picked adversarial order: every message of a long causal chain
// delivered in exact reverse — maximal buffering, then a cascade.
TEST(DeliveryAdversarial, FullChainReversedCascades) {
  DirectCluster c(ProtocolKind::kOptP, 2, 1);
  constexpr int kChain = 30;
  for (int i = 0; i < kChain; ++i) c.write(0, 0, i);
  auto held = c.intercept_to(1);
  ASSERT_EQ(held.size(), static_cast<std::size_t>(kChain));
  for (auto it = held.rbegin(); it + 1 != held.rend(); ++it) {
    c.inject(std::move(*it));
  }
  EXPECT_EQ(c.node(1).pending_count(), static_cast<std::size_t>(kChain - 1));
  EXPECT_EQ(c.node(1).stats().remote_applies, 0u);
  c.inject(std::move(held.front()));  // seq 1 releases the whole chain
  EXPECT_EQ(c.node(1).pending_count(), 0u);
  EXPECT_EQ(c.node(1).stats().remote_applies,
            static_cast<std::uint64_t>(kChain));
  EXPECT_EQ(c.node(1).peek(0).value, kChain - 1);
  EXPECT_EQ(c.node(1).stats().peak_pending,
            static_cast<std::uint64_t>(kChain - 1));
}

// Reversed chain under writing semantics: one message suffices — everything
// earlier is a superseded same-variable run.
TEST(DeliveryAdversarial, ReversedChainUnderWsSkipsEverything) {
  DirectCluster c(ProtocolKind::kOptPWs, 2, 1);
  constexpr int kChain = 30;
  for (int i = 0; i < kChain; ++i) c.write(0, 0, i);
  auto held = c.intercept_to(1);
  c.inject(std::move(held.back()));  // the last write carries run = 29
  EXPECT_EQ(c.node(1).peek(0).value, kChain - 1);
  EXPECT_EQ(c.node(1).stats().skipped_writes,
            static_cast<std::uint64_t>(kChain - 1));
  EXPECT_EQ(c.node(1).stats().delayed_writes, 0u);
  // The stale balance arrives and is discarded.
  for (std::size_t i = 0; i + 1 < held.size(); ++i) {
    c.inject(std::move(held[i]));
  }
  EXPECT_EQ(c.node(1).stats().stale_discards,
            static_cast<std::uint64_t>(kChain - 1));
  EXPECT_EQ(c.node(1).stats().remote_applies, 1u);
}

}  // namespace
}  // namespace dsm
