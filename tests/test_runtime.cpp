// Integration tests for the threaded deployment: real concurrency, jitter,
// and the same checker/auditor machinery applied to threaded runs.

#include <gtest/gtest.h>

#include <thread>

#include "dsm/audit/auditor.h"
#include "dsm/common/rng.h"
#include "dsm/history/checker.h"
#include "dsm/runtime/causal_memory.h"
#include "dsm/runtime/thread_cluster.h"
#include "param_print.h"

namespace dsm {
namespace {

using namespace std::chrono_literals;

TEST(ThreadCluster, WritePropagatesToAllReplicas) {
  ThreadCluster::Config cfg;
  cfg.n_procs = 3;
  cfg.n_vars = 2;
  ThreadCluster cluster(cfg);
  cluster.write(0, 0, 42);
  ASSERT_TRUE(cluster.await_quiescence(5000ms));
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(cluster.peek(p, 0).value, 42);
  }
}

TEST(ThreadCluster, ReadYourOwnWritesImmediately) {
  ThreadCluster::Config cfg;
  ThreadCluster cluster(cfg);
  cluster.write(1, 0, 7);
  EXPECT_EQ(cluster.read(1, 0).value, 7);  // no quiescence needed
}

TEST(ThreadCluster, CausalChainAcrossReplicas) {
  // p0 writes x; p1 reads it and writes y; p2 must never see y without x.
  ThreadCluster::Config cfg;
  cfg.n_procs = 3;
  cfg.n_vars = 2;
  cfg.max_jitter_us = 300;
  ThreadCluster cluster(cfg);

  cluster.write(0, 0, 1);
  // Wait until p1 sees x, read (establishing ↦ro), then write y.
  while (cluster.peek(1, 0).value != 1) std::this_thread::sleep_for(100us);
  ASSERT_EQ(cluster.read(1, 0).value, 1);
  cluster.write(1, 1, 2);

  // Poll p2: whenever y is visible, x must be too (safety, continuously).
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cluster.peek(2, 1).value == 2) {
      EXPECT_EQ(cluster.peek(2, 0).value, 1);
      break;
    }
    std::this_thread::sleep_for(100us);
  }
  ASSERT_TRUE(cluster.await_quiescence(5000ms));
  EXPECT_EQ(cluster.peek(2, 1).value, 2);
}

struct StressParams {
  ProtocolKind kind;
  std::uint64_t seed;
};

void PrintTo(const StressParams& p, std::ostream* os) {
  testutil::print_member_bytes(p, os, &StressParams::kind, &StressParams::seed);
}

class ThreadedStress : public ::testing::TestWithParam<StressParams> {};

TEST_P(ThreadedStress, ConcurrentRunIsConsistentSafeAndLive) {
  const auto [kind, seed] = GetParam();
  ThreadCluster::Config cfg;
  cfg.kind = kind;
  cfg.n_procs = 4;
  cfg.n_vars = 4;
  cfg.max_jitter_us = 400;
  cfg.seed = seed;
  if (kind == ProtocolKind::kTokenWs) {
    // The threaded token circulates until its cap; quiescence (in-flight = 0)
    // is reached only after the cap.  With ~200µs average jitter per hop the
    // cap lands well after the ~10ms workload, and the post-cap drain stays
    // inside the await timeout.
    cfg.protocol_config.token_max_rounds = 3'000;
  }
  ThreadCluster cluster(cfg);

  // Four client threads, each issuing a random mix against its own replica.
  std::vector<std::thread> clients;
  for (ProcessId p = 0; p < 4; ++p) {
    clients.emplace_back([&cluster, p, seed] {
      Rng rng(seed * 31 + p);
      for (int i = 0; i < 50; ++i) {
        const auto var = static_cast<VarId>(rng.below(4));
        if (rng.chance(0.5)) {
          cluster.write(p, var,
                        static_cast<Value>(p) * 1000 + i);
        } else {
          (void)cluster.read(p, var);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(rng.below(200)));
      }
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_TRUE(cluster.await_quiescence(10'000ms)) << to_string(kind);

  // The full verification stack applies to the threaded run.
  const auto check = ConsistencyChecker::check(cluster.recorder().history());
  EXPECT_TRUE(check.consistent())
      << to_string(kind) << ": "
      << (check.violations.empty() ? "" : check.violations[0].detail);
  const auto audit = OptimalityAuditor::audit(cluster.recorder());
  EXPECT_TRUE(audit.safe()) << to_string(kind);
  EXPECT_TRUE(audit.live()) << to_string(kind);
  if (kind == ProtocolKind::kOptP || kind == ProtocolKind::kOptPWs) {
    EXPECT_EQ(audit.total_unnecessary(), 0u) << "Theorem 4 (threaded)";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, ThreadedStress,
    ::testing::Values(StressParams{ProtocolKind::kOptP, 1},
                      StressParams{ProtocolKind::kOptP, 2},
                      StressParams{ProtocolKind::kAnbkh, 3},
                      StressParams{ProtocolKind::kOptPWs, 4},
                      StressParams{ProtocolKind::kAnbkhWs, 5},
                      StressParams{ProtocolKind::kTokenWs, 6}),
    [](const ::testing::TestParamInfo<StressParams>& param_info) {
      std::string name = to_string(param_info.param.kind);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + "_s" + std::to_string(param_info.param.seed);
    });

TEST(ThreadCluster, LiveStabilityTrackerViaExtraObserver) {
  StabilityTracker tracker(3);
  ThreadCluster::Config cfg;
  cfg.n_procs = 3;
  cfg.n_vars = 2;
  cfg.extra_observers = {&tracker};
  ThreadCluster cluster(cfg);

  cluster.write(0, 0, 1);
  cluster.write(1, 1, 2);
  ASSERT_TRUE(cluster.await_quiescence(5000ms));
  // Once quiescent, both writes are applied everywhere: stable.
  EXPECT_TRUE(tracker.is_stable(WriteId{0, 1}));
  EXPECT_TRUE(tracker.is_stable(WriteId{1, 1}));
  EXPECT_EQ(tracker.frontier(), (VectorClock{{1, 1, 0}}));
  EXPECT_EQ(tracker.unstable_count(), 0u);
}

TEST(ThreadCluster, ShutdownIsIdempotent) {
  ThreadCluster::Config cfg;
  ThreadCluster cluster(cfg);
  cluster.write(0, 0, 1);
  cluster.shutdown();
  cluster.shutdown();  // no crash, no deadlock
}

// ------------------------------------------------------------ CausalMemory --

CausalMemory::Options mem_options(std::size_t replicas, std::size_t capacity,
                                  std::uint32_t jitter_us = 0) {
  CausalMemory::Options opts;
  opts.replicas = replicas;
  opts.capacity = capacity;
  opts.max_jitter_us = jitter_us;
  return opts;
}

TEST(CausalMemory, NamedVariablesRoundTrip) {
  CausalMemory mem(mem_options(2, 8));
  auto alice = mem.session(0);
  auto bob = mem.session(1);
  alice.write("title", 7);
  ASSERT_TRUE(mem.sync());
  EXPECT_EQ(bob.read("title"), 7);
  EXPECT_EQ(mem.names_in_use(), 1u);
}

TEST(CausalMemory, UnwrittenNameReadsBottom) {
  CausalMemory mem(mem_options(2, 4));
  EXPECT_EQ(mem.session(0).read("nothing"), kBottom);
}

TEST(CausalMemory, ReadTaggedExposesWriter) {
  CausalMemory mem(mem_options(2, 4));
  mem.session(1).write("k", 5);
  ASSERT_TRUE(mem.sync());
  const auto r = mem.session(0).read_tagged("k");
  EXPECT_EQ(r.value, 5);
  EXPECT_EQ(r.writer, (WriteId{1, 1}));
}

TEST(CausalMemory, CapacityExhaustionReturnsNullopt) {
  CausalMemory mem(mem_options(1, 2));
  EXPECT_TRUE(mem.resolve("a").has_value());
  EXPECT_TRUE(mem.resolve("b").has_value());
  EXPECT_FALSE(mem.resolve("c").has_value());
  EXPECT_TRUE(mem.resolve("a").has_value());  // existing names still resolve
}

TEST(CausalMemory, CausalConsistencyAcrossSessions) {
  CausalMemory mem(mem_options(3, 8, 200));
  auto alice = mem.session(0);
  auto bob = mem.session(1);
  auto carol = mem.session(2);

  alice.write("post", 100);
  ASSERT_TRUE(mem.sync());
  ASSERT_EQ(bob.read("post"), 100);
  bob.write("comment", 200);  // causally after the post
  ASSERT_TRUE(mem.sync());
  // Carol sees the comment -> she must also see the post.
  EXPECT_EQ(carol.read("comment"), 200);
  EXPECT_EQ(carol.read("post"), 100);

  const auto check = ConsistencyChecker::check(mem.recorder().history());
  EXPECT_TRUE(check.consistent());
}

TEST(CausalMemory, WorksWithEveryProtocol) {
  for (const auto kind : all_protocol_kinds()) {
    CausalMemory::Options opts;
    opts.replicas = 2;
    opts.capacity = 4;
    opts.protocol = kind;
    opts.protocol_config.token_max_rounds = 500;
    opts.max_jitter_us = 50;
    CausalMemory mem(opts);
    mem.session(0).write("x", 1);
    ASSERT_TRUE(mem.sync()) << to_string(kind);
    EXPECT_EQ(mem.session(1).read("x"), 1) << to_string(kind);
  }
}

}  // namespace
}  // namespace dsm
