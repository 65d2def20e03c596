// Tests for partial replication (PartialOptP, after the paper's reference
// [14]): metadata-full / data-partial semantics, causal chains through
// unreplicated variables, and bandwidth behaviour.

#include <gtest/gtest.h>

#include "dsm/audit/auditor.h"
#include "dsm/codec/message.h"
#include "dsm/history/checker.h"
#include "dsm/protocols/partial.h"
#include "dsm/workload/generator.h"
#include "dsm/workload/sim_harness.h"
#include "test_util.h"

namespace dsm {
namespace {

using testutil::DirectCluster;

ProtocolConfig partial_config(std::shared_ptr<const SubscriptionMap> map,
                              std::size_t blob = 0) {
  ProtocolConfig cfg;
  cfg.subscription = std::move(map);
  cfg.write_blob_size = blob;
  return cfg;
}

// --------------------------------------------- chained:F placement maps ---

TEST(SubscriptionMap, ChainedFullFactorSubscribesEverywhere) {
  const auto map = SubscriptionMap::chained(3, 4, 3);
  for (VarId v = 0; v < 4; ++v) {
    for (ProcessId p = 0; p < 3; ++p) EXPECT_TRUE(map.is_subscriber(v, p));
  }
  EXPECT_TRUE(map.is_full());
  EXPECT_DOUBLE_EQ(map.mean_size(), 3.0);
}

TEST(SubscriptionMap, ChainedPlacement) {
  const auto map = SubscriptionMap::chained(4, 4, 2);
  EXPECT_EQ(map.subscribers(0), (std::vector<ProcessId>{0, 1}));
  EXPECT_EQ(map.subscribers(1), (std::vector<ProcessId>{1, 2}));
  EXPECT_EQ(map.subscribers(3), (std::vector<ProcessId>{0, 3}));
  EXPECT_DOUBLE_EQ(map.mean_size(), 2.0);
  EXPECT_EQ(map.vars_of(1), (std::vector<VarId>{0, 1}));
  EXPECT_EQ(map.describe(), "chained(2)");
}

TEST(SubscriptionMap, ChainedSpecParsesAndRejectsBadFactors) {
  const auto map = SubscriptionMap::parse("chained:2", 4, 4);
  ASSERT_TRUE(map.has_value());
  EXPECT_EQ(map->subscribers(3), (std::vector<ProcessId>{0, 3}));
  // The factor counts replicas, so it must lie in [1, procs].
  for (const char* bad : {"chained:0", "chained:5", "chained:", "chained:x"}) {
    std::string error;
    EXPECT_FALSE(SubscriptionMap::parse(bad, 4, 4, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

// ------------------------------------------------------------ PartialOptP --

TEST(PartialOptP, FullMapBehavesExactlyLikeOptP) {
  const auto map =
      std::make_shared<const SubscriptionMap>(SubscriptionMap::full(3, 2));
  DirectCluster partial(ProtocolKind::kOptPPartial, 3, 2, partial_config(map));
  DirectCluster plain(ProtocolKind::kOptP, 3, 2);
  for (auto* c : {&partial, &plain}) {
    c->write(0, 0, 1);
    c->deliver_all();
    (void)c->read(1, 0);
    c->write(1, 1, 2);
    c->deliver_all();
  }
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(partial.node(p).peek(0).value, plain.node(p).peek(0).value);
    EXPECT_EQ(partial.node(p).peek(1).value, plain.node(p).peek(1).value);
    EXPECT_EQ(partial.node(p).stats().delayed_writes,
              plain.node(p).stats().delayed_writes);
  }
}

TEST(PartialOptP, NonReplicaGetsMetadataOnly) {
  // x0 replicated at {p0, p1}; p2 receives only the metadata copy.
  const auto map =
      std::make_shared<const SubscriptionMap>(SubscriptionMap::chained(3, 3, 2));
  DirectCluster c(ProtocolKind::kOptPPartial, 3, 3, partial_config(map, 64));
  c.write(0, 0, 7);
  c.deliver_all();
  EXPECT_EQ(c.node(1).peek(0).value, 7);        // replica holds the value
  EXPECT_EQ(c.node(2).peek(0).value, kBottom);  // non-replica holds no value
  // …but its Apply counter advanced (the apply event happened).
  EXPECT_EQ(c.node(2).stats().remote_applies, 1u);
}

TEST(PartialOptP, MetaCopiesAreSmaller) {
  const auto map =
      std::make_shared<const SubscriptionMap>(SubscriptionMap::chained(3, 3, 2));
  DirectCluster c(ProtocolKind::kOptPPartial, 3, 3,
                  partial_config(map, 1024));
  c.write(0, 0, 7);
  ASSERT_EQ(c.in_flight(), 2u);
  std::size_t replica_bytes = 0, meta_bytes = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& f = c.flight(i);
    if (f.to == 1) replica_bytes = f.bytes.size();
    if (f.to == 2) meta_bytes = f.bytes.size();
  }
  EXPECT_GT(replica_bytes, 1024u);
  EXPECT_LT(meta_bytes, 64u);
}

TEST(PartialOptP, CausalChainThroughUnreplicatedVariable) {
  // x0 at {p0,p1}, x1 at {p1,p2}: p0 writes x0; p1 reads it and writes x1;
  // p2 (not an x0 replica) must still order x1's apply after x0's METADATA
  // apply — deliver x1's update first and check it buffers.
  const auto map =
      std::make_shared<const SubscriptionMap>(SubscriptionMap::chained(3, 3, 2));
  DirectCluster c(ProtocolKind::kOptPPartial, 3, 3, partial_config(map));
  c.write(0, 0, 1);
  ASSERT_TRUE(c.deliver_to(1, 0));  // full copy at p1
  (void)c.read(1, 0);
  c.write(1, 1, 2);                 // causally after p0's write

  // p2 still holds p0's meta copy in flight; deliver p1's write first.
  ASSERT_TRUE(c.deliver_to(2, 1));
  EXPECT_EQ(c.node(2).pending_count(), 1u);  // waits for p0's metadata
  EXPECT_EQ(c.node(2).peek(1).value, kBottom);
  ASSERT_TRUE(c.deliver_to(2, 0));  // metadata copy arrives
  EXPECT_EQ(c.node(2).peek(1).value, 2);     // value of x1 installed
  EXPECT_EQ(c.node(2).peek(0).value, kBottom);  // x0 still metadata-only
  EXPECT_EQ(c.node(2).stats().delayed_writes, 1u);
}

// The replica contract ("self must be a replica") is a DSM_REQUIRE: an
// application touching a variable outside its replica set is a harness bug,
// not a protocol state, and must abort rather than silently degrade.
TEST(PartialOptPDeathTest, AccessOutsideReplicaSetDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // chained(3, 3, 2): x0 at {p0, p1} — p2 is no replica of it.
  const auto map =
      std::make_shared<const SubscriptionMap>(SubscriptionMap::chained(3, 3, 2));
  DirectCluster c(ProtocolKind::kOptPPartial, 3, 3, partial_config(map));
  EXPECT_DEATH(c.write(2, 0, 1), "replicas");
  EXPECT_DEATH((void)c.read(2, 0), "replicas");
}

TEST(PartialOptP, NameAndRegistryDefaults) {
  DirectCluster c(ProtocolKind::kOptPPartial, 2, 2);  // defaults to full map
  EXPECT_EQ(c.node(0).name(), "optp-partial");
  c.write(0, 0, 5);
  c.deliver_all();
  EXPECT_EQ(c.node(1).peek(0).value, 5);
  EXPECT_TRUE(parse_protocol("optp-partial").has_value());
}

// ----------------------------------------------- end-to-end partial runs ---

struct PartialParams {
  std::size_t factor;
  std::uint64_t seed;
};

class PartialSweep : public ::testing::TestWithParam<PartialParams> {};

TEST_P(PartialSweep, ReplicaWorkloadIsConsistentSafeLiveOptimal) {
  const auto [factor, seed] = GetParam();
  constexpr std::size_t kProcs = 6;
  constexpr std::size_t kVars = 12;

  WorkloadSpec spec;
  spec.n_procs = kProcs;
  spec.n_vars = kVars;
  spec.ops_per_proc = 50;
  spec.write_fraction = 0.5;
  spec.mean_gap = sim_us(250);
  spec.seed = seed;

  const auto map = std::make_shared<const SubscriptionMap>(
      SubscriptionMap::chained(kProcs, kVars, factor));
  const auto latency =
      make_latency(LatencyKind::kLogNormal, sim_us(400), 1.2, seed ^ 0xAB);

  SimRunConfig cfg;
  cfg.kind = ProtocolKind::kOptPPartial;
  cfg.n_procs = kProcs;
  cfg.n_vars = kVars;
  cfg.latency = latency.get();
  cfg.protocol_config = {};
  cfg.protocol_config.subscription = map;
  cfg.protocol_config.write_blob_size = 128;

  const auto result = run_sim(cfg, generate_subscriber_workload(spec, *map));
  ASSERT_TRUE(result.settled);

  EXPECT_TRUE(
      ConsistencyChecker::check(result.recorder->history()).consistent());
  const auto audit = OptimalityAuditor::audit(*result.recorder);
  EXPECT_TRUE(audit.safe());
  EXPECT_TRUE(audit.live());  // every write applied (value or metadata)
  EXPECT_EQ(audit.total_unnecessary(), 0u);  // optimality inherited from OptP
}

INSTANTIATE_TEST_SUITE_P(Factors, PartialSweep,
                         ::testing::Values(PartialParams{1, 1},
                                           PartialParams{2, 2},
                                           PartialParams{3, 3},
                                           PartialParams{6, 4}),
                         [](const ::testing::TestParamInfo<PartialParams>& pi) {
                           return "f" + std::to_string(pi.param.factor) +
                                  "_s" + std::to_string(pi.param.seed);
                         });

TEST(PartialOptP, BandwidthScalesWithFactor) {
  constexpr std::size_t kProcs = 6;
  constexpr std::size_t kVars = 12;
  WorkloadSpec spec;
  spec.n_procs = kProcs;
  spec.n_vars = kVars;
  spec.ops_per_proc = 40;
  spec.write_fraction = 0.8;
  spec.seed = 11;

  const auto latency =
      make_latency(LatencyKind::kUniform, sim_us(300), 0.5, 0x5);
  std::uint64_t bytes_at_factor[2] = {0, 0};
  const std::size_t factors[2] = {2, 6};
  for (int i = 0; i < 2; ++i) {
    const auto map = std::make_shared<const SubscriptionMap>(
        SubscriptionMap::chained(kProcs, kVars, factors[i]));
    SimRunConfig cfg;
    cfg.kind = ProtocolKind::kOptPPartial;
    cfg.n_procs = kProcs;
    cfg.n_vars = kVars;
    cfg.latency = latency.get();
    cfg.protocol_config.subscription = map;
    cfg.protocol_config.write_blob_size = 2048;
    const auto result = run_sim(cfg, generate_subscriber_workload(spec, *map));
    ASSERT_TRUE(result.settled);
    bytes_at_factor[i] = result.net.bytes_sent;
  }
  // Factor 2 ships blobs to 1 peer instead of 5: far fewer bytes.
  EXPECT_LT(bytes_at_factor[0] * 2, bytes_at_factor[1]);
}

}  // namespace
}  // namespace dsm
