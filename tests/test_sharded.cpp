// Tests for subscription-routed sharding (ShardedOptP, after Xiang &
// Vaidya): the SubscriptionMap, unicast routing, the knowledge-matrix wait
// condition (including transitive chains through non-shared-variable
// processes), degeneration to OptP under a full map, per-shard log merging,
// the subscription-aware auditor, and the Zipf sampler the skewed workloads
// ride on.

#include <gtest/gtest.h>

#include "dsm/audit/auditor.h"
#include "dsm/audit/trace_io.h"
#include "dsm/codec/message.h"
#include "dsm/common/rng.h"
#include "dsm/history/checker.h"
#include "dsm/net/merge.h"
#include "dsm/protocols/sharded.h"
#include "dsm/workload/generator.h"
#include "dsm/workload/sim_harness.h"
#include "test_util.h"

namespace dsm {
namespace {

using testutil::DirectCluster;

ProtocolConfig sharded_config(std::shared_ptr<const SubscriptionMap> map,
                              std::size_t blob = 0) {
  ProtocolConfig cfg;
  cfg.subscription = std::move(map);
  cfg.write_blob_size = blob;
  return cfg;
}

std::shared_ptr<const SubscriptionMap> parse_map(std::string_view spec,
                                                 std::size_t procs,
                                                 std::size_t vars) {
  std::string error;
  auto map = SubscriptionMap::parse(spec, procs, vars, &error);
  EXPECT_TRUE(map.has_value()) << error;
  return std::make_shared<const SubscriptionMap>(std::move(*map));
}

// ------------------------------------------------------- SubscriptionMap ---

TEST(SubscriptionMap, FullMapSubscribesEverywhere) {
  const auto map = SubscriptionMap::full(3, 4);
  for (VarId v = 0; v < 4; ++v) {
    for (ProcessId p = 0; p < 3; ++p) EXPECT_TRUE(map.is_subscriber(v, p));
  }
  EXPECT_TRUE(map.is_full());
  EXPECT_DOUBLE_EQ(map.mean_size(), 3.0);
}

TEST(SubscriptionMap, DisjointGroupsPartitionProcsAndVars) {
  // disjoint(6, 6, 3): group g owns procs [2g, 2g+2) and vars {v : v%3==g}.
  const auto map = SubscriptionMap::disjoint(6, 6, 3);
  EXPECT_EQ(map.subscribers(0), (std::vector<ProcessId>{0, 1}));
  EXPECT_EQ(map.subscribers(1), (std::vector<ProcessId>{2, 3}));
  EXPECT_EQ(map.subscribers(2), (std::vector<ProcessId>{4, 5}));
  EXPECT_EQ(map.subscribers(3), (std::vector<ProcessId>{0, 1}));
  EXPECT_EQ(map.vars_of(0), (std::vector<VarId>{0, 3}));
  EXPECT_EQ(map.vars_of(5), (std::vector<VarId>{2, 5}));
  EXPECT_FALSE(map.is_full());
  EXPECT_DOUBLE_EQ(map.mean_size(), 2.0);
  // Disjointness: no process appears in two groups' variable sets.
  for (ProcessId p = 0; p < 6; ++p) {
    for (const VarId v : map.vars_of(p)) EXPECT_EQ(v % 3, std::size_t(p / 2));
  }
}

TEST(SubscriptionMap, ParseAcceptsAllThreeSpecForms) {
  const auto full = SubscriptionMap::parse("full", 3, 2);
  ASSERT_TRUE(full.has_value());
  EXPECT_TRUE(full->is_full());

  const auto disjoint = SubscriptionMap::parse("disjoint:2", 4, 4);
  ASSERT_TRUE(disjoint.has_value());
  const auto reference = SubscriptionMap::disjoint(4, 4, 2);
  for (VarId v = 0; v < 4; ++v) {
    EXPECT_EQ(disjoint->subscribers(v), reference.subscribers(v));
  }

  const auto explicit_map = SubscriptionMap::parse("0:0,1;1:1,2", 3, 2);
  ASSERT_TRUE(explicit_map.has_value());
  EXPECT_TRUE(explicit_map->is_subscriber(0, 0));
  EXPECT_TRUE(explicit_map->is_subscriber(0, 1));
  EXPECT_FALSE(explicit_map->is_subscriber(0, 2));
  EXPECT_FALSE(explicit_map->is_subscriber(1, 0));
  EXPECT_TRUE(explicit_map->is_subscriber(1, 1));
  EXPECT_TRUE(explicit_map->is_subscriber(1, 2));
}

TEST(SubscriptionMap, ParseRejectsMalformedSpecs) {
  const char* bad[] = {
      "disjoint:x",   // non-numeric group count
      "disjoint:0",   // zero groups
      "disjoint:5",   // more groups than the 3 procs below
      "0:0,1",        // variable 1 missing from an explicit spec
      "0:0;0:1;1:1",  // variable listed twice
      "0:9;1:0",      // process out of range
      "0:;1:0",       // empty subscriber list
      "garbage",      // no ':' at all
  };
  for (const char* spec : bad) {
    std::string error;
    EXPECT_FALSE(SubscriptionMap::parse(spec, 3, 2, &error).has_value())
        << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
}

TEST(SubscriptionMap, ParseErrorsNameTheOffendingToken) {
  // The error string is user-facing CLI output (--subscriptions=...), so it
  // must point at the specific token, not just say "bad spec".
  const struct {
    const char* spec;
    const char* error;
  } cases[] = {
      {"0:0;0:1;1:1", "variable 0 listed twice"},
      {"0:9;1:0", "bad process in \"0:9\""},
      // An empty subscriber list dies on the empty token, same branch.
      {"0:;1:0", "bad process in \"0:\""},
  };
  for (const auto& c : cases) {
    std::string error;
    EXPECT_FALSE(SubscriptionMap::parse(c.spec, 3, 2, &error).has_value())
        << c.spec;
    EXPECT_EQ(error, c.error) << c.spec;
  }
}

// ------------------------------------------------------------ ShardedOptP --

TEST(ShardedOptP, FullMapBehavesExactlyLikeOptP) {
  // Under a full map the knowledge matrix degenerates to Write_co and the
  // unicast fan-out covers the whole group: the observable run — per-process
  // event sequences included — must match OptP exactly.
  const auto map =
      std::make_shared<const SubscriptionMap>(SubscriptionMap::full(3, 2));
  DirectCluster sharded(ProtocolKind::kOptPSharded, 3, 2, sharded_config(map));
  DirectCluster plain(ProtocolKind::kOptP, 3, 2);
  for (auto* c : {&sharded, &plain}) {
    c->write(0, 0, 1);
    c->deliver_all();
    (void)c->read(1, 0);
    c->write(1, 1, 2);
    c->deliver_all();
    (void)c->read(2, 1);
  }
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(sharded.recorder().sequence_str(p),
              plain.recorder().sequence_str(p));
    EXPECT_EQ(sharded.node(p).peek(0).value, plain.node(p).peek(0).value);
    EXPECT_EQ(sharded.node(p).peek(1).value, plain.node(p).peek(1).value);
    EXPECT_EQ(sharded.node(p).stats().delayed_writes,
              plain.node(p).stats().delayed_writes);
  }
}

TEST(ShardedOptP, FullMapLossyRunMatchesOptPFieldForField) {
  // The shared buffering core makes the degeneration exact down to the drain
  // bookkeeping: under a full map, over a lossy ARQ channel, every observer
  // event and every ProtocolStats field — drain_scans included — matches.
  WorkloadSpec spec;
  spec.n_procs = 8;
  spec.n_vars = 8;
  spec.ops_per_proc = 60;
  spec.write_fraction = 0.8;
  spec.seed = 5;
  const auto latency =
      make_latency(LatencyKind::kLogNormal, sim_us(400), 1.0, 0x5A);
  SimRunResult runs[2];
  const ProtocolKind kinds[2] = {ProtocolKind::kOptP,
                                 ProtocolKind::kOptPSharded};
  for (int i = 0; i < 2; ++i) {
    SimRunConfig cfg;
    cfg.kind = kinds[i];
    cfg.n_procs = spec.n_procs;
    cfg.n_vars = spec.n_vars;
    cfg.latency = latency.get();
    cfg.fault.drop = 0.15;
    cfg.fault.seed = 3;
    runs[i] = run_sim(cfg, generate_workload(spec));
    ASSERT_TRUE(runs[i].settled);
  }
  EXPECT_EQ(export_trace_jsonl(*runs[0].recorder),
            export_trace_jsonl(*runs[1].recorder));
  ASSERT_EQ(runs[0].stats.size(), runs[1].stats.size());
  std::uint64_t delayed = 0;
  for (std::size_t p = 0; p < runs[0].stats.size(); ++p) {
    const ProtocolStats& a = runs[0].stats[p];
    const ProtocolStats& b = runs[1].stats[p];
    EXPECT_EQ(a.writes_issued, b.writes_issued) << "p" << p;
    EXPECT_EQ(a.reads_issued, b.reads_issued) << "p" << p;
    EXPECT_EQ(a.messages_received, b.messages_received) << "p" << p;
    EXPECT_EQ(a.remote_applies, b.remote_applies) << "p" << p;
    EXPECT_EQ(a.delayed_writes, b.delayed_writes) << "p" << p;
    EXPECT_EQ(a.skipped_writes, b.skipped_writes) << "p" << p;
    EXPECT_EQ(a.stale_discards, b.stale_discards) << "p" << p;
    EXPECT_EQ(a.peak_pending, b.peak_pending) << "p" << p;
    EXPECT_EQ(a.drain_scans, b.drain_scans) << "p" << p;
    EXPECT_EQ(a.purges_avoided, b.purges_avoided) << "p" << p;
    delayed += a.delayed_writes;
  }
  EXPECT_GT(delayed, 0u);  // the loss really exercised the buffer
}

TEST(ShardedOptP, FullMapCollapsesKnowledgeRows) {
  // Every write is q-relevant for every q under a full map, so all n rows of
  // K evolve identically (each equals OptP's Write_co).
  const auto map =
      std::make_shared<const SubscriptionMap>(SubscriptionMap::full(3, 2));
  DirectCluster c(ProtocolKind::kOptPSharded, 3, 2, sharded_config(map));
  c.write(0, 0, 1);
  c.deliver_all();
  (void)c.read(1, 0);
  c.write(1, 1, 2);
  c.deliver_all();
  (void)c.read(0, 1);
  (void)c.read(2, 1);
  for (ProcessId p = 0; p < 3; ++p) {
    const auto& proto = static_cast<const ShardedOptP&>(c.node(p));
    for (ProcessId q = 1; q < 3; ++q) {
      EXPECT_EQ(proto.knowledge_row(q), proto.knowledge_row(0));
    }
  }
}

TEST(ShardedOptP, UnicastsReachOnlySubscribers) {
  // x0 at {p0,p1}, x1 at {p1,p2}: each write produces exactly |subs|−1
  // in-flight messages, addressed to the foreign subscribers and nobody else.
  const auto map = parse_map("0:0,1;1:1,2", 3, 2);
  DirectCluster c(ProtocolKind::kOptPSharded, 3, 2, sharded_config(map));
  c.write(0, 0, 7);
  ASSERT_EQ(c.in_flight(), 1u);
  EXPECT_EQ(c.flight(0).to, 1u);
  c.deliver_all();
  c.write(1, 1, 9);
  ASSERT_EQ(c.in_flight(), 1u);
  EXPECT_EQ(c.flight(0).to, 2u);
  c.deliver_all();
  EXPECT_EQ(static_cast<const ShardedOptP&>(c.node(0)).unicasts_sent(), 1u);
  EXPECT_EQ(static_cast<const ShardedOptP&>(c.node(1)).unicasts_sent(), 1u);
  EXPECT_EQ(c.node(1).peek(0).value, 7);
  EXPECT_EQ(c.node(2).peek(1).value, 9);
}

TEST(ShardedOptP, DepMatrixShipsOnlyNonzeroEntries) {
  // p0's first write of x0 (subs {0,1}) has exactly two nonzero knowledge
  // entries — K[0][0] and K[1][0], both 1 — and the wire frame carries
  // exactly those, sorted by (row, col).
  const auto map = parse_map("0:0,1;1:1,2", 3, 2);
  DirectCluster c(ProtocolKind::kOptPSharded, 3, 2, sharded_config(map));
  c.write(0, 0, 7);
  ASSERT_EQ(c.in_flight(), 1u);
  const auto decoded = decode_message(c.flight(0).bytes);
  ASSERT_TRUE(decoded.has_value());
  const auto* update = std::get_if<WriteUpdate>(&*decoded);
  ASSERT_NE(update, nullptr);
  const std::vector<SubDep> expected = {{0, 0, 1}, {1, 0, 1}};
  EXPECT_EQ(update->sub_deps, expected);
  EXPECT_EQ(static_cast<const ShardedOptP&>(c.node(0)).dep_entries_shipped(),
            2u);
}

TEST(ShardedOptP, TransitiveChainThroughForeignProcessStillOrders) {
  // The counterexample that forces a full matrix (sharded.h file comment):
  // p0 writes x (subs {0,1,3}); p1 reads x, writes y (subs {1,2}); p2 reads
  // y, writes z (subs {2,3}).  p3 shares no variable with p2's causal
  // *carrier* p1, yet must order z after x — only the propagated matrix rows
  // convey that, and delivering z first must buffer it.
  const auto map = parse_map("0:0,1,3;1:1,2;2:2,3", 4, 3);
  DirectCluster c(ProtocolKind::kOptPSharded, 4, 3, sharded_config(map));
  c.write(0, 0, 1);
  ASSERT_TRUE(c.deliver_to(1, 0));
  (void)c.read(1, 0);
  c.write(1, 1, 2);
  ASSERT_TRUE(c.deliver_to(2, 1));
  (void)c.read(2, 1);
  c.write(2, 2, 3);

  // z's update reaches p3 while x's is still in flight: it must wait.
  ASSERT_TRUE(c.deliver_to(3, 2));
  EXPECT_EQ(c.node(3).pending_count(), 1u);
  EXPECT_EQ(c.node(3).peek(2).value, kBottom);

  ASSERT_TRUE(c.deliver_to(3, 0));  // x arrives; z drains behind it
  EXPECT_EQ(c.node(3).pending_count(), 0u);
  EXPECT_EQ(c.node(3).peek(0).value, 1);
  EXPECT_EQ(c.node(3).peek(2).value, 3);
  EXPECT_EQ(c.node(3).stats().delayed_writes, 1u);

  const auto& rec = c.recorder();
  EXPECT_TRUE(ConsistencyChecker::check(rec.history()).consistent());
  const auto audit =
      OptimalityAuditor::audit(rec.history(), rec.events(), map.get());
  EXPECT_TRUE(audit.safe());
  EXPECT_TRUE(audit.live());
  EXPECT_EQ(audit.total_delayed(), 1u);
  EXPECT_EQ(audit.total_unnecessary(), 0u);  // the delay was necessary
}

TEST(ShardedOptP, NameAndRegistryDefaults) {
  DirectCluster c(ProtocolKind::kOptPSharded, 2, 2);  // defaults to full map
  EXPECT_EQ(c.node(0).name(), "optp-sharded");
  EXPECT_TRUE(static_cast<const ShardedOptP&>(c.node(0)).subscription()
                  .is_full());
  c.write(0, 0, 5);
  c.deliver_all();
  EXPECT_EQ(c.node(1).peek(0).value, 5);
  EXPECT_TRUE(parse_protocol("optp-sharded").has_value());
}

// The access contract mirrors PartialOptP's replica contract: touching a
// variable outside one's subscription — or routing an update to a
// non-subscriber — is a harness bug, and DSM_REQUIRE aborts.
TEST(ShardedOptPDeathTest, AccessOutsideSubscriptionDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto map = parse_map("0:0,1;1:1,2", 3, 2);
  DirectCluster c(ProtocolKind::kOptPSharded, 3, 2, sharded_config(map));
  EXPECT_DEATH(c.write(0, 1, 5), "subscribe");
  EXPECT_DEATH((void)c.read(2, 0), "subscribe");
}

TEST(ShardedOptPDeathTest, UpdateRoutedToNonSubscriberDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto map = parse_map("0:0,1;1:1,2", 3, 2);
  DirectCluster c(ProtocolKind::kOptPSharded, 3, 2, sharded_config(map));
  c.write(1, 1, 9);
  ASSERT_EQ(c.in_flight(), 1u);
  DirectCluster::Flight misrouted = c.flight(0);
  misrouted.to = 0;  // p0 does not subscribe to x1
  EXPECT_DEATH(c.inject(misrouted), "non-subscriber");
}

// ------------------------------------------- subscription-aware auditing ---

TEST(OptimalityAuditor, MessageFloorSumsForeignSubscribers) {
  const auto map = parse_map("0:0,1;1:1,2", 3, 2);
  GlobalHistory history(3, 2);
  history.add_write(0, 0, 1);  // |subs(x0)| − 1 = 1
  history.add_write(1, 0, 2);  // 1
  history.add_write(1, 1, 3);  // |subs(x1)| − 1 = 1
  EXPECT_EQ(OptimalityAuditor::message_floor(history, *map), 3u);

  const auto full = SubscriptionMap::full(3, 2);
  EXPECT_EQ(OptimalityAuditor::message_floor(history, full), 6u);  // 3·(n−1)
}

TEST(OptimalityAuditor, LivenessNarrowsToSubscribers) {
  // A routed run applies each write at its subscribers only.  The
  // subscription-aware audit accepts that; the full-replication audit
  // (nullptr map) must report the non-subscribers' missing applies.
  const auto map = parse_map("0:0,1;1:1,2", 3, 2);
  DirectCluster c(ProtocolKind::kOptPSharded, 3, 2, sharded_config(map));
  c.write(0, 0, 1);
  c.deliver_all();
  (void)c.read(1, 0);
  c.write(1, 1, 2);
  c.deliver_all();
  (void)c.read(2, 1);

  const auto& rec = c.recorder();
  const auto routed =
      OptimalityAuditor::audit(rec.history(), rec.events(), map.get());
  EXPECT_TRUE(routed.safe());
  EXPECT_TRUE(routed.live());
  EXPECT_TRUE(routed.write_delay_optimal());

  const auto unaware =
      OptimalityAuditor::audit(rec.history(), rec.events(), nullptr);
  EXPECT_FALSE(unaware.live());  // x0 never applied at p2, x1 never at p0
}

// ------------------------------------------------- per-shard log merging ---

// Split a recorded run into per-process traces — exactly what each node of a
// sharded cluster persists on its own — and check merge_runs() reassembles a
// checker-clean global run whose per-process sequences match the original
// byte for byte.
TEST(ShardedMerge, PerShardLogsStitchBackToTheGlobalRun) {
  constexpr std::size_t kProcs = 6;
  constexpr std::size_t kVars = 12;
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    WorkloadSpec spec;
    spec.n_procs = kProcs;
    spec.n_vars = kVars;
    spec.ops_per_proc = 40;
    spec.write_fraction = 0.5;
    spec.mean_gap = sim_us(250);
    spec.seed = seed;

    const auto map = std::make_shared<const SubscriptionMap>(
        SubscriptionMap::disjoint(kProcs, kVars, 3));
    const auto latency =
        make_latency(LatencyKind::kLogNormal, sim_us(400), 1.0, seed ^ 0xC3);

    SimRunConfig cfg;
    cfg.kind = ProtocolKind::kOptPSharded;
    cfg.n_procs = kProcs;
    cfg.n_vars = kVars;
    cfg.latency = latency.get();
    cfg.protocol_config.subscription = map;

    const auto result = run_sim(cfg, generate_subscriber_workload(spec, *map));
    ASSERT_TRUE(result.settled);
    const auto& rec = *result.recorder;

    std::vector<ImportedRun> runs;
    for (ProcessId p = 0; p < kProcs; ++p) {
      ImportedRun run{GlobalHistory(kProcs, kVars), {}};
      for (const OpRef ref : rec.history().local(p)) {
        const Operation& op = rec.history().op(ref);
        if (op.is_write()) {
          run.history.add_write(p, op.var, op.value);
        } else {
          run.history.add_read(p, op.var, op.value, op.write_id);
        }
      }
      for (const RunEvent& e : rec.events()) {
        if (e.at == p) run.events.push_back(e);
      }
      runs.push_back(std::move(run));
    }

    const auto merged = merge_runs(runs);
    ASSERT_TRUE(merged.has_value()) << "seed " << seed;
    EXPECT_TRUE(ConsistencyChecker::check(merged->history).consistent());
    const auto audit =
        OptimalityAuditor::audit(merged->history, merged->events, map.get());
    EXPECT_TRUE(audit.safe());
    EXPECT_TRUE(audit.live());
    for (ProcessId p = 0; p < kProcs; ++p) {
      EXPECT_EQ(sequence_str(merged->events, p), rec.sequence_str(p))
          << "seed " << seed << " proc " << unsigned(p);
    }
  }
}

// ------------------------------------------------------------ Zipf skew ----

TEST(ZipfSampler, DeterministicAndSkewed) {
  ZipfSampler a(16, 0.9), b(16, 0.9);
  Rng ra(42), rb(42);
  std::vector<std::size_t> counts(16, 0);
  for (int i = 0; i < 4000; ++i) {
    const std::size_t s = a.sample(ra);
    ASSERT_EQ(s, b.sample(rb));  // same seed, same stream
    ASSERT_LT(s, 16u);
    ++counts[s];
  }
  // Rank 0 is the most popular item; the tail is strictly colder.
  EXPECT_GT(counts[0], counts[15]);
  EXPECT_GT(counts[0], counts[8]);
}

TEST(ZipfWorkload, SubscriberScriptsAreDeterministicAndInBounds) {
  WorkloadSpec spec;
  spec.n_procs = 6;
  spec.n_vars = 12;
  spec.ops_per_proc = 30;
  spec.pattern = AccessPattern::kZipf;
  spec.zipf_s = 1.1;
  spec.seed = 99;

  const auto map = SubscriptionMap::disjoint(6, 12, 3);
  const auto once = generate_subscriber_workload(spec, map);
  const auto again = generate_subscriber_workload(spec, map);
  ASSERT_EQ(once.size(), again.size());
  for (ProcessId p = 0; p < once.size(); ++p) {
    ASSERT_EQ(once[p].size(), again[p].size());
    for (std::size_t i = 0; i < once[p].size(); ++i) {
      EXPECT_EQ(once[p][i].kind, again[p][i].kind);
      EXPECT_EQ(once[p][i].var, again[p][i].var);
      EXPECT_EQ(once[p][i].value, again[p][i].value);
      EXPECT_EQ(once[p][i].delay, again[p][i].delay);
      // Every access stays inside p's subscription.
      EXPECT_TRUE(map.is_subscriber(once[p][i].var, p));
    }
  }
}

// ----------------------------------------------- end-to-end sharded runs ---

struct ShardedParams {
  std::size_t groups;
  std::uint64_t seed;
};

class ShardedSweep : public ::testing::TestWithParam<ShardedParams> {};

TEST_P(ShardedSweep, RoutedRunIsConsistentSafeLiveAndMessageOptimal) {
  const auto [groups, seed] = GetParam();
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
      SubscriptionMap::disjoint(kProcs, kVars, groups));
  const auto latency =
      make_latency(LatencyKind::kLogNormal, sim_us(400), 1.2, seed ^ 0xAB);

  SimRunConfig cfg;
  cfg.kind = ProtocolKind::kOptPSharded;
  cfg.n_procs = kProcs;
  cfg.n_vars = kVars;
  cfg.latency = latency.get();
  cfg.protocol_config.subscription = map;
  cfg.protocol_config.write_blob_size = 128;

  const auto result = run_sim(cfg, generate_subscriber_workload(spec, *map));
  ASSERT_TRUE(result.settled);

  const auto& rec = *result.recorder;
  EXPECT_TRUE(ConsistencyChecker::check(rec.history()).consistent());
  const auto audit =
      OptimalityAuditor::audit(rec.history(), rec.events(), map.get());
  EXPECT_TRUE(audit.safe());
  EXPECT_TRUE(audit.live());
  EXPECT_EQ(audit.total_unnecessary(), 0u);  // Theorem 4 carries over
  // The Xiang–Vaidya bound, met exactly: every update message was necessary.
  EXPECT_EQ(result.net.messages_sent,
            OptimalityAuditor::message_floor(rec.history(), *map));
}

INSTANTIATE_TEST_SUITE_P(Groups, ShardedSweep,
                         ::testing::Values(ShardedParams{1, 1},
                                           ShardedParams{2, 2},
                                           ShardedParams{3, 3},
                                           ShardedParams{6, 4}),
                         [](const ::testing::TestParamInfo<ShardedParams>& pi) {
                           return "g" + std::to_string(pi.param.groups) +
                                  "_s" + std::to_string(pi.param.seed);
                         });

}  // namespace
}  // namespace dsm
