// Differential validation of the dependency-indexed drain (docs/PERF.md)
// against the seed's linear drain, retained verbatim behind
// ProtocolConfig::reference_drain.  Same seed → byte-identical schedule on
// both sides; the only degree of freedom is the drain algorithm, so every
// observer event, every read value and every seed-era counter must match
// exactly.  Also exercises the iterative worklist with a 10'000-deep enable
// chain that would overflow the stack under apply_update ⇄ drain recursion.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "dsm/common/rng.h"
#include "dsm/protocols/buffering.h"
#include "dsm/protocols/run_recorder.h"
#include "dsm/protocols/subscription.h"
#include "test_util.h"

namespace dsm {
namespace {

using testutil::DirectCluster;

struct RunResult {
  std::vector<std::string> events;   ///< paper-style labels, global order
  std::vector<Value> reads;          ///< final value of every var at every proc
  std::vector<ProtocolStats> stats;  ///< per process
};

/// One randomized scenario: writes, reads, out-of-order delivery, duplicate
/// delivery (a copy arrives, then the original arrives stale) and lossy
/// blackouts (every message in flight to one process vanishes).  All draws
/// come from one Rng, and the protocols' externally visible behaviour is
/// identical on both drain implementations, so the schedule replays
/// identically for a given seed.
/// With a subscription map (optp-sharded), every access draws its variable
/// from the process's subscribed set instead.
RunResult run_scenario(ProtocolKind kind, std::uint64_t seed, bool reference,
                       std::shared_ptr<const SubscriptionMap> map = nullptr) {
  constexpr std::size_t kProcs = 4;
  constexpr std::size_t kVars = 4;
  ProtocolConfig config;
  config.reference_drain = reference;
  config.subscription = map;
  DirectCluster c(kind, kProcs, kVars, config);
  Rng rng(seed);
  const auto pick_var = [&](ProcessId p) {
    if (map == nullptr) return static_cast<VarId>(rng.below(kVars));
    const auto vars = map->vars_of(p);
    return vars[rng.below(vars.size())];
  };

  for (int step = 0; step < 400; ++step) {
    const auto p = static_cast<ProcessId>(rng.below(kProcs));
    const std::uint64_t action = rng.below(100);
    if (action < 35) {
      c.write(p, pick_var(p), static_cast<Value>(step + 1));
    } else if (action < 50) {
      (void)c.read(p, pick_var(p));
    } else if (action < 85) {
      if (c.in_flight() > 0) c.deliver(rng.below(c.in_flight()));
    } else if (action < 95) {
      // Duplicate delivery: a copy arrives now, the original stays in
      // flight and arrives stale later — the purge path's food.
      if (c.in_flight() > 0) {
        const auto& f = c.flight(rng.below(c.in_flight()));
        c.inject({f.from, f.to, f.bytes});
      }
    } else {
      // Blackout: everything in flight to p is lost.  Later writes from the
      // same senders can then never apply at p and stay pending — the
      // drains must agree on that, too.
      (void)c.intercept_to(p);
    }
  }
  c.deliver_all();

  RunResult r;
  for (const RunEvent& e : c.recorder().events()) {
    r.events.push_back(event_to_string(e));
  }
  for (ProcessId p = 0; p < kProcs; ++p) {
    for (VarId x = 0; x < kVars; ++x) {
      if (map == nullptr || map->is_subscriber(x, p)) {
        r.reads.push_back(c.node(p).read(x).value);
      }
    }
    r.stats.push_back(c.node(p).stats());
  }
  return r;
}

void expect_identical_runs(const RunResult& ref, const RunResult& idx) {
  ASSERT_GT(ref.events.size(), 0u);
  ASSERT_EQ(ref.events.size(), idx.events.size());
  for (std::size_t i = 0; i < ref.events.size(); ++i) {
    ASSERT_EQ(ref.events[i], idx.events[i]) << "event " << i;
  }
  EXPECT_EQ(ref.reads, idx.reads);

  for (std::size_t p = 0; p < ref.stats.size(); ++p) {
    const ProtocolStats& a = ref.stats[p];
    const ProtocolStats& b = idx.stats[p];
    EXPECT_EQ(a.writes_issued, b.writes_issued) << "p" << p;
    EXPECT_EQ(a.reads_issued, b.reads_issued) << "p" << p;
    EXPECT_EQ(a.messages_received, b.messages_received) << "p" << p;
    EXPECT_EQ(a.remote_applies, b.remote_applies) << "p" << p;
    EXPECT_EQ(a.delayed_writes, b.delayed_writes) << "p" << p;
    EXPECT_EQ(a.skipped_writes, b.skipped_writes) << "p" << p;
    EXPECT_EQ(a.stale_discards, b.stale_discards) << "p" << p;
    EXPECT_EQ(a.peak_pending, b.peak_pending) << "p" << p;
  }
}

class DrainDifferential
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, std::uint64_t>> {
};

TEST_P(DrainDifferential, IndexedDrainMatchesReferenceExactly) {
  const auto [kind, seed] = GetParam();
  expect_identical_runs(run_scenario(kind, seed, /*reference=*/true),
                        run_scenario(kind, seed, /*reference=*/false));
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSeeds, DrainDifferential,
    ::testing::Combine(::testing::Values(ProtocolKind::kOptP,
                                         ProtocolKind::kOptPWs,
                                         ProtocolKind::kOptPConv,
                                         ProtocolKind::kAnbkh,
                                         ProtocolKind::kAnbkhWs),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u)),
    [](const auto& param_info) {
      std::string name = to_string(std::get<0>(param_info.param));
      for (char& ch : name) {
        if (ch == '-') ch = '_';  // gtest names: [A-Za-z0-9_] only
      }
      return name + "_seed" + std::to_string(std::get<1>(param_info.param));
    });

// optp-sharded waits on row self of its dependency matrix through the same
// drain; the reference engine is its oracle too, on restricted maps where
// the matrix rows differ from OptP's Write_co.
class ShardedDrainDifferential
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(ShardedDrainDifferential, IndexedDrainMatchesReferenceExactly) {
  const auto& [spec, seed] = GetParam();
  const auto map = SubscriptionMap::parse(spec, 4, 4);
  ASSERT_TRUE(map.has_value()) << spec;
  const auto shared = std::make_shared<const SubscriptionMap>(*map);
  const RunResult ref =
      run_scenario(ProtocolKind::kOptPSharded, seed, /*reference=*/true, shared);
  const RunResult idx =
      run_scenario(ProtocolKind::kOptPSharded, seed, /*reference=*/false, shared);
  std::uint64_t delayed = 0;
  for (const ProtocolStats& s : ref.stats) delayed += s.delayed_writes;
  EXPECT_GT(delayed, 0u) << "the scenario must exercise the buffer";
  expect_identical_runs(ref, idx);
}

INSTANTIATE_TEST_SUITE_P(
    MapsAndSeeds, ShardedDrainDifferential,
    ::testing::Combine(::testing::Values("disjoint:2", "chained:2",
                                         "0:0,1;1:1,2,3;2:0,2,3;3:0,3"),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u)),
    [](const auto& param_info) {
      std::string name = std::get<0>(param_info.param);
      if (name.find(';') != std::string::npos) name = "explicit";
      std::erase(name, ':');  // gtest names: [A-Za-z0-9_] only
      return name + "_seed" + std::to_string(std::get<1>(param_info.param));
    });

// ------------------------------------------------ purge-skip fast path -----

TEST(PurgeSkip, CleanRunsSkipEveryPurgePass) {
  // No writing semantics, no duplicate ever delivered: the drain can prove
  // every purge pass would remove nothing and must skip them all.
  DirectCluster c(ProtocolKind::kOptP, 3, 4);
  c.write(0, 0, 1);
  c.write(0, 1, 2);
  ASSERT_EQ(c.in_flight(), 4u);  // two writes × two receivers
  ASSERT_TRUE(c.deliver_to(1, 0));  // w1 → p1 (applies)
  c.deliver_all();                  // the rest, buffering included
  const ProtocolStats& s = c.node(1).stats();
  EXPECT_GT(s.purges_avoided, 0u);
  EXPECT_EQ(s.stale_discards, 0u);
}

TEST(PurgeSkip, WritingSemanticsAlwaysPurges) {
  // Writing semantics can strand stale entries in the buffer at any time, so
  // the fast path must never engage.
  DirectCluster c(ProtocolKind::kOptPWs, 3, 4);
  for (int i = 0; i < 5; ++i) c.write(0, 0, 10 + i);
  c.deliver_all();
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(c.node(p).stats().purges_avoided, 0u) << "p" << p;
  }
}

TEST(PurgeSkip, DuplicateDeliveryDisablesTheFastPath) {
  // After a duplicate has ever been buffered the "nothing can be stale"
  // proof is gone: the stale copy must be purged, not popped as ready.
  DirectCluster c(ProtocolKind::kOptP, 2, 2);
  c.write(0, 0, 7);   // w1
  c.write(0, 1, 8);   // w2
  ASSERT_EQ(c.in_flight(), 2u);
  // Deliver a copy of w2 (buffers: needs w1), then the original w2 (dup,
  // buffers too), then w1 — the cascade applies one w2 copy and must
  // discard the other as stale.
  const auto w2 = c.flight(1);
  c.inject({w2.from, w2.to, w2.bytes});
  c.deliver(1);
  c.deliver(0);
  const ProtocolStats& s = c.node(1).stats();
  EXPECT_EQ(s.remote_applies, 2u);
  EXPECT_EQ(s.stale_discards, 1u);
  EXPECT_EQ(c.node(1).read(0).value, 7);
  EXPECT_EQ(c.node(1).read(1).value, 8);
}

// ------------------------------------------------- deep enable chains ------

TEST(DeepEnableChain, TenThousandDeepCascadeAppliesIteratively) {
  // Writes 2..10'000 arrive first and buffer (each enabled only by its
  // predecessor); write 1 then enables the whole chain in one drain.  Under
  // the seed's apply_update ⇄ drain mutual recursion this cascade nests
  // ~10'000 stack frames; the iterative worklist must absorb it flat.
  constexpr std::uint64_t kChain = 10'000;
  DirectCluster c(ProtocolKind::kOptP, 2, 1);
  for (std::uint64_t i = 1; i <= kChain; ++i) {
    c.write(0, 0, static_cast<Value>(i));
  }
  ASSERT_EQ(c.in_flight(), kChain);
  while (c.in_flight() > 1) c.deliver(c.in_flight() - 1);  // newest first

  const ProtocolStats& buffered = c.node(1).stats();
  ASSERT_EQ(buffered.delayed_writes, kChain - 1);
  ASSERT_EQ(buffered.remote_applies, 0u);

  c.deliver(0);  // write 1: the whole chain cascades
  const ProtocolStats& s = c.node(1).stats();
  EXPECT_EQ(s.remote_applies, kChain);
  EXPECT_EQ(s.peak_pending, kChain - 1);
  EXPECT_EQ(c.node(1).read(0).value, static_cast<Value>(kChain));

  // O(newly-enabled) claim: the indexed drain examines each buffered entry a
  // constant number of times (wake + pop), nowhere near the reference
  // drain's ~kChain²/2 rescans.
  EXPECT_LE(s.drain_scans, 4 * kChain);
}

}  // namespace
}  // namespace dsm
