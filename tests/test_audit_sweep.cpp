// Differential test of the optimality auditor's one-pass bitset sweep.
//
// The oracle below is the direct reading of Definitions 3–5: a hash index of
// the first apply/skip per (process, write), a witness search over each
// delayed write's causal past, and a safety check over every ↦co pair of
// writes at every process — O(n·W²).  It lives only here.  On seeded
// simulator runs of every buffering protocol, and on seeded mutations of
// their logs (reordered, dropped and re-flagged applies; shuffled vectors),
// the shipped auditor must produce a field-for-field identical AuditReport.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dsm/audit/auditor.h"
#include "dsm/common/format.h"
#include "dsm/common/rng.h"
#include "dsm/workload/generator.h"
#include "dsm/workload/sim_harness.h"

namespace dsm {
namespace {

// ------------------------------------------------------------ the oracle ---

struct AtWrite {
  ProcessId at;
  WriteId w;
  friend bool operator==(const AtWrite&, const AtWrite&) = default;
};

struct AtWriteHash {
  std::size_t operator()(const AtWrite& k) const noexcept {
    return std::hash<WriteId>{}(k.w) ^
           (std::size_t{k.at} * 0x9E3779B97F4A7C15ULL);
  }
};

using OrderMap = std::unordered_map<AtWrite, const RunEvent*, AtWriteHash>;

AuditReport reference_audit(const GlobalHistory& history,
                            const std::vector<RunEvent>& events,
                            const SubscriptionMap* subscription) {
  AuditReport report;
  const auto co = CoRelation::build(history);
  EXPECT_TRUE(co.has_value());
  if (!co) return report;

  const std::size_t n = history.n_procs();
  report.per_proc.resize(n);
  for (ProcessId p = 0; p < n; ++p) report.per_proc[p].proc = p;

  OrderMap applied_of;
  for (const auto& e : events) {
    if (e.kind == EvKind::kApply || e.kind == EvKind::kSkip) {
      applied_of.try_emplace(AtWrite{e.at, e.write}, &e);
    }
  }

  for (const auto& e : events) {
    if (e.kind != EvKind::kReceipt) continue;
    auto& pa = report.per_proc[e.at];
    ++pa.remote_messages;

    const auto applied_it = applied_of.find(AtWrite{e.at, e.write});
    const RunEvent* applied_ev =
        applied_it == applied_of.end() ? nullptr : applied_it->second;

    bool delayed = false;
    if (applied_ev != nullptr && applied_ev->kind == EvKind::kApply &&
        applied_ev->order > e.order) {
      delayed = applied_ev->delayed;
    } else if (applied_ev != nullptr && applied_ev->kind == EvKind::kSkip &&
               applied_ev->order > e.order + 1) {
      delayed = true;
    }
    if (!delayed) continue;

    ++pa.delayed;
    DelayIncident inc;
    inc.at = e.at;
    inc.write = e.write;
    inc.receipt_order = e.order;
    inc.receipt_time = e.time;
    if (applied_ev != nullptr) {
      inc.apply_order = applied_ev->order;
      inc.apply_time = applied_ev->time;
      inc.applied = applied_ev->kind == EvKind::kApply;
    }

    const auto wref = history.find_write(e.write);
    EXPECT_TRUE(wref.has_value());
    if (!wref) return report;
    for (const OpRef dep : co->write_causal_past(*wref)) {
      if (subscription != nullptr &&
          !subscription->is_subscriber(history.op(dep).var, e.at)) {
        continue;
      }
      const WriteId dep_id = history.op(dep).write_id;
      const auto dep_applied = applied_of.find(AtWrite{e.at, dep_id});
      if (dep_applied == applied_of.end() ||
          dep_applied->second->order > e.order) {
        inc.necessary = true;
        inc.witness = dep_id;
        break;
      }
    }
    if (inc.necessary) {
      ++pa.necessary;
    } else {
      ++pa.unnecessary;
    }
    report.incidents.push_back(inc);
  }

  const auto writes = history.writes();
  for (ProcessId k = 0; k < n; ++k) {
    for (const OpRef a : writes) {
      for (const OpRef b : writes) {
        if (a == b || !co->precedes(a, b)) continue;
        const WriteId wa = history.op(a).write_id;
        const WriteId wb = history.op(b).write_id;
        const auto ea = applied_of.find(AtWrite{k, wa});
        const auto eb = applied_of.find(AtWrite{k, wb});
        if (ea == applied_of.end() || eb == applied_of.end()) continue;
        if (ea->second->order > eb->second->order) {
          report.safety_violations.push_back(
              "at " + proc_name(k) + ": " + to_string(wa) + " ↦co " +
              to_string(wb) + " but applied in the opposite order");
        }
      }
    }
  }

  for (const OpRef wref : writes) {
    const WriteId w = history.op(wref).write_id;
    const VarId var = history.op(wref).var;
    for (ProcessId k = 0; k < n; ++k) {
      if (subscription != nullptr && !subscription->is_subscriber(var, k)) {
        continue;
      }
      if (applied_of.find(AtWrite{k, w}) == applied_of.end()) {
        report.liveness_violations.push_back(to_string(w) +
                                             " never applied at " +
                                             proc_name(k));
      }
    }
  }
  return report;
}

// ------------------------------------------------------------ comparison ---

void expect_same(const AuditReport& got, const AuditReport& want,
                 const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(got.per_proc.size(), want.per_proc.size());
  for (std::size_t p = 0; p < want.per_proc.size(); ++p) {
    const ProcessAudit& g = got.per_proc[p];
    const ProcessAudit& w = want.per_proc[p];
    EXPECT_EQ(g.proc, w.proc);
    EXPECT_EQ(g.remote_messages, w.remote_messages) << "p" << p;
    EXPECT_EQ(g.delayed, w.delayed) << "p" << p;
    EXPECT_EQ(g.necessary, w.necessary) << "p" << p;
    EXPECT_EQ(g.unnecessary, w.unnecessary) << "p" << p;
  }
  ASSERT_EQ(got.incidents.size(), want.incidents.size());
  for (std::size_t i = 0; i < want.incidents.size(); ++i) {
    const DelayIncident& g = got.incidents[i];
    const DelayIncident& w = want.incidents[i];
    EXPECT_EQ(g.at, w.at) << "incident " << i;
    EXPECT_EQ(g.write, w.write) << "incident " << i;
    EXPECT_EQ(g.necessary, w.necessary) << "incident " << i;
    EXPECT_EQ(g.witness, w.witness) << "incident " << i;
    EXPECT_EQ(g.receipt_order, w.receipt_order) << "incident " << i;
    EXPECT_EQ(g.receipt_time, w.receipt_time) << "incident " << i;
    EXPECT_EQ(g.apply_order, w.apply_order) << "incident " << i;
    EXPECT_EQ(g.apply_time, w.apply_time) << "incident " << i;
    EXPECT_EQ(g.applied, w.applied) << "incident " << i;
  }
  EXPECT_EQ(got.safety_violations, want.safety_violations);
  EXPECT_EQ(got.liveness_violations, want.liveness_violations);
}

// ------------------------------------------------------------- mutations ---

std::vector<std::size_t> apply_positions(const std::vector<RunEvent>& events,
                                         std::optional<ProcessId> at = {}) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const EvKind k = events[i].kind;
    if ((k == EvKind::kApply || k == EvKind::kSkip) &&
        (!at || events[i].at == *at)) {
      out.push_back(i);
    }
  }
  return out;
}

/// Swaps the `order` of two applies at one process (a reordered apply).
std::vector<RunEvent> swap_apply_orders(std::vector<RunEvent> events,
                                        std::size_t n, Rng& rng) {
  const auto at = apply_positions(
      events, static_cast<ProcessId>(rng.below(n)));
  if (at.size() < 2) return events;
  const std::size_t i = at[rng.below(at.size())];
  const std::size_t j = at[rng.below(at.size())];
  std::swap(events[i].order, events[j].order);
  return events;
}

/// Gives one apply the `order` of another apply at the same process: both
/// happen in one step, so neither precedes the other.  (Shuffle the result
/// too, or the tie can never put a ↦co-later write first.)
std::vector<RunEvent> tie_apply_orders(std::vector<RunEvent> events,
                                       std::size_t n, Rng& rng) {
  const auto at = apply_positions(
      events, static_cast<ProcessId>(rng.below(n)));
  if (at.size() < 2) return events;
  events[at[rng.below(at.size())]].order =
      events[at[rng.below(at.size())]].order;
  return events;
}

std::vector<RunEvent> drop_apply(std::vector<RunEvent> events, Rng& rng) {
  const auto at = apply_positions(events);
  if (at.empty()) return events;
  events.erase(events.begin() +
               static_cast<std::ptrdiff_t>(at[rng.below(at.size())]));
  return events;
}

std::vector<RunEvent> flip_delayed(std::vector<RunEvent> events, Rng& rng) {
  const auto at = apply_positions(events);
  if (at.empty()) return events;
  RunEvent& e = events[at[rng.below(at.size())]];
  e.delayed = !e.delayed;
  return events;
}

/// Permutes the vector; every event keeps its own `order`.
std::vector<RunEvent> shuffle_positions(std::vector<RunEvent> events,
                                        Rng& rng) {
  std::shuffle(events.begin(), events.end(), rng);
  return events;
}

/// What the mutated logs exercised, so the test proves it reached the
/// detectors it is meant to compare.
struct Coverage {
  std::size_t unsafe = 0;
  std::size_t not_live = 0;
  std::size_t necessary = 0;
  std::size_t unnecessary = 0;

  void count(const AuditReport& r) {
    if (!r.safe()) ++unsafe;
    if (!r.live()) ++not_live;
    necessary += r.total_necessary();
    unnecessary += r.total_unnecessary();
  }
};

/// Audits the run and 5×kTrials seeded mutations of its log with both
/// auditors; every report must match.
void check_run(const RunRecorder& rec, const SubscriptionMap* map,
               std::uint64_t seed, Coverage& coverage) {
  constexpr int kTrials = 6;
  const auto& h = rec.history();
  const auto& events = rec.events();
  expect_same(OptimalityAuditor::audit(h, events, map),
              reference_audit(h, events, map), "recorded log");
  coverage.count(reference_audit(h, events, map));

  Rng rng(seed);
  for (int t = 0; t < kTrials; ++t) {
    const std::vector<std::pair<const char*, std::vector<RunEvent>>> mutants = {
        {"swapped apply orders", swap_apply_orders(events, h.n_procs(), rng)},
        {"tied apply orders",
         shuffle_positions(tie_apply_orders(events, h.n_procs(), rng), rng)},
        {"dropped apply", drop_apply(events, rng)},
        {"flipped delayed flag", flip_delayed(events, rng)},
        {"shuffled positions", shuffle_positions(events, rng)},
    };
    for (const auto& [name, log] : mutants) {
      const auto want = reference_audit(h, log, map);
      expect_same(OptimalityAuditor::audit(h, log, map), want,
                  std::string(name) + " trial " + std::to_string(t));
      coverage.count(want);
    }
  }
}

SimRunResult run_seeded(ProtocolKind kind, std::uint64_t seed,
                        std::size_t n_procs, std::size_t n_vars,
                        const std::vector<Script>& scripts,
                        std::shared_ptr<const SubscriptionMap> map = nullptr) {
  const auto latency =
      make_latency(LatencyKind::kLogNormal, sim_us(400), 1.2, seed ^ 0x5A);
  SimRunConfig cfg;
  cfg.kind = kind;
  cfg.n_procs = n_procs;
  cfg.n_vars = n_vars;
  cfg.latency = latency.get();
  cfg.protocol_config.subscription = std::move(map);
  cfg.fault.drop = 0.1;
  cfg.fault.seed = seed;
  return run_sim(cfg, scripts);
}

// ----------------------------------------------------------------- tests ---

TEST(AuditSweep, MatchesReferenceOnFullReplicationRuns) {
  Coverage coverage;
  for (const ProtocolKind kind :
       {ProtocolKind::kOptP, ProtocolKind::kOptPWs, ProtocolKind::kAnbkh,
        ProtocolKind::kAnbkhWs}) {
    for (const std::uint64_t seed : {11u, 12u, 13u}) {
      SCOPED_TRACE(std::string(to_string(kind)) + " seed " +
                   std::to_string(seed));
      WorkloadSpec spec;
      spec.n_procs = 5;
      spec.n_vars = 3;
      spec.ops_per_proc = 30;
      spec.write_fraction = 0.6;
      spec.mean_gap = sim_us(200);
      spec.seed = seed;
      const auto result = run_seeded(kind, seed, spec.n_procs, spec.n_vars,
                                     generate_workload(spec));
      ASSERT_TRUE(result.settled);
      check_run(*result.recorder, nullptr, seed, coverage);
    }
  }
  EXPECT_GT(coverage.unsafe, 0u);
  EXPECT_GT(coverage.not_live, 0u);
  EXPECT_GT(coverage.necessary, 0u);
  EXPECT_GT(coverage.unnecessary, 0u);
}

TEST(AuditSweep, MatchesReferenceOnChainedSubscriptionRuns) {
  // Variable v is shared by p_v and p_(v+1): causal chains cross processes
  // that share no variable, so the necessity search must skip unsubscribed
  // writes in the causal past.
  constexpr std::size_t kProcs = 6;
  std::string spec_text;
  for (std::size_t v = 0; v < kProcs; ++v) {
    if (v != 0) spec_text += ";";
    spec_text += std::to_string(v) + ":" + std::to_string(v) + "," +
                 std::to_string((v + 1) % kProcs);
  }
  const auto parsed = SubscriptionMap::parse(spec_text, kProcs, kProcs);
  ASSERT_TRUE(parsed.has_value());
  const auto map = std::make_shared<const SubscriptionMap>(*parsed);

  Coverage coverage;
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    WorkloadSpec spec;
    spec.n_procs = kProcs;
    spec.n_vars = kProcs;
    spec.ops_per_proc = 40;
    spec.write_fraction = 0.5;
    spec.mean_gap = sim_us(200);
    spec.seed = seed;
    const auto result =
        run_seeded(ProtocolKind::kOptPSharded, seed, kProcs, kProcs,
                   generate_subscriber_workload(spec, *map), map);
    ASSERT_TRUE(result.settled);
    check_run(*result.recorder, map.get(), seed, coverage);
  }
  EXPECT_GT(coverage.unsafe, 0u);
  EXPECT_GT(coverage.not_live, 0u);
  EXPECT_GT(coverage.necessary, 0u);
}

TEST(AuditSweep, UnrecordedWriteOnlyCountsAsAMessage) {
  // A log may cite a write its history lacks (a truncated import).  Its
  // receipt still counts; it was not buffered, so nothing needs its past.
  GlobalHistory h(2, 1);
  const WriteId w = h.add_write(0, 0, 1);
  const WriteId unrecorded{0, 9};
  std::vector<RunEvent> events(5);
  const auto set = [&](std::size_t i, ProcessId at, EvKind kind, WriteId id) {
    events[i].order = i;
    events[i].at = at;
    events[i].kind = kind;
    events[i].write = id;
  };
  set(0, 1, EvKind::kReceipt, unrecorded);
  set(1, 1, EvKind::kApply, unrecorded);
  set(2, 0, EvKind::kApply, w);
  set(3, 1, EvKind::kReceipt, w);
  set(4, 1, EvKind::kApply, w);
  const auto got = OptimalityAuditor::audit(h, events);
  expect_same(got, reference_audit(h, events, nullptr), "unrecorded write");
  EXPECT_EQ(got.total_remote(), 2u);
  EXPECT_EQ(got.total_delayed(), 0u);
  EXPECT_TRUE(got.safe());
  EXPECT_TRUE(got.live());
}

TEST(AuditSweep, SkipCountsAsDelayOnlyAfterAGap) {
  // A skip at the order right after its receipt superseded the message on
  // arrival (no delay); a skip two orders later means the message sat in the
  // buffer first (a delay, Definition 3).
  GlobalHistory h(3, 1);
  const WriteId w1 = h.add_write(0, 0, 1);
  const WriteId w2 = h.add_write(0, 0, 2);
  std::vector<RunEvent> events(10);
  const auto set = [&](std::size_t i, ProcessId at, EvKind kind, WriteId id) {
    events[i].order = i;
    events[i].at = at;
    events[i].kind = kind;
    events[i].write = id;
  };
  set(0, 0, EvKind::kApply, w1);
  set(1, 0, EvKind::kApply, w2);
  set(2, 1, EvKind::kReceipt, w1);
  set(3, 1, EvKind::kSkip, w1);  // next order: superseded on arrival
  set(4, 1, EvKind::kReceipt, w2);
  set(5, 1, EvKind::kApply, w2);
  set(6, 2, EvKind::kReceipt, w1);
  set(7, 2, EvKind::kReceipt, w2);
  set(8, 2, EvKind::kSkip, w1);  // two orders later: buffered, then skipped
  set(9, 2, EvKind::kApply, w2);
  const auto got = OptimalityAuditor::audit(h, events);
  expect_same(got, reference_audit(h, events, nullptr), "skips");
  EXPECT_EQ(got.per_proc[1].delayed, 0u);
  EXPECT_EQ(got.per_proc[2].delayed, 1u);
  ASSERT_EQ(got.incidents.size(), 1u);
  EXPECT_EQ(got.incidents[0].write, w1);
  EXPECT_FALSE(got.incidents[0].applied);
  EXPECT_TRUE(got.safe());
  EXPECT_TRUE(got.live());
}

TEST(AuditSweep, FirstUnrecordedDelayFlagsOnlyBufferedReceipts) {
  // audit() accepts a receipt of an unrecorded write that was not buffered,
  // but needs the causal past of every buffered one.
  GlobalHistory h(2, 1);
  (void)h.add_write(0, 0, 1);
  const WriteId unrecorded{0, 2};
  std::vector<RunEvent> events(2);
  const auto set = [&](std::size_t i, std::uint64_t order, EvKind kind) {
    events[i].order = order;
    events[i].at = 1;
    events[i].kind = kind;
    events[i].write = unrecorded;
  };
  set(0, 1, EvKind::kReceipt);
  set(1, 3, EvKind::kApply);
  EXPECT_FALSE(OptimalityAuditor::first_unrecorded_delay(h, events));
  EXPECT_EQ(OptimalityAuditor::audit(h, events).total_delayed(), 0u);
  events[1].delayed = true;  // now the apply drained it from the buffer
  EXPECT_EQ(OptimalityAuditor::first_unrecorded_delay(h, events),
            std::optional<std::size_t>{0});
}

}  // namespace
}  // namespace dsm
