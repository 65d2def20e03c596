// optcm — the write-delay optimality auditor (paper Definitions 3–5).
//
// Given a recorded run — the GlobalHistory plus the ordered event log — the
// auditor judges the protocol that produced it, using only the paper's
// definitions and the independently recomputed ↦co:
//
//   * Definition 3 (write delay): a write w suffers a delay at p_k iff some
//     enabling event of apply_k(w) had not occurred when receipt_k(w) did.
//     Operationally: the protocol buffered the message (the `delayed` flag
//     on the apply event, cross-checked against event order).
//   * A delay is NECESSARY iff some write w' ↦co w had not yet been applied
//     at p_k at receipt_k(w) — no safe protocol can avoid it.
//   * A delay is UNNECESSARY (false causality) otherwise: every write in
//     X_co-safe(apply_k(w)) was already applied, yet the protocol waited.
//     Definition 5: a safe protocol is write-delay optimal iff it never
//     produces an unnecessary delay, in any run.
//
// The auditor also checks SAFETY (applies at every process extend ↦co
// restricted to writes, with writing-semantics skips counting as logical
// applies at the instant of the skip) and LIVENESS (every write applied or
// skipped everywhere by end of run).
//
// Cost: one sweep over the event log in ascending `order`, keeping per
// process a bitset of the writes applied so far.  At each first apply of a
// at p_k, the set bits of row(a) ∧ applied_k are exactly the safety
// violations; at each buffered receipt of w, past(w) ∧ subscribed_k ∧
// ¬applied_k decides Definition 3's necessity and its lowest bit is the
// witness (past is the closure's write-only transpose, built per audit).
// O(E log E + E·N/64 + n·N) for E events, N operations and n processes,
// plus one bit store per ↦co-ordered pair of writes for the transpose —
// where checking every ↦co pair at every process cost O(n·W²) hash lookups.
// docs/PERF.md §5 has the measurements; tests/test_audit_sweep.cpp keeps the
// pairwise reading as a differential oracle.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dsm/history/co_relation.h"
#include "dsm/protocols/run_recorder.h"
#include "dsm/protocols/subscription.h"

namespace dsm {

/// One buffered message, classified.
struct DelayIncident {
  ProcessId at = 0;
  WriteId write;
  bool necessary = false;
  /// For necessary delays: a witness w' ↦co w not yet applied at receipt.
  WriteId witness;
  /// Receipt order (global sequence) — for duration metrics.
  std::uint64_t receipt_order = 0;
  std::uint64_t receipt_time = 0;
  /// Apply order/time; equal to receipt on discarded (never-applied) writes.
  std::uint64_t apply_order = 0;
  std::uint64_t apply_time = 0;
  bool applied = true;  ///< false when the write was skipped after buffering
};

struct ProcessAudit {
  ProcessId proc = 0;
  std::uint64_t remote_messages = 0;
  std::uint64_t delayed = 0;
  std::uint64_t necessary = 0;
  std::uint64_t unnecessary = 0;
};

struct AuditReport {
  std::vector<ProcessAudit> per_proc;
  std::vector<DelayIncident> incidents;
  std::vector<std::string> safety_violations;
  std::vector<std::string> liveness_violations;

  [[nodiscard]] std::uint64_t total_remote() const;
  [[nodiscard]] std::uint64_t total_delayed() const;
  [[nodiscard]] std::uint64_t total_necessary() const;
  [[nodiscard]] std::uint64_t total_unnecessary() const;

  [[nodiscard]] bool safe() const noexcept { return safety_violations.empty(); }
  [[nodiscard]] bool live() const noexcept { return liveness_violations.empty(); }
  /// Definition 5 verdict for this run.
  [[nodiscard]] bool write_delay_optimal() const {
    return safe() && total_unnecessary() == 0;
  }
};

class OptimalityAuditor {
 public:
  /// Audits a recorded run.  Requires the history's ↦co to be acyclic (runs
  /// of correct protocols always are; the consistency checker reports the
  /// precise violation otherwise), every receipt/apply/skip event to name a
  /// process of the history, and every buffered write to be in it.
  [[nodiscard]] static AuditReport audit(const RunRecorder& recorder);

  /// With a subscription map (subscription-routed runs): the liveness
  /// obligation for a write narrows to its variable's subscribers, and the
  /// necessity witness search skips causal-past writes the delayed process
  /// does not subscribe to (they never apply there — a subscription-trimmed
  /// wait condition covers them transitively through the dep matrix).
  /// nullptr = the full-replication obligations, unchanged.
  [[nodiscard]] static AuditReport audit(
      const GlobalHistory& history, const std::vector<RunEvent>& events,
      const SubscriptionMap* subscription = nullptr);

  /// Log position of the first receipt audit() cannot classify: one whose
  /// message was buffered although the history lacks its write (Definition
  /// 3 needs the write's causal past).  nullopt when every buffered receipt
  /// cites a recorded write.  Imported traces check this before auditing.
  [[nodiscard]] static std::optional<std::size_t> first_unrecorded_delay(
      const GlobalHistory& history, const std::vector<RunEvent>& events);

  /// The message floor a subscription-routed run cannot beat (after Xiang &
  /// Vaidya's lower bound): every write must reach each foreign subscriber
  /// of its variable at least once, so Σ_w (|subs(var(w))| − 1) update
  /// messages are necessary.  A protocol matching it is message-optimal for
  /// the map; bench/exp_partial checks ShardedOptP hits it exactly.
  [[nodiscard]] static std::uint64_t message_floor(
      const GlobalHistory& history, const SubscriptionMap& subscription);
};

}  // namespace dsm
