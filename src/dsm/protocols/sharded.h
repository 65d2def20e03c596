// optcm — ShardedOptP: subscription-routed OptP (after Xiang & Vaidya,
// "Partial Replication: Causal Consistency, Lower Bounds and an Optimal
// Algorithm"; see PAPERS.md).
//
// Where PartialOptP is metadata-full — every write still broadcasts an O(n)
// control message so the Fig. 5 wait condition can keep complete per-sender
// Apply counters — ShardedOptP routes each write only to its variable's
// subscription set.  Both the message count and the carried metadata then
// scale with |subs(x)|, not with n.
//
// Data structures (per process i; `q-relevant` means "on a variable q
// subscribes to"):
//
//   K[1..n][1..n]     — the causal-knowledge matrix.  K[q][t] = s means:
//                       t's s-th q-relevant write is in my causal past.
//                       Row self doubles as the per-subscriber send counter:
//                       a write of x ticks K[q][self] for every q ∈ subs(x).
//   Apply[1..n]       — Apply[t] = number of t's self-relevant writes applied
//                       here (BufferingProtocol::applied_, the
//                       subscription-trimmed Apply[] of Fig. 5).
//   LastWriteOn[1..m] — the dependency matrix of the last write applied to
//                       x_h here (sparse; merged into K on READ, never on
//                       apply — the paper's false-causality discipline).
//
// WRITE(x, v): tick K[q][self] ∀q ∈ subs(x); ship the nonzero entries of K
//   as the message's dep matrix; unicast to subs(x) − self; apply locally.
//
// READ(x): K := max(K, LastWriteOn[x]) entry-wise; return the local copy.
//
// On receipt of m from u at subscriber q = self (Fig. 5 with "writes by t"
// narrowed to "writes by t relevant to me"):
//   wait until  Apply[u] = m.dep[self][u] − 1
//               ∧ ∀t≠u : m.dep[self][t] ≤ Apply[t];
//   then apply;  Apply[u] := m.dep[self][u];  LastWriteOn[x] := m.dep.
//
// That is OptP's wait condition over row self of the dep matrix, so the
// receive side is BufferingProtocol's: the localize() hook checks routing and
// replaces m.clock with that row, and the shared indexed drain does the rest.
//
// Why a full matrix and not just row self?  A causal chain can pass through
// processes that share no variable with the final receiver (t writes x with
// subs {t,r,q}; r reads x, writes y with subs {r,p}; p reads y, writes z
// with subs {p,q}) — q must still order z after x's write, and only matrix
// rows propagated through the chain convey that.  This is exactly the
// metadata Xiang & Vaidya prove necessary; with a full subscription map
// every row evolves identically to Write_co and the protocol degenerates to
// OptP (same events, same wait outcomes).
//
// Contracts: reads and writes of x require self ∈ subs(x) (DSM_REQUIRE, as
// PartialOptP does for its map); an update arriving at a non-subscriber is a
// routing bug and also aborts.  Crash recovery is refused: RecoveryNode's
// per-sender catch-up log is indexed by write_seq, and a subscriber sees only
// the writes of its own variables, so the log has holes a catch-up could
// never fill.  ProtocolHost and run_sim abort on a recoverable sharded host.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dsm/protocols/buffering.h"
#include "dsm/protocols/subscription.h"

namespace dsm {

class ShardedOptP final : public BufferingProtocol {
 public:
  ShardedOptP(ProcessId self, std::size_t n_procs, std::size_t n_vars,
              Endpoint& endpoint, ProtocolObserver& observer,
              std::shared_ptr<const SubscriptionMap> subscription,
              std::size_t write_blob_size = 0);

  /// Requires self ∈ subs(x).
  void write(VarId x, Value v) override;

  /// Requires self ∈ subs(x).
  ReadResult read(VarId x) override;

  [[nodiscard]] std::string name() const override { return "optp-sharded"; }

  void snapshot(ByteWriter& w) const override;
  [[nodiscard]] bool restore(ByteReader& r) override;

  [[nodiscard]] const SubscriptionMap& subscription() const noexcept {
    return *subscription_;
  }

  /// Row q of the knowledge matrix (exposed for the degeneration tests:
  /// under a full map every row equals OptP's Write_co).
  [[nodiscard]] const VectorClock& knowledge_row(ProcessId q) const;

  /// Unicast update messages actually handed to the transport (the O(|subs|)
  /// claim the bench verifies) and dep-matrix entries shipped with them (the
  /// metadata the auditor checks against the Xiang–Vaidya floor).
  [[nodiscard]] std::uint64_t unicasts_sent() const noexcept {
    return unicasts_sent_;
  }
  [[nodiscard]] std::uint64_t dep_entries_shipped() const noexcept {
    return dep_entries_shipped_;
  }

 private:
  /// Routing checks, then m.clock := row self of m's dep matrix.
  void localize(WriteUpdate& m) override;
  void post_apply(const WriteUpdate& m, bool installed) override;

  std::shared_ptr<const SubscriptionMap> subscription_;
  std::vector<VectorClock> knowledge_;      ///< K, row-major [q][t]
  std::vector<std::vector<SubDep>> last_write_on_;  ///< sparse, per variable
  std::size_t write_blob_size_;
  WriteUpdate outgoing_;  ///< write() scratch (buffer reuse)
  std::uint64_t unicasts_sent_ = 0;
  std::uint64_t dep_entries_shipped_ = 0;
};

}  // namespace dsm
