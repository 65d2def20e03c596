// optcm — PartialOptP: OptP over partially replicated variables (after the
// paper's reference [14], Raynal–Singhal, "Exploiting Write Semantics in
// Implementing Partially Replicated Causal Objects").
//
// Design: *metadata-full, data-partial*.  Every write is still announced to
// every process — the Fig. 5 wait condition needs complete per-sender Apply
// counters, and [14]'s own protocols pay an equivalent control-plane cost —
// but only the variable's replicas receive the value and its payload blob;
// everyone else gets a metadata-only copy (a few bytes).  Consequences:
//
//   * safety/optimality are inherited verbatim: the enabling condition and
//     Write_co algebra are untouched (a metadata apply IS the apply event of
//     the paper's model; installing the value is a replica-local effect);
//   * reads and writes of a variable are restricted to its replicas
//     (enforced by contract — routing reads to remote replicas is an RPC
//     concern outside the paper's wait-free-read model);
//   * the data-plane saving is (1 − factor/n) of the blob traffic, measured
//     by bench/exp_partial.
//
// The placement is a SubscriptionMap (subscribers = replicas), the same map
// type ShardedOptP routes on; under SubscriptionMap::full the protocol is
// byte-for-byte OptP.  Against ShardedOptP it trades messages for bytes: it
// pays n−1 messages per write, but each carries an n-vector where
// ShardedOptP ships an n×n dependency matrix, so its bytes per write stay
// lower at high replication factors (bench/exp_partial, by_factor cell).

#pragma once

#include <memory>

#include "dsm/protocols/optp.h"
#include "dsm/protocols/subscription.h"

namespace dsm {

class PartialOptP final : public OptP {
 public:
  PartialOptP(ProcessId self, std::size_t n_procs, std::size_t n_vars,
              Endpoint& endpoint, ProtocolObserver& observer,
              std::shared_ptr<const SubscriptionMap> subscription,
              bool writing_semantics = false, std::size_t write_blob_size = 0);

  /// Requires self to be a replica of x.
  void write(VarId x, Value v) override;

  /// Requires self to be a replica of x.
  ReadResult read(VarId x) override;

  [[nodiscard]] std::string name() const override { return "optp-partial"; }

  [[nodiscard]] const SubscriptionMap& subscription() const noexcept {
    return *subscription_;
  }

 private:
  std::shared_ptr<const SubscriptionMap> subscription_;
};

}  // namespace dsm
