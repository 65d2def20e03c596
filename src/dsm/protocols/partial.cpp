#include "dsm/protocols/partial.h"

#include "dsm/common/contracts.h"

namespace dsm {

PartialOptP::PartialOptP(ProcessId self, std::size_t n_procs,
                         std::size_t n_vars, Endpoint& endpoint,
                         ProtocolObserver& observer,
                         std::shared_ptr<const SubscriptionMap> subscription,
                         bool writing_semantics, std::size_t write_blob_size)
    : OptP(self, n_procs, n_vars, endpoint, observer, writing_semantics,
           write_blob_size),
      subscription_(std::move(subscription)) {
  DSM_REQUIRE(subscription_ != nullptr);
  DSM_REQUIRE(subscription_->n_procs() == n_procs);
  DSM_REQUIRE(subscription_->n_vars() == n_vars);
}

void PartialOptP::write(VarId x, Value v) {
  DSM_REQUIRE(subscription_->is_subscriber(x, self_) &&
              "writes are restricted to the variable's replicas");
  const WriteUpdate& full = prepare_write(x, v);

  // Metadata-only twin for non-replicas: same clock, no value payload.
  WriteUpdate meta = full;
  meta.meta_only = true;
  meta.blob.clear();

  // Two shared payloads; each receiver gets a refcount, not a byte copy.
  const Payload full_bytes = encode_payload(full);
  const Payload meta_bytes = encode_payload(meta);
  for (ProcessId to = 0; to < n_procs_; ++to) {
    if (to == self_) continue;
    endpoint_->send(to, subscription_->is_subscriber(x, to) ? full_bytes
                                                            : meta_bytes);
  }

  finish_write(full);
}

ReadResult PartialOptP::read(VarId x) {
  DSM_REQUIRE(subscription_->is_subscriber(x, self_) &&
              "reads are restricted to the variable's replicas");
  return OptP::read(x);
}

}  // namespace dsm
