#include "dsm/protocols/sharded.h"

#include <algorithm>

#include "dsm/common/contracts.h"

namespace dsm {

ShardedOptP::ShardedOptP(ProcessId self, std::size_t n_procs,
                         std::size_t n_vars, Endpoint& endpoint,
                         ProtocolObserver& observer,
                         std::shared_ptr<const SubscriptionMap> subscription,
                         std::size_t write_blob_size)
    : BufferingProtocol(self, n_procs, n_vars, endpoint, observer,
                        /*writing_semantics=*/false),
      subscription_(std::move(subscription)),
      knowledge_(n_procs, VectorClock{n_procs}),
      last_write_on_(n_vars),
      write_blob_size_(write_blob_size) {
  DSM_REQUIRE(subscription_ != nullptr);
  DSM_REQUIRE(subscription_->n_procs() == n_procs);
  DSM_REQUIRE(subscription_->n_vars() == n_vars);
}

void ShardedOptP::write(VarId x, Value v) {
  DSM_REQUIRE(x < n_vars_);
  DSM_REQUIRE(subscription_->is_subscriber(x, self_) &&
              "ShardedOptP::write: self must subscribe to x");
  ++stats_.writes_issued;

  // Tick the send counter toward every subscriber: this write is the next
  // q-relevant write by self for each q ∈ subs(x).  self ∈ subs(x) by the
  // contract above, so K[self][self] is a per-write unique sequence number.
  for (const ProcessId q : subscription_->subscribers(x)) {
    knowledge_[q].tick(self_);
  }
  const SeqNo seq = knowledge_[self_][self_];

  WriteUpdate& m = outgoing_;
  m.sender = self_;
  m.var = x;
  m.value = v;
  m.write_seq = seq;
  m.clock = knowledge_[self_];  // summary row; receivers wait on their own
  m.run = 0;
  m.meta_only = false;
  m.blob.assign(write_blob_size_, static_cast<std::uint8_t>(v));
  m.sub_deps.clear();
  for (ProcessId q = 0; q < n_procs_; ++q) {
    const auto row = knowledge_[q].components();
    for (ProcessId t = 0; t < n_procs_; ++t) {
      if (row[t] != 0) m.sub_deps.push_back(SubDep{q, t, row[t]});
    }
  }
  stamp_typed(m);

  observer_->on_send(self_, m);

  // Fig. 4 line 2, subscription-routed: one shared payload, one unicast per
  // foreign subscriber — never the full group.
  const Payload payload = encode_payload(m);
  for (const ProcessId q : subscription_->subscribers(x)) {
    if (q == self_) continue;
    endpoint_->send(q, payload);
    ++unicasts_sent_;
    dep_entries_shipped_ += m.sub_deps.size();
  }

  // Local apply (wait-free, liveness L1).
  (void)apply_own_write(x, v, seq, knowledge_[self_]);
  last_write_on_[x] = m.sub_deps;
}

ReadResult ShardedOptP::read(VarId x) {
  DSM_REQUIRE(x < n_vars_);
  DSM_REQUIRE(subscription_->is_subscriber(x, self_) &&
              "ShardedOptP::read: self must subscribe to x");
  ++stats_.reads_issued;

  // The merge-on-READ discipline (Fig. 5 read line 1), lifted to matrices:
  // only now does the last write's causal past enter self's — reading is the
  // only way foreign causality becomes self's obligation.
  for (const SubDep& d : last_write_on_[x]) {
    VectorClock& row = knowledge_[d.row];
    if (row[d.col] < d.seq) row[d.col] = d.seq;
  }

  const ReadResult result = peek(x);
  observer_->on_return(self_, x, result.value, result.writer);
  return result;
}

void ShardedOptP::localize(WriteUpdate& m) {
  // Routing contract: the sender unicasts to subs(var) only, so an update
  // arriving anywhere else is a dispatch bug, not a protocol state.
  DSM_REQUIRE(m.var < n_vars_);
  DSM_REQUIRE(subscription_->is_subscriber(m.var, self_) &&
              "ShardedOptP: update routed to a non-subscriber");

  // Row self of the dep matrix is the message's clock in this process's
  // counter space: entry t counts t's self-relevant writes in m's causal
  // past, entry m.sender is m's own self-relevant sequence number.  Entries
  // are sorted by (row, col); absent ones read as 0.
  VectorClock row(n_procs_);
  auto it = std::lower_bound(
      m.sub_deps.begin(), m.sub_deps.end(), self_,
      [](const SubDep& d, ProcessId r) { return d.row < r; });
  for (; it != m.sub_deps.end() && it->row == self_; ++it) {
    DSM_REQUIRE(it->col < n_procs_);
    row[it->col] = it->seq;
  }
  m.clock = std::move(row);
}

void ShardedOptP::post_apply(const WriteUpdate& m, bool /*installed*/) {
  last_write_on_[m.var] = m.sub_deps;
}

const VectorClock& ShardedOptP::knowledge_row(ProcessId q) const {
  DSM_REQUIRE(q < n_procs_);
  return knowledge_[q];
}

void ShardedOptP::snapshot(ByteWriter& w) const {
  BufferingProtocol::snapshot(w);
  for (const VectorClock& row : knowledge_) w.u64_vec(row.components());
  w.u64(last_write_on_.size());
  for (const auto& deps : last_write_on_) {
    w.u64(deps.size());
    for (const SubDep& d : deps) {
      w.u32(d.row);
      w.u32(d.col);
      w.u64(d.seq);
    }
  }
}

bool ShardedOptP::restore(ByteReader& r) {
  if (!BufferingProtocol::restore(r)) return false;
  for (VectorClock& row : knowledge_) {
    auto components = r.u64_vec();
    if (!components || components->size() != n_procs_) return false;
    row = VectorClock{std::move(*components)};
  }
  const auto vars = r.u64();
  if (!vars || *vars != last_write_on_.size()) return false;
  for (auto& deps : last_write_on_) {
    const auto count = r.u64();
    if (!count || *count > (1ULL << 24) || *count > r.remaining()) return false;
    deps.clear();
    deps.reserve(static_cast<std::size_t>(*count));
    for (std::uint64_t i = 0; i < *count; ++i) {
      const auto row = r.u32();
      const auto col = r.u32();
      const auto seq = r.u64();
      if (!row || !col || !seq) return false;
      deps.push_back(SubDep{*row, *col, *seq});
    }
  }
  return true;
}

}  // namespace dsm
