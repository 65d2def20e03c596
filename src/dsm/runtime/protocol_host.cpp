#include "dsm/runtime/protocol_host.h"

#include "dsm/codec/codec.h"
#include "dsm/common/contracts.h"
#include "dsm/telemetry/telemetry.h"

namespace dsm {

ProtocolHost::ProtocolHost(const Shape& shape, Endpoint& lower,
                           ProtocolObserver& observer, RunTelemetry* telemetry)
    : shape_(shape),
      lower_(&lower),
      observer_(&observer),
      telemetry_(telemetry) {
  DSM_REQUIRE(shape.self < shape.n_procs);
  build();
}

void ProtocolHost::build() {
  if (shape_.recoverable) {
    DSM_REQUIRE(shape_.kind != ProtocolKind::kOptPSharded &&
                "recoverable hosts cannot run optp-sharded: a subscriber's "
                "per-sender catch-up log has holes (docs/FAULTS.md)");
    recovery_ = std::make_unique<RecoveryNode>(shape_.self, shape_.n_procs,
                                               *lower_);
    protocol_ =
        make_protocol(shape_.kind, shape_.self, shape_.n_procs, shape_.n_vars,
                      *recovery_, *observer_, shape_.protocol_config);
    buffering_ = dynamic_cast<BufferingProtocol*>(protocol_.get());
    DSM_REQUIRE(buffering_ != nullptr &&
                "recoverable hosts need a class-P buffering protocol; a "
                "crashed token holder would require an election");
    recovery_->set_protocol(*buffering_);
    recovery_->set_checkpoint_hook([this] { note_mutation(); });
  } else {
    protocol_ =
        make_protocol(shape_.kind, shape_.self, shape_.n_procs, shape_.n_vars,
                      *lower_, *observer_, shape_.protocol_config);
  }
  if (telemetry_ != nullptr)
    protocol_->set_instrumentation(&telemetry_->instrumentation(shape_.self));
  up_ = true;
}

void ProtocolHost::start() {
  DSM_REQUIRE(up_);
  protocol_->start();
  // Time-zero baseline: a host killed before its first operation still
  // restores to a well-formed (empty) state.
  if (shape_.recoverable) checkpoint();
}

void ProtocolHost::start_restored(std::span<const std::uint8_t> blob) {
  DSM_REQUIRE(shape_.recoverable);
  DSM_REQUIRE(up_);
  ByteReader r(blob);
  DSM_REQUIRE(protocol_->restore(r));
  DSM_REQUIRE(recovery_->restore(r));
  DSM_REQUIRE(r.exhausted());
  recovery_->request_catch_up();
  checkpoint();
}

void ProtocolHost::deliver(ProcessId from, std::span<const std::uint8_t> bytes) {
  if (!up_) {
    // Crashed host: the message is lost; catch-up repairs it later.
    ++dropped_while_down_;
    return;
  }
  if (recovery_ != nullptr) {
    recovery_->deliver(from, bytes);
  } else {
    protocol_->on_message(from, bytes);
  }
}

void ProtocolHost::note_mutation() {
  DSM_REQUIRE(shape_.recoverable);
  if (++mutations_since_checkpoint_ < shape_.durability.checkpoint_every) {
    return;
  }
  checkpoint();
}

void ProtocolHost::checkpoint() {
  DSM_REQUIRE(shape_.recoverable);
  DSM_REQUIRE(protocol_ != nullptr);
  ByteWriter w;
  protocol_->snapshot(w);
  recovery_->snapshot(w);
  checkpoint_ = std::move(w).take();
  mutations_since_checkpoint_ = 0;
  if (telemetry_ != nullptr)
    telemetry_->record_checkpoint(shape_.self, checkpoint_.size());
  if (spill_ && ++checkpoints_since_spill_ >= shape_.durability.snapshot_every) {
    checkpoints_since_spill_ = 0;
    spill_();
  }
}

void ProtocolHost::kill() {
  DSM_REQUIRE(shape_.recoverable);
  DSM_REQUIRE(up_ && "kill() on an already-killed host");
  // The dying incarnation's counters survive in the accumulators (stats are
  // volatile by design — they are not part of the checkpoint).
  stats_acc_ += protocol_->stats();
  rec_acc_ += recovery_->stats();
  if (telemetry_ != nullptr) {
    telemetry_->record_crash(shape_.self);
    telemetry_->fold_recovery(shape_.self, recovery_->stats());
  }
  protocol_.reset();
  buffering_ = nullptr;
  recovery_.reset();
  up_ = false;
}

void ProtocolHost::restart() {
  DSM_REQUIRE(shape_.recoverable);
  DSM_REQUIRE(!up_ && "restart() on a live host");
  if (telemetry_ != nullptr) telemetry_->record_restart(shape_.self);
  build();
  ByteReader r(checkpoint_);
  DSM_REQUIRE(protocol_->restore(r));
  DSM_REQUIRE(recovery_->restore(r));
  DSM_REQUIRE(r.exhausted());
  recovery_->request_catch_up();
  checkpoint();
}

CausalProtocol& ProtocolHost::protocol() const {
  DSM_REQUIRE(up_ && protocol_ != nullptr);
  return *protocol_;
}

ProtocolStats ProtocolHost::stats() const {
  ProtocolStats s = stats_acc_;
  if (protocol_ != nullptr) s += protocol_->stats();
  return s;
}

RecoveryStats ProtocolHost::recovery_stats() const {
  RecoveryStats s = rec_acc_;
  if (recovery_ != nullptr) s += recovery_->stats();
  return s;
}

}  // namespace dsm
