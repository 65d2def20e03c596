// perfbench — latency distributions read off a recorded event log.
//
// Every tier records the same observer events (send, receipt, apply, skip)
// with a timestamp; the functions here turn one log into the per-write
// latencies the benchmark reports:
//
//   visible      send at the issuer → apply (or skip) at the LAST replica
//   mean_remote  send → apply/skip, averaged over the other replicas
//   transit      send → receipt at each other replica
//   buffer_wait  receipt → apply of a delayed write at one replica
//
// Timestamps are compared across replicas, so they must share a clock: the
// simulator's virtual time and ThreadCluster's steady clock do.  Forked
// process nodes each count from their own loop epoch; `align` estimates the
// per-node offsets from the logs themselves (NTP-style: the minimum one-way
// delay in each direction of a pair is assumed equal), which is accurate to
// half the difference of the two minimum transit times.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsm/protocols/run_recorder.h"

namespace perfbench {

struct EventAnalysis {
  std::vector<double> visible;      ///< µs, one per fully applied write
  std::vector<double> mean_remote;  ///< µs, one per fully applied write
  std::vector<double> transit;      ///< µs, one per (write, other replica)
  std::vector<double> buffer_wait;  ///< µs, one per delayed apply
  std::uint64_t writes = 0;         ///< writes with a send event
  std::uint64_t incomplete = 0;     ///< writes missing at some replica
  std::uint64_t receipts = 0;
  std::uint64_t delayed = 0;        ///< applies flagged as buffered
  /// Per-process clock offset added to its event times (µs; all 0 unless
  /// aligned).
  std::vector<double> offsets_us;
};

/// `events` timestamps are `units_per_us` units per microsecond (1 for the
/// simulator, 1000 for ThreadCluster's nanoseconds).  With `align`, each
/// process's times are shifted onto process 0's clock first.
[[nodiscard]] EventAnalysis analyze_events(std::span<const dsm::RunEvent> events,
                                           std::size_t n_procs,
                                           double units_per_us,
                                           bool align = false);

}  // namespace perfbench
