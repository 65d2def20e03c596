// optcm — random workload generation.
//
// Produces per-process scripts from a seeded specification.  The access
// pattern controls how much read-coupling (and therefore how much genuine
// ↦co structure) the workload creates:
//
//   * kUniform      — every op picks a uniform variable; moderate coupling.
//   * kZipf         — skewed popularity (exponent zipf_s); hot variables
//                     create long read-from chains.
//   * kPartitioned  — each process writes (mostly) its own variable shard
//                     and reads anywhere: little cross-process write
//                     coupling, lots of ‖co concurrency — the regime where
//                     ANBKH's false causality is most wasteful.
//   * kHotspot      — a fraction of accesses hit variable 0, the rest
//                     uniform; the classic contended-counter shape.
//
// Write values are globally unique (encode issuer and sequence), which makes
// histories easy to eyeball in traces.

#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dsm/common/rng.h"
#include "dsm/objects/schema.h"
#include "dsm/protocols/subscription.h"
#include "dsm/workload/script.h"

namespace dsm {

enum class AccessPattern : std::uint8_t {
  kUniform,
  kZipf,
  kPartitioned,
  kHotspot,
};

[[nodiscard]] const char* to_string(AccessPattern p) noexcept;

struct WorkloadSpec {
  std::size_t n_procs = 4;
  std::size_t n_vars = 8;
  std::size_t ops_per_proc = 100;
  double write_fraction = 0.5;   ///< probability an op is a write
  AccessPattern pattern = AccessPattern::kUniform;
  double zipf_s = 0.9;           ///< kZipf exponent
  double hotspot_fraction = 0.2; ///< kHotspot: probability of hitting var 0
  double remote_write_fraction = 0.1;  ///< kPartitioned: writes off own shard
  SimTime mean_gap = sim_us(500);///< exponential think time between ops
  std::uint64_t seed = 1;

  [[nodiscard]] std::string describe() const;
};

/// Deterministic: equal specs yield equal scripts.
[[nodiscard]] std::vector<Script> generate_workload(const WorkloadSpec& spec);

/// Subscription-aware variant for PartialOptP and ShardedOptP: every
/// process only reads and writes variables it subscribes to.  Honors the
/// spec's pattern over the process's subscribed set — kZipf skews
/// popularity by the variable's rank within that set (exponent zipf_s),
/// everything else picks uniformly.  Requires every process to subscribe to
/// at least one variable.
[[nodiscard]] std::vector<Script> generate_subscriber_workload(
    const WorkloadSpec& spec, const SubscriptionMap& map);

/// Typed-workload operation mix: relative integer weights over four
/// operation categories, mapped per variable spec:
///
///   | category      | register | counter | cas-register     | log    | set      |
///   | R accessor    | r        | get     | r                | scan   | contains |
///   | W mutation    | w        | inc     | w                | append | add      |
///   | C conditional | w        | inc     | cas              | append | add      |
///   | A anti        | w        | dec     | w                | append | remove   |
///
/// Specs without a conditional/anti operation fold those categories into
/// their primary mutation, so one mix string drives a heterogeneous schema.
struct ObjectMix {
  std::uint32_t reads = 6;
  std::uint32_t writes = 2;
  std::uint32_t cond = 1;
  std::uint32_t anti = 1;

  /// Parses "R:W:C:A" (non-negative integers, at least one positive),
  /// e.g. "6:2:1:1".  Nullopt + *error on malformed input.
  [[nodiscard]] static std::optional<ObjectMix> parse(
      std::string_view text, std::string* error = nullptr);

  [[nodiscard]] std::string str() const;
};

/// Typed-object workload over `schema`: every op draws its variable from a
/// Zipf(spec.zipf_s) popularity ranking (rank 0 = x1; s = 0 is uniform) and
/// its category from `mix`.  Mutation operands come from a small domain
/// (0..9) so CAS races and set membership flips actually collide; register
/// variables fall back to plain uniquely-valued write/read steps.
/// Deterministic: equal (spec, schema, mix) yield equal scripts.
[[nodiscard]] std::vector<Script> generate_mixed_object_workload(
    const WorkloadSpec& spec, const ObjectSchema& schema, const ObjectMix& mix);

}  // namespace dsm
