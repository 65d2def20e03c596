// optcm — placement maps for the partial-replication protocols (after
// Raynal–Singhal [14] and Xiang & Vaidya, "Partial Replication: Causal
// Consistency, Lower Bounds and an Optimal Algorithm"; see PAPERS.md).
//
// A SubscriptionMap fixes, per variable, the set of processes *interested*
// in it — the ones that hold its value.  Both partial protocols take one:
//
//   * PartialOptP trims only the data plane: subscribers get the value and
//     payload blob, everyone else a metadata-only copy, so the Fig. 5 wait
//     condition keeps complete n-vector Apply counters;
//   * ShardedOptP routes on it: a write of x goes to subs(x) and to nobody
//     else, so the message count scales with subscription size, not
//     cluster size (at the price of an n×n dependency matrix per message).
//
// The map is immutable after construction (membership changes are outside
// the paper's model).
//
// Access contract: a process may only read or write variables it subscribes
// to (both protocols enforce it with DSM_REQUIRE).

#pragma once

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dsm/common/contracts.h"
#include "dsm/common/types.h"

namespace dsm {

class SubscriptionMap {
 public:
  /// Every process subscribes to every variable (both partial protocols
  /// then behave exactly like OptP, up to ShardedOptP's metadata bytes).
  [[nodiscard]] static SubscriptionMap full(std::size_t n_procs,
                                            std::size_t n_vars) {
    SubscriptionMap map(n_procs, n_vars);
    for (auto& row : map.subs_) row.assign(n_procs, true);
    map.label_ = "full";
    return map;
  }

  /// `groups` disjoint shards: group g owns the contiguous process block
  /// [g·n/G, (g+1)·n/G) and the variables {v : v mod G == g}.  Contiguous
  /// process blocks line up with ShardHost packing, so a disjoint map keeps
  /// every frame inside one host's ring mesh (zero cross-shard frames).
  [[nodiscard]] static SubscriptionMap disjoint(std::size_t n_procs,
                                                std::size_t n_vars,
                                                std::size_t groups) {
    DSM_REQUIRE(groups >= 1);
    DSM_REQUIRE(groups <= n_procs);
    DSM_REQUIRE(groups <= n_vars);
    SubscriptionMap map(n_procs, n_vars);
    for (VarId v = 0; v < n_vars; ++v) {
      const std::size_t g = v % groups;
      const std::size_t lo = g * n_procs / groups;
      const std::size_t hi = (g + 1) * n_procs / groups;
      for (std::size_t p = lo; p < hi; ++p) map.subs_[v][p] = true;
    }
    map.label_ = "disjoint(" + std::to_string(groups) + ")";
    return map;
  }

  /// Chained declustering: variable v lives on the `factor` consecutive
  /// processes starting at v mod n_procs.
  [[nodiscard]] static SubscriptionMap chained(std::size_t n_procs,
                                               std::size_t n_vars,
                                               std::size_t factor) {
    DSM_REQUIRE(factor >= 1);
    DSM_REQUIRE(factor <= n_procs);
    SubscriptionMap map(n_procs, n_vars);
    for (VarId v = 0; v < n_vars; ++v) {
      for (std::size_t i = 0; i < factor; ++i) {
        map.subs_[v][(v + i) % n_procs] = true;
      }
    }
    map.label_ = "chained(" + std::to_string(factor) + ")";
    return map;
  }

  /// Parse a CLI spec: "full", "disjoint:G", "chained:F", or an explicit
  /// per-variable list "v:p,p;v:p,p" covering every variable (e.g.
  /// "0:0,1;1:1,2").  Returns nullopt (with a reason in *error) on a
  /// malformed or out-of-range spec; never aborts, so the CLI can
  /// pre-validate.
  [[nodiscard]] static std::optional<SubscriptionMap> parse(
      std::string_view spec, std::size_t n_procs, std::size_t n_vars,
      std::string* error = nullptr) {
    const auto fail = [&](const std::string& why) {
      if (error != nullptr) *error = why;
      return std::nullopt;
    };
    if (n_procs < 1 || n_vars < 1) return fail("empty process or var space");
    if (spec == "full") return full(n_procs, n_vars);
    if (spec.rfind("disjoint:", 0) == 0) {
      std::size_t groups = 0;
      if (!parse_uint(spec.substr(9), &groups) || groups < 1) {
        return fail("disjoint:G needs an integer G >= 1");
      }
      if (groups > n_procs || groups > n_vars) {
        return fail("disjoint:" + std::to_string(groups) + " exceeds " +
                    std::to_string(n_procs) + " procs / " +
                    std::to_string(n_vars) + " vars");
      }
      return disjoint(n_procs, n_vars, groups);
    }
    if (spec.rfind("chained:", 0) == 0) {
      std::size_t factor = 0;
      if (!parse_uint(spec.substr(8), &factor) || factor < 1) {
        return fail("chained:F needs an integer F >= 1");
      }
      if (factor > n_procs) {
        return fail("chained:" + std::to_string(factor) + " exceeds " +
                    std::to_string(n_procs) + " procs");
      }
      return chained(n_procs, n_vars, factor);
    }
    // Explicit list: semicolon-separated "var:proc,proc" entries.
    SubscriptionMap map(n_procs, n_vars);
    std::vector<bool> seen(n_vars, false);
    std::size_t pos = 0;
    while (pos < spec.size()) {
      const auto semi = spec.find(';', pos);
      const std::string_view entry =
          spec.substr(pos, semi == std::string_view::npos ? spec.size() - pos
                                                          : semi - pos);
      pos = semi == std::string_view::npos ? spec.size() : semi + 1;
      const auto colon = entry.find(':');
      if (colon == std::string_view::npos) {
        return fail("entry \"" + std::string(entry) + "\" missing ':'");
      }
      std::size_t var = 0;
      if (!parse_uint(entry.substr(0, colon), &var) || var >= n_vars) {
        return fail("bad variable in \"" + std::string(entry) + "\"");
      }
      if (seen[var]) {
        return fail("variable " + std::to_string(var) + " listed twice");
      }
      seen[var] = true;
      std::string_view procs = entry.substr(colon + 1);
      std::size_t count = 0;
      std::size_t ppos = 0;
      while (ppos <= procs.size()) {
        const auto comma = procs.find(',', ppos);
        const std::string_view tok =
            procs.substr(ppos, comma == std::string_view::npos
                                   ? procs.size() - ppos
                                   : comma - ppos);
        ppos = comma == std::string_view::npos ? procs.size() + 1 : comma + 1;
        std::size_t p = 0;
        if (!parse_uint(tok, &p) || p >= n_procs) {
          return fail("bad process in \"" + std::string(entry) + "\"");
        }
        map.subs_[var][p] = true;
        ++count;
      }
      if (count == 0) {
        return fail("variable " + std::to_string(var) + " has no subscribers");
      }
    }
    for (VarId v = 0; v < n_vars; ++v) {
      if (!seen[v]) {
        return fail("variable " + std::to_string(v) +
                    " missing from explicit spec");
      }
    }
    map.label_ = "explicit";
    return map;
  }

  [[nodiscard]] bool is_subscriber(VarId var, ProcessId proc) const {
    DSM_REQUIRE(var < subs_.size());
    DSM_REQUIRE(proc < n_procs_);
    return subs_[var][proc];
  }

  [[nodiscard]] std::vector<ProcessId> subscribers(VarId var) const {
    DSM_REQUIRE(var < subs_.size());
    std::vector<ProcessId> out;
    for (ProcessId p = 0; p < n_procs_; ++p) {
      if (subs_[var][p]) out.push_back(p);
    }
    return out;
  }

  /// Variables this process subscribes to; drives subscription-aware
  /// workload generation and the auditor's liveness obligation.
  [[nodiscard]] std::vector<VarId> vars_of(ProcessId proc) const {
    std::vector<VarId> out;
    for (VarId v = 0; v < subs_.size(); ++v) {
      if (subs_[v][proc]) out.push_back(v);
    }
    return out;
  }

  [[nodiscard]] std::size_t n_procs() const noexcept { return n_procs_; }
  [[nodiscard]] std::size_t n_vars() const noexcept { return subs_.size(); }

  [[nodiscard]] bool is_full() const {
    for (const auto& row : subs_) {
      for (const bool b : row) {
        if (!b) return false;
      }
    }
    return true;
  }

  /// Average subscribers per variable — the fan-out a write pays.
  [[nodiscard]] double mean_size() const {
    std::size_t total = 0;
    for (const auto& row : subs_) {
      for (const bool b : row) total += b;
    }
    return subs_.empty()
               ? 0.0
               : static_cast<double>(total) / static_cast<double>(subs_.size());
  }

  [[nodiscard]] const std::string& describe() const noexcept { return label_; }

 private:
  SubscriptionMap(std::size_t n_procs, std::size_t n_vars)
      : n_procs_(n_procs), subs_(n_vars, std::vector<bool>(n_procs, false)) {
    DSM_REQUIRE(n_procs >= 1);
    DSM_REQUIRE(n_vars >= 1);
  }

  static bool parse_uint(std::string_view tok, std::size_t* out) {
    if (tok.empty()) return false;
    std::size_t v = 0;
    for (const char c : tok) {
      if (c < '0' || c > '9') return false;
      v = v * 10 + static_cast<std::size_t>(c - '0');
    }
    *out = v;
    return true;
  }

  std::size_t n_procs_;
  std::vector<std::vector<bool>> subs_;  // [var][proc]
  std::string label_ = "explicit";
};

}  // namespace dsm
