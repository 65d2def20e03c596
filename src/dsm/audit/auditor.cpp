#include "dsm/audit/auditor.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "dsm/common/contracts.h"
#include "dsm/common/format.h"

namespace dsm {
namespace {

constexpr std::uint32_t kNone = ~std::uint32_t{0};

[[nodiscard]] bool is_apply(EvKind k) noexcept {
  return k == EvKind::kApply || k == EvKind::kSkip;
}

/// Equal-length rows of packed bits over OpRefs (bit b%64 of word b/64).
class BitRows {
 public:
  BitRows(std::size_t rows, std::size_t cols)
      : words_((cols + 63) / 64), bits_(rows * words_, 0) {}

  [[nodiscard]] std::span<const std::uint64_t> row(std::size_t r) const {
    return {bits_.data() + r * words_, words_};
  }
  void set(std::size_t r, std::size_t c) {
    bits_[r * words_ + c / 64] |= std::uint64_t{1} << (c % 64);
  }

 private:
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

[[nodiscard]] OpRef bit_at(std::size_t word_index, std::uint64_t word) {
  return static_cast<OpRef>(word_index * 64 + static_cast<std::size_t>(
                                                  std::countr_zero(word)));
}

/// Calls f(b) for every bit b set in `a`, ascending.
template <typename F>
void for_each_bit(std::span<const std::uint64_t> a, F&& f) {
  for (std::size_t w = 0; w < a.size(); ++w) {
    for (std::uint64_t word = a[w]; word != 0; word &= word - 1) {
      f(bit_at(w, word));
    }
  }
}

/// Calls f(b) for every bit b set in both `a` and `b`, ascending.
template <typename F>
void for_each_common(std::span<const std::uint64_t> a,
                     std::span<const std::uint64_t> b, F&& f) {
  for (std::size_t w = 0; w < a.size(); ++w) {
    for (std::uint64_t word = a[w] & b[w]; word != 0; word &= word - 1) {
      f(bit_at(w, word));
    }
  }
}

}  // namespace

std::uint64_t AuditReport::total_remote() const {
  std::uint64_t s = 0;
  for (const auto& p : per_proc) s += p.remote_messages;
  return s;
}
std::uint64_t AuditReport::total_delayed() const {
  std::uint64_t s = 0;
  for (const auto& p : per_proc) s += p.delayed;
  return s;
}
std::uint64_t AuditReport::total_necessary() const {
  std::uint64_t s = 0;
  for (const auto& p : per_proc) s += p.necessary;
  return s;
}
std::uint64_t AuditReport::total_unnecessary() const {
  std::uint64_t s = 0;
  for (const auto& p : per_proc) s += p.unnecessary;
  return s;
}

AuditReport OptimalityAuditor::audit(const RunRecorder& recorder) {
  return audit(recorder.history(), recorder.events());
}

std::uint64_t OptimalityAuditor::message_floor(
    const GlobalHistory& history, const SubscriptionMap& subscription) {
  std::uint64_t floor = 0;
  for (const OpRef wref : history.writes()) {
    const Operation& op = history.op(wref);
    for (const ProcessId q : subscription.subscribers(op.var)) {
      if (q != op.proc) ++floor;
    }
  }
  return floor;
}

AuditReport OptimalityAuditor::audit(const GlobalHistory& history,
                                     const std::vector<RunEvent>& events,
                                     const SubscriptionMap* subscription) {
  AuditReport report;
  const auto co = CoRelation::build(history);
  DSM_REQUIRE(co.has_value());
  DSM_REQUIRE(events.size() < kNone);

  const std::size_t n = history.n_procs();
  const std::size_t n_ops = history.size();
  const auto writes = history.writes();
  report.per_proc.resize(n);
  for (ProcessId p = 0; p < n; ++p) report.per_proc[p].proc = p;

  // ---- Dense index --------------------------------------------------------
  // Write slot i < W is writes()[i]; a write the log cites but the history
  // lacks gets a slot past W (it can only decide whether its own receipt was
  // buffered).  first[k·slots + s] is the first apply or skip of slot s at
  // p_k in log position — a skip counts as a logical apply at its instant
  // (the write is "applied immediately before" its superseder).
  std::vector<std::uint32_t> slot_of_op(n_ops, kNone);
  for (std::uint32_t i = 0; i < writes.size(); ++i) slot_of_op[writes[i]] = i;
  std::unordered_map<WriteId, std::uint32_t> unrecorded;
  std::vector<std::uint32_t> slot(events.size(), kNone);
  for (std::size_t j = 0; j < events.size(); ++j) {
    const RunEvent& e = events[j];
    if (e.kind != EvKind::kReceipt && !is_apply(e.kind)) continue;
    DSM_REQUIRE(e.at < n);
    const auto ref = history.find_write(e.write);
    slot[j] = ref ? slot_of_op[*ref]
                  : unrecorded
                        .try_emplace(e.write, static_cast<std::uint32_t>(
                                                  writes.size() +
                                                  unrecorded.size()))
                        .first->second;
  }
  const std::size_t slots = writes.size() + unrecorded.size();
  std::vector<std::uint32_t> first(n * slots, kNone);
  for (std::uint32_t j = 0; j < events.size(); ++j) {
    if (!is_apply(events[j].kind)) continue;
    auto& f = first[events[j].at * slots + slot[j]];
    if (f == kNone) f = j;
  }
  const auto first_of = [&](std::uint32_t j) {
    return first[events[j].at * slots + slot[j]];
  };

  // past row i: the writes w' ↦co writes()[i] (the closure's write-only
  // transpose).  subscribed row k: the writes p_k must apply.
  BitRows past(writes.size(), n_ops);
  for (const OpRef a : writes) {
    for_each_bit(co->row(a), [&](OpRef b) {
      if (slot_of_op[b] != kNone) past.set(slot_of_op[b], a);
    });
  }
  BitRows subscribed(n, n_ops);
  for (const OpRef w : writes) {
    const VarId var = history.op(w).var;
    for (ProcessId k = 0; k < n; ++k) {
      if (subscription == nullptr || subscription->is_subscriber(var, k)) {
        subscribed.set(k, w);
      }
    }
  }

  // ---- One sweep in ascending `order` -------------------------------------
  // Imported logs carry their own `order`, so sort positions (stably).
  // Events sharing an `order` form one step: its applies are checked for
  // safety against strictly earlier applies, and its receipts see every
  // apply up to and including the step.
  std::vector<std::uint32_t> by_order(events.size());
  std::iota(by_order.begin(), by_order.end(), 0U);
  std::stable_sort(by_order.begin(), by_order.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     return events[x].order < events[y].order;
                   });
  const auto first_recorded_apply = [&](std::uint32_t j) {
    return is_apply(events[j].kind) && first_of(j) == j &&
           slot[j] < writes.size();
  };
  BitRows applied(n, n_ops);
  std::vector<std::tuple<ProcessId, OpRef, OpRef>> inversions;
  std::vector<std::pair<std::uint32_t, DelayIncident>> delays;
  for (std::size_t lo = 0, hi = 0; lo < by_order.size(); lo = hi) {
    while (hi < by_order.size() &&
           events[by_order[hi]].order == events[by_order[lo]].order) {
      ++hi;
    }
    const auto step = std::span(by_order).subspan(lo, hi - lo);

    // Safety: applying a after an already-applied b with a ↦co b inverts
    // ↦co at this process.
    for (const std::uint32_t j : step) {
      if (!first_recorded_apply(j)) continue;
      const ProcessId k = events[j].at;
      const OpRef a = writes[slot[j]];
      for_each_common(co->row(a), applied.row(k),
                      [&](OpRef b) { inversions.emplace_back(k, a, b); });
    }
    for (const std::uint32_t j : step) {
      if (first_recorded_apply(j)) applied.set(events[j].at, writes[slot[j]]);
    }

    // Definition 3 classification of every buffered message.
    for (const std::uint32_t j : step) {
      const RunEvent& e = events[j];
      if (e.kind != EvKind::kReceipt) continue;
      auto& pa = report.per_proc[e.at];
      ++pa.remote_messages;

      const std::uint32_t fj = first_of(j);
      const RunEvent* applied_ev = fj == kNone ? nullptr : &events[fj];

      // Was the message buffered?  Trust the protocol's own flag when the
      // write was applied; a write skipped after buffering has no apply
      // event with a flag, so infer from "anything happened in between".
      bool delayed = false;
      if (applied_ev != nullptr && applied_ev->kind == EvKind::kApply &&
          applied_ev->order > e.order) {
        delayed = applied_ev->delayed;
      } else if (applied_ev != nullptr && applied_ev->kind == EvKind::kSkip &&
                 applied_ev->order > e.order + 1) {
        delayed = true;  // buffered, then superseded
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

      // Necessary iff some write in ↓(w, ↦co) that this process subscribes
      // to had not been (logically) applied here when the message arrived.
      // A causal-past write on an unsubscribed variable never applies here;
      // under subscription routing the dep matrix carries its obligation.
      // The lowest such OpRef is the witness.
      DSM_REQUIRE(slot[j] < writes.size());  // the write is in the history
      const auto dep = past.row(slot[j]);
      const auto sub = subscribed.row(e.at);
      const auto done = applied.row(e.at);
      for (std::size_t w = 0; w < dep.size(); ++w) {
        const std::uint64_t missing = dep[w] & sub[w] & ~done[w];
        if (missing == 0) continue;
        inc.necessary = true;
        inc.witness = history.op(bit_at(w, missing)).write_id;
        break;
      }
      if (inc.necessary) {
        ++pa.necessary;
      } else {
        ++pa.unnecessary;
      }
      delays.emplace_back(j, inc);
    }
  }

  // Incidents follow log position, violations (process, a, b).
  std::sort(delays.begin(), delays.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  report.incidents.reserve(delays.size());
  for (auto& [j, inc] : delays) report.incidents.push_back(inc);
  std::sort(inversions.begin(), inversions.end());
  for (const auto& [k, a, b] : inversions) {
    report.safety_violations.push_back(
        "at " + proc_name(k) + ": " + to_string(history.op(a).write_id) +
        " ↦co " + to_string(history.op(b).write_id) +
        " but applied in the opposite order");
  }

  // ---- Liveness: every write applied-or-skipped at every process ---------
  // (under a subscription map: at every subscriber of its variable).
  for (std::size_t i = 0; i < writes.size(); ++i) {
    const Operation& op = history.op(writes[i]);
    for (ProcessId k = 0; k < n; ++k) {
      if (subscription != nullptr && !subscription->is_subscriber(op.var, k)) {
        continue;
      }
      if (first[k * slots + i] == kNone) {
        report.liveness_violations.push_back(to_string(op.write_id) +
                                             " never applied at " +
                                             proc_name(k));
      }
    }
  }

  return report;
}

}  // namespace dsm
