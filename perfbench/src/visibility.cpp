#include "visibility.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

namespace {

constexpr double kNone = std::numeric_limits<double>::quiet_NaN();

bool about_a_write(dsm::EvKind k) {
  return k != dsm::EvKind::kReturn;
}

}  // namespace

EventAnalysis analyze_events(std::span<const dsm::RunEvent> events,
                             std::size_t n_procs, double units_per_us,
                             bool align) {
  const std::size_t n = n_procs;
  // Dense write index: writes of process p occupy [base[p], base[p+1]).
  std::vector<std::size_t> base(n + 1, 0);
  for (const dsm::RunEvent& e : events) {
    if (!about_a_write(e.kind) || e.write.proc >= n) continue;
    base[e.write.proc + 1] = std::max<std::size_t>(base[e.write.proc + 1],
                                                   e.write.seq);
  }
  for (std::size_t p = 0; p < n; ++p) base[p + 1] += base[p];
  const std::size_t w_count = base[n];
  const auto index = [&](dsm::WriteId w) { return base[w.proc] + w.seq - 1; };

  std::vector<double> send(w_count, kNone);
  std::vector<double> receipt(w_count * n, kNone);
  std::vector<double> done(w_count * n, kNone);
  std::vector<char> delayed(w_count * n, 0);
  EventAnalysis out;
  for (const dsm::RunEvent& e : events) {
    if (!about_a_write(e.kind) || e.write.proc >= n || e.write.seq == 0 ||
        e.at >= n) {
      continue;
    }
    const std::size_t i = index(e.write);
    const std::size_t slot = i * n + e.at;
    const double t = static_cast<double>(e.time) / units_per_us;
    switch (e.kind) {
      case dsm::EvKind::kSend:
        if (std::isnan(send[i])) send[i] = t;
        break;
      case dsm::EvKind::kReceipt:
        ++out.receipts;
        if (std::isnan(receipt[slot])) receipt[slot] = t;
        break;
      case dsm::EvKind::kApply:
      case dsm::EvKind::kSkip:
        if (std::isnan(done[slot])) {
          done[slot] = t;
          delayed[slot] = e.kind == dsm::EvKind::kApply && e.delayed ? 1 : 0;
          if (delayed[slot] != 0) ++out.delayed;
        }
        break;
      case dsm::EvKind::kReturn:
        break;
    }
  }

  const auto issuer_of = [&](std::size_t i) {
    return static_cast<std::size_t>(
        std::upper_bound(base.begin(), base.end(), i) - base.begin() - 1);
  };

  out.offsets_us.assign(n, 0.0);
  if (align && n > 1) {
    // d[p][q]: least (receipt at q − send at p) over p's writes.
    std::vector<double> d(n * n, std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < w_count; ++i) {
      if (std::isnan(send[i])) continue;
      const std::size_t p = issuer_of(i);
      for (std::size_t q = 0; q < n; ++q) {
        const double r = receipt[i * n + q];
        if (q != p && !std::isnan(r)) d[p * n + q] = std::min(d[p * n + q], r - send[i]);
      }
    }
    for (std::size_t q = 1; q < n; ++q) {
      const double out_d = d[0 * n + q];
      const double back_d = d[q * n + 0];
      if (std::isfinite(out_d) && std::isfinite(back_d)) {
        out.offsets_us[q] = (back_d - out_d) / 2;
      }
    }
  }

  for (std::size_t i = 0; i < w_count; ++i) {
    if (std::isnan(send[i])) {
      ++out.incomplete;  // applied somewhere, but never sent: a broken log
      continue;
    }
    ++out.writes;
    const std::size_t p = issuer_of(i);
    const double s = send[i] + out.offsets_us[p];
    double last = s;
    double sum = 0;
    bool complete = true;
    for (std::size_t q = 0; q < n; ++q) {
      if (q == p) continue;
      const std::size_t slot = i * n + q;
      const double off = out.offsets_us[q];
      if (!std::isnan(receipt[slot])) {
        out.transit.push_back(receipt[slot] + off - s);
      }
      if (std::isnan(done[slot])) {
        complete = false;
        continue;
      }
      sum += done[slot] + off - s;
      last = std::max(last, done[slot] + off);
      if (delayed[slot] != 0 && !std::isnan(receipt[slot])) {
        out.buffer_wait.push_back(done[slot] - receipt[slot]);
      }
    }
    if (complete) {
      out.visible.push_back(last - s);
      if (n > 1) out.mean_remote.push_back(sum / static_cast<double>(n - 1));
    } else {
      ++out.incomplete;
    }
  }
  return out;
}

}  // namespace perfbench
