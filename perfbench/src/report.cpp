#include "report.h"

#include <dirent.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "dsm/common/rng.h"

namespace perfbench {

double percentile_sorted(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, 50);
}

std::size_t samples_beyond(std::size_t n, double pct) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n)));
  return n - std::min(rank, n);
}

Tail supported_tail(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Tail t;
  t.n = samples.size();
  t.value = samples.empty() ? 0 : samples.back();
  for (const double pct : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (samples_beyond(t.n, pct) >= 10) {
      t.pct = pct;
      t.value = percentile_sorted(samples, pct);
      break;
    }
  }
  return t;
}

int Tracer::begin(std::string name, int parent) {
  spans_.push_back({std::move(name),
                    std::chrono::duration<double>(Clock::now() - t0_).count(),
                    0, parent});
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::end(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = std::chrono::duration<double>(Clock::now() - t0_).count();
  return s.end - s.start;
}

std::map<std::string, double> Tracer::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end - spans_[i].start;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end - spans_[i].start;
    }
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name] += self[i];
  }
  return by_name;
}

namespace {

/// CPU time from the scheduler's ns clock; getrusage's user/system split
/// only advances by whole ticks (4 ms at 250 Hz), too coarse for a round.
double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

Usage usage_of(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  Usage u;
  u.cpu_s = cpu_clock_s(who == RUSAGE_THREAD ? CLOCK_THREAD_CPUTIME_ID
                                             : CLOCK_PROCESS_CPUTIME_ID);
  u.vol_switches = static_cast<std::uint64_t>(ru.ru_nvcsw);
  return u;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The number after `key` in a "key: value" /proc file, 0 when absent.
std::uint64_t field(const std::string& text, const std::string& key) {
  const auto pos = text.find(key);
  if (pos == std::string::npos) return 0;
  return std::strtoull(text.c_str() + pos + key.size(), nullptr, 10);
}

}  // namespace

Usage usage_self() { return usage_of(RUSAGE_SELF); }
Usage usage_thread() { return usage_of(RUSAGE_THREAD); }

double rss_now_mb() {
  return static_cast<double>(field(slurp("/proc/self/status"), "VmRSS:")) /
         1024.0;
}

ProcSample sample_proc(int pid) {
  ProcSample s;
  const std::string base = "/proc/" + std::to_string(pid);
  DIR* d = ::opendir((base + "/task").c_str());
  if (d == nullptr) return s;
  bool ok = true;
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] == '.') continue;
    const std::string task = base + "/task/" + e->d_name;
    const std::string schedstat = slurp(task + "/schedstat");
    const std::string status = slurp(task + "/status");
    ok = ok && !schedstat.empty() &&
         status.find("voluntary_ctxt_switches:") != std::string::npos;
    s.cpu_s +=
        static_cast<double>(std::strtoull(schedstat.c_str(), nullptr, 10)) /
        1e9;
    s.vol_switches += field(status, "voluntary_ctxt_switches:");
  }
  ::closedir(d);
  const std::string io = slurp(base + "/io");
  const std::string smaps = slurp(base + "/smaps_rollup");
  s.write_bytes = field(io, "\nwrite_bytes:");
  s.private_mb = static_cast<double>(field(smaps, "Private_Clean:") +
                                     field(smaps, "Private_Dirty:")) /
                 1024.0;
  s.ok = ok && io.find("\nwrite_bytes:") != std::string::npos &&
         smaps.find("Private_Dirty:") != std::string::npos;
  return s;
}

std::vector<int> child_pids() {
  const std::string self = std::to_string(::getpid());
  std::istringstream in(
      slurp("/proc/" + self + "/task/" + self + "/children"));
  std::vector<int> pids;
  for (int pid = 0; in >> pid;) pids.push_back(pid);
  return pids;
}

double reference_loop_s() {
  const auto t0 = Clock::now();
  std::uint64_t state = 1;
  std::unordered_map<std::uint32_t, std::uint32_t> counts;
  std::vector<std::uint64_t> kept;
  for (std::uint32_t i = 0; i < 150'000; ++i) {
    const std::uint64_t x = dsm::splitmix64(state);
    counts[static_cast<std::uint32_t>(x % 32'768)] += i;
    if (i % 4 == 0) kept.push_back(x);
  }
  std::sort(kept.begin(), kept.end());
  volatile std::size_t sink = counts.size() + kept.size();
  (void)sink;
  return seconds_since(t0);
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t sum = 0;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) sum += e.file_size(ec);
  }
  return sum;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"ops_per_s", "1/s"},
      {"verify_s", "s"},
      {"rss_mb", "MB"},
      {"setup_s", "s"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"cpu_us_per_op", "us"},
      {"visible_p50_us", "us"},
      {"visible_p99_us", "us"},
      {"op_p50_us", "us"},
      {"op_p99_us", "us"},
      {"workload.generate_ms", "ms"},
      {"net.spawn_ms", "ms"},
      {"sim.run_ms", "ms"},
      {"sim.msgs_per_write", "count"},
      {"sim.arq_retx_per_data", "ratio"},
      {"sim.arq_dups_per_data", "ratio"},
      {"codec.bytes_per_msg", "B"},
      {"protocols.delayed_per_1k", "count"},
      {"protocols.drain_scans_per_apply", "count"},
      {"protocols.peak_pending", "count"},
      {"protocols.buffer_wait_p99_us", "us"},
      {"protocols.recorder_events_per_op", "count"},
      {"runtime.write_call_p99_us", "us"},
      {"runtime.read_call_p99_us", "us"},
      {"runtime.transit_p50_us", "us"},
      {"runtime.transit_p99_us", "us"},
      {"runtime.ctx_switches_per_op", "count"},
      {"runtime.quiesce_ms", "ms"},
      {"net.frames_per_op", "count"},
      {"net.bytes_per_op", "B"},
      {"net.run_ms", "ms"},
      {"net.fetch_ms", "ms"},
      {"storage.write_kb_per_op", "KB"},
      {"storage.state_kb_per_op", "KB"},
      {"history.merge_ms", "ms"},
      {"history.co_ms", "ms"},
      {"history.check_ms", "ms"},
      {"audit.audit_ms", "ms"},
      {"telemetry.overhead_pct", "%"},
      {"trace.unaccounted_pct", "%"},
  };
  return kMetrics;
}

void emit(RunReport& report, const Values& values, bool trace) {
  for (const MetricSpec& spec :
       trace ? per_layer_metrics() : end_to_end_metrics()) {
    const auto it = values.find(spec.name);
    if (it == values.end() && !trace) {
      report.fail(std::string("no value for ") + spec.name);
    }
    report.add(spec.name, it == values.end() ? 0.0 : it->second, spec.unit);
  }
}

std::uint64_t round_seed(std::uint64_t seed, std::size_t round) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + round;
  return dsm::splitmix64(state);
}

std::string result_json(const RunReport& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
