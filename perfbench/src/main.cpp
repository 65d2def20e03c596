// perfbench — one command, four workloads, every metric by name with its
// unit, and a correctness gate on every round.
//
//   perfbench --workload sim-lossy|threads-closed|proc-burst|proc-durable
//             --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints one line per metric and note, then the result line
// {"correct":…,"attempted":…,"failed":…,"metrics":{…}} last.  Exit code 0
// when the run completed (the gate's verdict is in the result line); 2 on a
// usage error.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload sim-lossy|threads-closed|"
               "proc-burst|proc-durable --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      options.trace = std::string(value) == "1";
    } else if (key == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0) return usage();

  perfbench::RunReport report;
  if (options.workload == "sim-lossy") {
    report = perfbench::run_sim_lossy(options);
  } else if (options.workload == "threads-closed") {
    report = perfbench::run_threads_closed(options);
  } else if (options.workload == "proc-burst") {
    report = perfbench::run_proc(options, /*durable=*/false);
  } else if (options.workload == "proc-durable") {
    report = perfbench::run_proc(options, /*durable=*/true);
  } else {
    return usage();
  }

  for (const std::string& note : report.notes) std::printf("# %s\n", note.c_str());
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("%-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", perfbench::result_json(report).c_str());
  return 0;
}
