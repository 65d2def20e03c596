// optcm — command-line driver for the library.
//
// Subcommands:
//
//   optcm run      run one protocol on a generated workload and report
//                  stats, the Definition-3/5 audit, and (optionally) the
//                  full trace and history.
//   optcm compare  run EVERY protocol on the identical workload and arrival
//                  pattern; print the comparison table.
//   optcm faults   run a fault scenario (drops + partition + crash/restart)
//                  and report recovery behaviour next to the audit verdicts;
//                  with no fault flags, runs a built-in demo scenario.
//   optcm paper    print the paper artifacts (Example 1 history, Table 1,
//                  Table 2, Figures 1/3/6 traces, Figure 7 graph).
//   optcm replay   re-audit an exported trace: optcm replay trace.jsonl
//                  (produce one with: optcm run --export=trace.jsonl).
//   optcm serve    host ONE protocol process over real TCP: bind a listener,
//                  join the peer mesh, and wait for a cluster driver on the
//                  control channel (docs/NETWORK.md).
//   optcm drive    fork a loopback multi-process cluster, run a paper script
//                  over real sockets, merge the per-node logs, and run the
//                  checker + auditor on the merged history.
//
// serve flags:
//   --id=P --peers=<host:port,...>   this process's id and the full address
//                                    list, one entry per process in id order
//   --listen=<host:port>             override peers[id] as the bind address
//   --protocol=... --vars=M --recoverable   stack shape (default optp)
//   --state-dir=DIR        durable WAL + snapshots under DIR; the node
//                          restores and rejoins on boot (docs/DURABILITY.md).
//                          Requires --recoverable (every peer in a mesh must
//                          agree on the recoverable shape)
//   --fsync=none|interval|every      WAL durability policy (requires
//                          --state-dir; default every)
//   --wal-group-commit     defer WAL fsyncs to the NetLoop tick edge: one
//                          fsync covers every record appended during the
//                          tick (docs/PERF.md; requires --state-dir)
//
// drive flags:
//   --script=h1|fig1|fig3|objects   paper workload (3 procs, 2 vars), or the
//                          typed-objects demo (3 procs, 5 vars: counter, set,
//                          log, cas-register, register barrier — see
//                          docs/OBJECTS.md; optp/anbkh/optp-sharded only,
//                          incompatible with every durable-recovery mode)
//   --spawn=N              number of processes to fork (must be 3)
//   --protocol=... --recoverable       per-node stack shape
//   --time-scale=K         multiply script delays (default 1000: µs -> ms,
//                          so loopback latency cannot reorder the workload)
//   --kill-conn=P:Q@MS     after MS milliseconds of run time, drop the live
//                          TCP connection P->Q (ARQ + redial must repair it)
//   --state-dir=DIR        durable per-node state under DIR/node-p (implies
//                          --recoverable on every node)
//   --fsync=none|interval|every      WAL durability policy (default every;
//                          needs durable state)
//   --wal-group-commit     tick-edge WAL group commit on every node
//                          (docs/PERF.md; --state-dir defaults to a fresh
//                          temp dir)
//   --shards-per-proc=S    pack S consecutive nodes into each forked child
//                          as a ShardHost: one pinned thread + NetLoop per
//                          shard, SPSC ring mesh between co-located shards,
//                          TCP only between processes
//                          (docs/ARCHITECTURE.md; incompatible with
//                          --kill-host/--respawn and nemesis crash entries —
//                          SIGKILL would hit the whole shard group)
//   --kill-host=N[@MS]     SIGKILL node N's OS process after MS ms of run
//                          time (default 30); must be paired with --respawn
//   --respawn              fork a fresh process for the killed node on its
//                          original port and state dir: it replays its WAL,
//                          rejoins by anti-entropy, and resumes its script
//                          (--state-dir defaults to a fresh temp dir)
//   --compare-sim          also run the identical script in the simulator and
//                          require byte-identical per-process observer-event
//                          sequences (h1 only; fig1/fig3 choreograph latency,
//                          which real sockets cannot reproduce)
//   --subscriptions=SPEC   subscription map for --protocol=optp-sharded:
//                          "full", "disjoint:G", or an explicit per-variable
//                          list "v:p,p;v:p,p".  Writes route to the
//                          variable's subscribers only; the audit's liveness
//                          obligation narrows to subscribers.  Paper scripts
//                          must stay inside the map (every process only
//                          accesses variables it subscribes to).  Sharded
//                          runs keep no durable state: incompatible with
//                          --recoverable/--state-dir/--kill-host/--respawn/
//                          --wal-group-commit and nemesis crash/wal-fail
//                          entries
//   --shards=G             shorthand for --subscriptions=disjoint:G
//   --nemesis=SPEC         run a deterministic fault schedule alongside the
//                          scripts (docs/FAULTS.md; dsm/net/nemesis.h has the
//                          full DSL).  ';'-separated entries, e.g.
//                          "seed=7;drop=0.05;reorder=0.05;
//                           partition=1:2@15+30;crash=0@40;wal-fail=0:fsync@2"
//                          — crash/wal-fail entries imply durable state
//                          (--state-dir or a fresh temp dir).  The schedule's
//                          fault event trace is printed and is byte-identical
//                          across runs of one spec; the run still ends with
//                          the quiescence barrier + anti-entropy reconcile and
//                          must pass the checker (and --compare-sim, when on)
//
// Common workload/network flags (all "--key=value"):
//   --protocol=optp|optp-ws|anbkh|anbkh-ws|token-ws   (run/faults only;
//                         run also accepts optp-partial, optp-conv and
//                         optp-sharded)
//   --procs=N --vars=M --ops=K --write-fraction=F --seed=S
//   --pattern=uniform|zipf|partitioned|hotspot  --zipf-s=S --hotspot=F
//   --zipf=THETA          shorthand for --pattern=zipf --zipf-s=THETA
//   --gap=USEC            mean think time between ops
//
// run-only sharding/replication flags:
//   --subscriptions=SPEC  subscription map for --protocol=optp-sharded
//                         ("full", "disjoint:G", or "v:p,p;v:p,p"); the
//                         generated workload restricts every process to its
//                         subscribed variables, and the audit narrows the
//                         liveness obligation to subscribers.  Incompatible
//                         with --crash (ShardedOptP has no checkpoint seam)
//   --shards=G            shorthand for --subscriptions=disjoint:G
//   --replication=F       chained replication factor for
//                         --protocol=optp-partial (F replicas per variable;
//                         default full); the generated workload restricts
//                         every process to variables it replicates
//
// run-only typed-object flags (docs/OBJECTS.md):
//   --objects=SPEC        sequential spec per variable: one of register,
//                         counter, cas-register, log, set (applied to every
//                         variable) or "mixed" (round-robin).  Generates a
//                         typed workload, replicates mutations through the
//                         unchanged update path, and validates accessor
//                         returns with the spec-driven checker.  Requires
//                         --protocol=optp, anbkh or optp-sharded; rejects
//                         --crash (catch-up redelivery carries no typed
//                         payload)
//   --mix=R:W:C:A         typed workload category weights — reads : blind
//                         writes : conditional/compound mutations : inverse
//                         mutations (default 6:2:1:1; requires --objects)
//   --latency=constant|uniform|exponential|lognormal
//   --scale=USEC --spread=X
//
// Fault flags (run/compare/faults; see docs/FAULTS.md):
//   --drop=P --duplicate=P (alias --dup=P)
//                         faulty datagram network + ARQ channel layer
//   --partition=START:DUR cut process 0 off from everyone during
//                         [START, START+DUR) (microseconds)
//   --crash=P@START:DUR[,P@START:DUR...]
//                         crash process P at START, restart after DUR;
//                         recovery = checkpoint + anti-entropy catch-up
//   --trace --history --sequences   extra output (run only)
//
// Telemetry flags (run only; docs/OBSERVABILITY.md describes the formats):
//   --metrics-out=FILE    write the run's metrics registry as CSV
//   --trace-out=FILE      write the structured trace: Chrome trace_event
//                         JSON (chrome://tracing / ui.perfetto.dev), or the
//                         compact CSV when FILE ends in .csv
//   --script=h1|fig1|fig3|objects   run a paper scenario (or the typed-
//                         objects demo) instead of a generated workload
//                         (forces the scenario's shape and constant 10µs
//                         latency; fig1/fig3 are choreographed)
//
// Every subcommand accepts --dry-run: parse and validate flags, then exit 0
// without running (used by the docs-check tooling).
//
// Flags accept both "--key=value" and "--key value".
//
// Examples:
//   optcm run --protocol=optp --procs=8 --ops=200 --latency=lognormal
//   optcm compare --procs=12 --pattern=partitioned --spread=2.0
//   optcm run --protocol=optp --drop=0.1 --crash=1@5000:8000
//   optcm run --protocol optp --script h1 --trace-out t.json --metrics-out m.csv
//   optcm faults --procs=6 --crash=1@5000:8000,2@9000:6000 --partition=8000:15000
//   optcm paper table2

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dsm/audit/auditor.h"
#include "dsm/audit/enabling_sets.h"
#include "dsm/audit/trace_io.h"
#include "dsm/audit/trace_render.h"
#include "dsm/common/flags.h"
#include "dsm/history/causality_graph.h"
#include "dsm/history/checker.h"
#include "dsm/metrics/table.h"
#include "dsm/net/merge.h"
#include "dsm/net/nemesis.h"
#include "dsm/net/process_cluster.h"
#include "dsm/objects/object_store.h"
#include "dsm/objects/schema.h"
#include "dsm/objects/spec_checker.h"
#include "dsm/storage/wal.h"
#include "dsm/telemetry/telemetry.h"
#include "dsm/workload/generator.h"
#include "dsm/workload/objects_demo.h"
#include "dsm/workload/paper_examples.h"
#include "dsm/workload/sim_harness.h"

namespace {

using namespace dsm;

struct CommonOptions {
  WorkloadSpec spec;
  LatencyKind latency_kind = LatencyKind::kLogNormal;
  SimTime scale = sim_us(400);
  double spread = 1.0;
  FaultPlan fault;
  CrashPlan crash;
  /// optp-sharded only (--subscriptions/--shards); null = full map.
  std::shared_ptr<const SubscriptionMap> subscription;
  /// optp-partial only (--replication); null = full replication.
  std::shared_ptr<const ReplicationMap> replication;
  /// Typed objects (--objects / --script=objects); null = plain registers.
  std::shared_ptr<const ObjectSchema> objects;
};

int usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s <run|compare|faults> [--key=value ...]\n"
               "       %s paper [history|table1|table2|fig1|fig3|fig6|fig7|all]\n"
               "       %s replay <trace.jsonl>\n"
               "       %s serve --id=P --peers=<host:port,...> "
               "[--state-dir=DIR --fsync=every]\n"
               "       %s drive --script=h1 [--spawn=3 --compare-sim "
               "--kill-host=N@MS --respawn --nemesis=SPEC]\n"
               "see the header of tools/optcm_cli.cpp for the full flag list\n",
               program, program, program, program, program);
  return 2;
}

/// "--partition=START:DUR" (µs): cut process 0 off from every other process
/// during [START, START+DUR).
bool parse_partition(const std::string& text, std::size_t n_procs,
                     FaultPlan& fault) {
  unsigned long long start = 0;
  unsigned long long dur = 0;
  if (std::sscanf(text.c_str(), "%llu:%llu", &start, &dur) != 2 || dur == 0) {
    return false;
  }
  fault.split({0}, n_procs, static_cast<SimTime>(start),
              static_cast<SimTime>(start + dur));
  return true;
}

/// "--crash=P@START:DUR[,P@START:DUR...]" (µs).
bool parse_crash(const std::string& text, std::size_t n_procs,
                 CrashPlan& plan) {
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(pos, comma - pos);
    unsigned long long p = 0;
    unsigned long long start = 0;
    unsigned long long dur = 0;
    if (std::sscanf(item.c_str(), "%llu@%llu:%llu", &p, &start, &dur) != 3 ||
        dur == 0 || p >= n_procs) {
      return false;
    }
    CrashEvent e;
    e.p = static_cast<ProcessId>(p);
    e.at = static_cast<SimTime>(start);
    e.restart_at = static_cast<SimTime>(start + dur);
    plan.events.push_back(e);
    pos = comma + 1;
  }
  return plan.active();
}

AccessPattern parse_pattern(const std::string& name) {
  if (name == "zipf") return AccessPattern::kZipf;
  if (name == "partitioned") return AccessPattern::kPartitioned;
  if (name == "hotspot") return AccessPattern::kHotspot;
  return AccessPattern::kUniform;
}

LatencyKind parse_latency(const std::string& name) {
  if (name == "constant") return LatencyKind::kConstant;
  if (name == "uniform") return LatencyKind::kUniform;
  if (name == "exponential") return LatencyKind::kExponential;
  return LatencyKind::kLogNormal;
}

std::optional<CommonOptions> parse_common(Flags& flags) {
  CommonOptions o;
  o.spec.n_procs = static_cast<std::size_t>(flags.get_int("procs", 4));
  o.spec.n_vars = static_cast<std::size_t>(flags.get_int("vars", 8));
  o.spec.ops_per_proc = static_cast<std::size_t>(flags.get_int("ops", 100));
  o.spec.write_fraction = flags.get_double("write-fraction", 0.5);
  o.spec.pattern = parse_pattern(flags.get("pattern", "uniform"));
  o.spec.zipf_s = flags.get_double("zipf-s", 0.9);
  // --zipf=THETA: pattern + exponent in one flag (the common case).
  const std::string zipf_alias = flags.get("zipf", "");
  if (!zipf_alias.empty()) {
    char* end = nullptr;
    const double theta = std::strtod(zipf_alias.c_str(), &end);
    if (end == zipf_alias.c_str() || *end != '\0' || theta < 0.0) {
      std::fprintf(stderr, "bad --zipf '%s' (want a non-negative exponent)\n",
                   zipf_alias.c_str());
      return std::nullopt;
    }
    o.spec.pattern = AccessPattern::kZipf;
    o.spec.zipf_s = theta;
  }
  o.spec.hotspot_fraction = flags.get_double("hotspot", 0.2);
  o.spec.mean_gap = static_cast<SimTime>(flags.get_int("gap", 300));
  o.spec.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  o.latency_kind = parse_latency(flags.get("latency", "lognormal"));
  o.scale = static_cast<SimTime>(flags.get_int("scale", 400));
  o.spread = flags.get_double("spread", 1.0);
  o.fault.drop = flags.get_double("drop", 0.0);
  const double dup_alias = flags.get_double("dup", 0.0);
  o.fault.duplicate = flags.get_double("duplicate", dup_alias);
  o.fault.seed = o.spec.seed ^ 0xFA;
  const std::string partition = flags.get("partition", "");
  if (!partition.empty() &&
      !parse_partition(partition, o.spec.n_procs, o.fault)) {
    std::fprintf(stderr, "bad --partition (want START:DUR, microseconds)\n");
    return std::nullopt;
  }
  const std::string crash = flags.get("crash", "");
  if (!crash.empty() && !parse_crash(crash, o.spec.n_procs, o.crash)) {
    std::fprintf(stderr,
                 "bad --crash (want P@START:DUR[,P@START:DUR...], "
                 "microseconds, P < procs)\n");
    return std::nullopt;
  }
  return o;
}

/// Parse --subscriptions/--shards against the final run shape.  Leaves `out`
/// null when neither flag was given (the protocol then defaults to a full
/// map).  Returns false on an error (already reported).
bool parse_subscription_flags(Flags& flags, ProtocolKind kind,
                              std::size_t n_procs, std::size_t n_vars,
                              std::shared_ptr<const SubscriptionMap>& out) {
  std::string spec = flags.get("subscriptions", "");
  const long long shards = flags.get_int("shards", 0);
  if (spec.empty() && shards == 0) return true;
  if (kind != ProtocolKind::kOptPSharded) {
    std::fprintf(stderr,
                 "--subscriptions/--shards require --protocol=optp-sharded\n");
    return false;
  }
  if (!spec.empty() && shards != 0) {
    std::fprintf(stderr,
                 "--shards=G is shorthand for --subscriptions=disjoint:G; "
                 "give one or the other\n");
    return false;
  }
  if (shards != 0) {
    if (shards < 1) {
      std::fprintf(stderr, "--shards must be >= 1\n");
      return false;
    }
    spec = "disjoint:" + std::to_string(shards);
  }
  std::string error;
  auto map = SubscriptionMap::parse(spec, n_procs, n_vars, &error);
  if (!map) {
    std::fprintf(stderr, "bad --subscriptions '%s': %s\n", spec.c_str(),
                 error.c_str());
    return false;
  }
  out = std::make_shared<const SubscriptionMap>(std::move(*map));
  return true;
}

/// Fixed (paper) scripts must stay inside the access map: the protocol would
/// otherwise abort on the contract check mid-run.  Reject at flag time.
bool scripts_within(const std::vector<Script>& scripts,
                    const SubscriptionMap& map, const char* flag) {
  for (ProcessId p = 0; p < scripts.size(); ++p) {
    for (const ScriptStep& step : scripts[p]) {
      if (!map.is_subscriber(step.var, p)) {
        std::fprintf(stderr,
                     "p%u accesses x%u but %s does not subscribe it there "
                     "(the script must stay inside the map)\n",
                     static_cast<unsigned>(p), static_cast<unsigned>(step.var),
                     flag);
        return false;
      }
    }
  }
  return true;
}

bool scripts_within(const std::vector<Script>& scripts,
                    const ReplicationMap& map, const char* flag) {
  for (ProcessId p = 0; p < scripts.size(); ++p) {
    for (const ScriptStep& step : scripts[p]) {
      if (!map.is_replica(step.var, p)) {
        std::fprintf(stderr,
                     "p%u accesses x%u but %s does not replicate it there "
                     "(the script must stay inside the map)\n",
                     static_cast<unsigned>(p), static_cast<unsigned>(step.var),
                     flag);
        return false;
      }
    }
  }
  return true;
}

SimRunResult run_one(ProtocolKind kind, const CommonOptions& o,
                     RunTelemetry* telemetry = nullptr,
                     const std::vector<Script>* scripts = nullptr,
                     const Network::LatencyOverride* choreo = nullptr) {
  const auto latency =
      make_latency(o.latency_kind, o.scale, o.spread, o.spec.seed ^ 0xC11);
  SimRunConfig cfg;
  cfg.kind = kind;
  cfg.n_procs = o.spec.n_procs;
  cfg.n_vars = o.spec.n_vars;
  cfg.latency = latency.get();
  cfg.fault = o.fault;
  cfg.crash = o.crash;
  cfg.protocol_config.token_max_rounds =
      o.spec.ops_per_proc * o.spec.n_procs * 50 + 1000;
  cfg.protocol_config.subscription = o.subscription;
  cfg.protocol_config.replication = o.replication;
  cfg.protocol_config.objects = o.objects;
  cfg.telemetry = telemetry;
  if (choreo != nullptr) cfg.latency_override = *choreo;
  return run_sim(cfg, scripts != nullptr ? *scripts : generate_workload(o.spec));
}

/// `--bench-json` payload: the hot-path numbers of one run in the same
/// machine-readable shape the bench binaries emit (docs/PERF.md).
std::string bench_json_summary(ProtocolKind kind, const SimRunResult& result,
                               double wall_ms) {
  std::uint64_t applies = 0;
  std::uint64_t drain_scans = 0;
  std::uint64_t purges_avoided = 0;
  for (const ProtocolStats& s : result.stats) {
    applies += s.remote_applies;
    drain_scans += s.drain_scans;
    purges_avoided += s.purges_avoided;
  }
  const double scans_per_apply =
      applies == 0 ? 0.0
                   : static_cast<double>(drain_scans) /
                         static_cast<double>(applies);
  const double applies_per_sec =
      wall_ms <= 0 ? 0.0 : 1000.0 * static_cast<double>(applies) / wall_ms;
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\n"
                "  \"schema\": \"optcm-run-v1\",\n"
                "  \"protocol\": \"%s\",\n"
                "  \"writes\": %llu,\n"
                "  \"operations\": %llu,\n"
                "  \"simulated_us\": %llu,\n"
                "  \"wall_ms\": %.3f,\n"
                "  \"remote_applies\": %llu,\n"
                "  \"applies_per_sec\": %.1f,\n"
                "  \"drain_scans\": %llu,\n"
                "  \"drain_scans_per_apply\": %.3f,\n"
                "  \"purges_avoided\": %llu,\n"
                "  \"net_messages\": %llu,\n"
                "  \"net_bytes\": %llu\n"
                "}\n",
                to_string(kind),
                static_cast<unsigned long long>(
                    result.recorder->history().writes().size()),
                static_cast<unsigned long long>(result.recorder->history().size()),
                static_cast<unsigned long long>(result.end_time), wall_ms,
                static_cast<unsigned long long>(applies), applies_per_sec,
                static_cast<unsigned long long>(drain_scans), scans_per_apply,
                static_cast<unsigned long long>(purges_avoided),
                static_cast<unsigned long long>(result.net.messages_sent),
                static_cast<unsigned long long>(result.net.bytes_sent));
  return buf;
}

/// Write `text` to `path`; reports and returns false on failure.
bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

void print_report(ProtocolKind kind, const SimRunResult& result,
                  const SubscriptionMap* subscription = nullptr,
                  const ObjectSchema* schema = nullptr,
                  RunTelemetry* telemetry = nullptr,
                  bool expect_convergence = false) {
  const auto audit = OptimalityAuditor::audit(
      result.recorder->history(), result.recorder->events(), subscription);
  // A typed schema swaps in the spec-driven checker; on an all-register
  // schema its verdicts are byte-identical to ConsistencyChecker's.
  const auto check =
      schema != nullptr
          ? SpecChecker::check(result.recorder->history(), *schema)
          : ConsistencyChecker::check(result.recorder->history());
  if (schema != nullptr && telemetry != nullptr) {
    telemetry->metrics()
        .counter(MetricsRegistry::kRunScope, metric::kCheckerLinearizations)
        .add(check.linearizations_explored);
  }

  Table table({"metric", "value"});
  table.add("protocol", to_string(kind));
  if (subscription != nullptr) {
    table.add("subscriptions", subscription->describe());
    table.add("mean subscribers/var", subscription->mean_size());
  }
  if (schema != nullptr) {
    table.add("objects", schema->str());
    table.add("linearizations explored", check.linearizations_explored);
    // Replica digests only witness convergence when the script choreographs
    // a total order (the demo's barriers); concurrent non-commuting
    // mutations legitimately leave replicas divergent under causal memory.
    if (expect_convergence && result.objects != nullptr) {
      bool converged = true;
      const std::uint64_t d0 = result.objects->replica_digest(0);
      for (ProcessId p = 1; p < result.recorder->history().n_procs(); ++p) {
        converged = converged && result.objects->replica_digest(p) == d0;
      }
      table.add("object replicas converged", converged ? "yes" : "NO");
    }
  }
  table.add("settled", result.settled ? "yes" : "NO");
  table.add("simulated time (ms)",
            static_cast<double>(result.end_time) / 1000.0);
  table.add("writes", result.recorder->history().writes().size());
  table.add("operations", result.recorder->history().size());
  table.add("network messages", result.net.messages_sent);
  table.add("network bytes", result.net.bytes_sent);
  table.add("remote write messages", audit.total_remote());
  table.add("delayed (Def. 3)", audit.total_delayed());
  table.add("necessary delays", audit.total_necessary());
  table.add("unnecessary delays (false causality)", audit.total_unnecessary());
  table.add("write-delay optimal run (Def. 5)",
            audit.write_delay_optimal() ? "yes" : "NO");
  table.add("safe (applies extend co)", audit.safe() ? "yes" : "NO");
  table.add("live (all writes applied/skipped)", audit.live() ? "yes" : "NO");
  table.add("causally consistent (Defs. 1-2)", check.consistent() ? "yes" : "NO");
  if (result.faults.dropped + result.faults.duplicated +
          result.faults.partition_dropped >
      0) {
    table.add("messages dropped", result.faults.dropped);
    table.add("messages duplicated", result.faults.duplicated);
    table.add("partition drops", result.faults.partition_dropped);
    table.add("retransmissions", result.reliable.retransmissions);
    table.add("dup deliveries suppressed", result.reliable.duplicates_suppressed);
    table.add("ARQ abandoned", result.reliable.abandoned);
  }
  if (!result.recoveries.empty()) {
    table.add("crashes", result.recoveries.size());
    table.add("crash drops", result.faults.crash_dropped);
    table.add("catch-up bytes", result.recovery.catch_up_bytes);
    table.add("writes recovered", result.recovery.writes_recovered);
    table.add("replays suppressed", result.replay_suppressed);
  }
  std::printf("%s", table.str().c_str());
  for (const RecoveryRecord& rec : result.recoveries) {
    std::printf("  p%u crashed @%.1fms, restarted @%.1fms, %s",
                static_cast<unsigned>(rec.proc),
                static_cast<double>(rec.crashed_at) / 1000.0,
                static_cast<double>(rec.restarted_at) / 1000.0,
                rec.recovered ? "caught up" : "did NOT catch up");
    if (rec.recovered) {
      std::printf(" @%.1fms (recovery %.1fms)",
                  static_cast<double>(rec.recovered_at) / 1000.0,
                  static_cast<double>(rec.recovered_at - rec.restarted_at) /
                      1000.0);
    }
    std::printf("\n");
  }
}

int cmd_run(Flags& flags) {
  const auto kind = parse_protocol(flags.get("protocol", "optp"));
  if (!kind) {
    std::fprintf(stderr, "unknown protocol\n");
    return 2;
  }
  const auto parsed = parse_common(flags);
  if (!parsed) return 2;
  CommonOptions o = *parsed;  // copy: --script may override the shape
  if (o.crash.active() && *kind == ProtocolKind::kTokenWs) {
    std::fprintf(stderr,
                 "token-ws cannot run under a crash plan: a crashed token "
                 "holder would require an election (see docs/FAULTS.md)\n");
    return 2;
  }
  if (o.crash.active() && *kind == ProtocolKind::kOptPSharded) {
    std::fprintf(stderr,
                 "optp-sharded cannot run under a crash plan: it is not a "
                 "class-P buffering protocol, so the checkpoint/catch-up "
                 "recovery stack does not apply (see docs/FAULTS.md)\n");
    return 2;
  }
  const bool want_trace = flags.get_bool("trace");
  const bool want_history = flags.get_bool("history");
  const bool want_sequences = flags.get_bool("sequences");
  const std::string export_path = flags.get("export", "");
  const std::string metrics_out = flags.get("metrics-out", "");
  const std::string trace_out = flags.get("trace-out", "");
  const std::string bench_json = flags.get("bench-json", "");
  const std::string script = flags.get("script", "");

  // Paper scripts replace the generated workload and pin the paper's shape
  // (Example 1: three processes, two variables, constant 10µs latency).
  std::vector<Script> scripts;
  Network::LatencyOverride choreo;
  if (!script.empty()) {
    if (script == "h1") {
      scripts = paper::make_h1_scripts();
    } else if (script == "fig1" || script == "fig3") {
      auto c = script == "fig1" ? paper::make_fig1_run2() : paper::make_fig3();
      scripts = std::move(c.scripts);
      choreo = std::move(c.latency_override);
    } else if (script == "objects") {
      scripts = make_objects_demo_scripts();
      o.objects = make_objects_demo_schema();
    } else {
      std::fprintf(stderr,
                   "unknown --script (want h1, fig1, fig3 or objects)\n");
      return 2;
    }
    if (script == "objects") {
      o.spec.n_procs = kObjectsDemoProcs;
      o.spec.n_vars = kObjectsDemoVars;
    } else {
      o.spec.n_procs = paper::kH1Procs;
      o.spec.n_vars = paper::kH1Vars;
    }
    o.latency_kind = LatencyKind::kConstant;
    o.scale = sim_us(10);
  }
  // --objects=SPEC: typed schema for the generated workload; --mix tunes the
  // category weights of the typed op stream.
  const std::string objects_flag = flags.get("objects", "");
  ObjectMix mix;
  if (!objects_flag.empty()) {
    if (o.objects != nullptr) {
      std::fprintf(stderr,
                   "--script=objects fixes its own schema; drop --objects\n");
      return 2;
    }
    std::string error;
    auto schema = ObjectSchema::parse(objects_flag, o.spec.n_vars, &error);
    if (!schema) {
      std::fprintf(stderr, "bad --objects '%s': %s\n", objects_flag.c_str(),
                   error.c_str());
      return 2;
    }
    o.objects = std::make_shared<const ObjectSchema>(std::move(*schema));
  }
  const std::string mix_flag = flags.get("mix", "");
  if (!mix_flag.empty()) {
    if (objects_flag.empty()) {
      std::fprintf(stderr, "--mix requires --objects\n");
      return 2;
    }
    std::string error;
    const auto parsed_mix = ObjectMix::parse(mix_flag, &error);
    if (!parsed_mix) {
      std::fprintf(stderr, "bad --mix '%s': %s\n", mix_flag.c_str(),
                   error.c_str());
      return 2;
    }
    mix = *parsed_mix;
  }
  if (o.objects != nullptr) {
    if (*kind != ProtocolKind::kOptP && *kind != ProtocolKind::kAnbkh &&
        *kind != ProtocolKind::kOptPSharded) {
      std::fprintf(stderr,
                   "typed objects require --protocol=optp, anbkh or "
                   "optp-sharded (writing-semantics protocols skip superseded "
                   "writes, which would drop mutations; partial replication "
                   "has no object seam)\n");
      return 2;
    }
    if (o.crash.active()) {
      std::fprintf(stderr,
                   "typed objects cannot run under a crash plan: catch-up "
                   "redelivery carries no typed payload (docs/OBJECTS.md)\n");
      return 2;
    }
  }
  // Sharding/replication maps parse against the FINAL shape (a paper script
  // may have just overridden --procs/--vars).
  if (!parse_subscription_flags(flags, *kind, o.spec.n_procs, o.spec.n_vars,
                                o.subscription)) {
    return 2;
  }
  const long long repl_factor = flags.get_int("replication", 0);
  if (repl_factor != 0) {
    if (*kind != ProtocolKind::kOptPPartial) {
      std::fprintf(stderr, "--replication requires --protocol=optp-partial\n");
      return 2;
    }
    if (repl_factor < 1 ||
        static_cast<std::size_t>(repl_factor) > o.spec.n_procs) {
      std::fprintf(stderr, "--replication must be in [1, procs]\n");
      return 2;
    }
    o.replication = std::make_shared<const ReplicationMap>(
        ReplicationMap::chained(o.spec.n_procs, o.spec.n_vars,
                                static_cast<std::size_t>(repl_factor)));
  }
  if (!scripts.empty()) {
    if (o.subscription != nullptr &&
        !scripts_within(scripts, *o.subscription, "--subscriptions")) {
      return 2;
    }
    if (o.replication != nullptr &&
        !scripts_within(scripts, *o.replication, "--replication")) {
      return 2;
    }
  }
  if (o.objects != nullptr && scripts.empty() && o.subscription != nullptr &&
      !o.subscription->is_full()) {
    std::fprintf(stderr,
                 "typed objects with a restricted subscription map need a "
                 "script that stays inside the map; the generated typed "
                 "workload assumes every process accesses every variable\n");
    return 2;
  }
  if (flags.get_bool("dry-run")) return 0;

  // Restricted access maps need a workload that honors them — the contract
  // check inside the protocol would otherwise abort on the first
  // out-of-map operation.
  if (scripts.empty()) {
    if (o.objects != nullptr) {
      scripts = generate_mixed_object_workload(o.spec, *o.objects, mix);
    } else if (o.subscription != nullptr && !o.subscription->is_full()) {
      scripts = generate_subscriber_workload(o.spec, *o.subscription);
    } else if (o.replication != nullptr) {
      scripts = generate_replica_workload(o.spec, *o.replication);
    }
  }

  const bool want_telemetry = !metrics_out.empty() || !trace_out.empty();
  std::optional<RunTelemetry> tel;
  if (want_telemetry) tel.emplace(o.spec.n_procs);

  const auto wall_start = std::chrono::steady_clock::now();
  const auto result =
      run_one(*kind, o, want_telemetry ? &*tel : nullptr,
              scripts.empty() ? nullptr : &scripts,
              choreo ? &choreo : nullptr);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();
  if (!script.empty()) {
    std::printf("workload: %s script '%s' (%zu procs, %zu vars)\n\n",
                script == "objects" ? "typed-objects" : "paper",
                script.c_str(), o.spec.n_procs, o.spec.n_vars);
  } else if (o.objects != nullptr) {
    std::printf("workload: %s, typed objects '%s', mix %s\n\n",
                o.spec.describe().c_str(), objects_flag.c_str(),
                mix.str().c_str());
  } else {
    std::printf("workload: %s\n\n", o.spec.describe().c_str());
  }
  print_report(*kind, result, o.subscription.get(), o.objects.get(),
               want_telemetry ? &*tel : nullptr,
               /*expect_convergence=*/script == "objects");
  if (want_history) {
    std::printf("\nhistory:\n%s", result.recorder->history().str().c_str());
  }
  if (want_sequences) {
    std::printf("\n%s", render_sequences(*result.recorder).c_str());
  }
  if (want_trace) {
    std::printf("\n%s", render_space_time(*result.recorder).c_str());
  }
  if (!export_path.empty()) {
    if (!write_file(export_path, export_trace_jsonl(*result.recorder)))
      return 1;
    std::printf("\ntrace exported to %s\n", export_path.c_str());
  }
  if (tel) {
    if (!metrics_out.empty()) {
      if (!write_file(metrics_out, tel->metrics_csv())) return 1;
      std::printf("metrics written to %s\n", metrics_out.c_str());
    }
    if (!trace_out.empty()) {
      const bool csv = trace_out.size() >= 4 &&
                       trace_out.compare(trace_out.size() - 4, 4, ".csv") == 0;
      if (!write_file(trace_out, csv ? tel->trace_csv() : tel->chrome_trace()))
        return 1;
      std::printf("%s trace written to %s%s\n", csv ? "csv" : "chrome",
                  trace_out.c_str(),
                  csv ? "" : " (open in chrome://tracing or ui.perfetto.dev)");
    }
  }
  if (!bench_json.empty()) {
    if (!write_file(bench_json, bench_json_summary(*kind, result, wall_ms)))
      return 1;
    std::printf("bench json written to %s\n", bench_json.c_str());
  }
  return result.settled ? 0 : 1;
}

int cmd_replay(Flags& flags) {
  if (flags.positional().size() < 2) {
    std::fprintf(stderr, "usage: optcm replay <trace.jsonl>\n");
    return 2;
  }
  const std::string& path = flags.positional()[1];
  if (flags.get_bool("dry-run")) return 0;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 1;
  }
  std::string text;
  char buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
  std::fclose(f);

  const auto imported = import_trace_jsonl(text);
  if (!imported) {
    std::fprintf(stderr, "malformed trace\n");
    return 1;
  }
  // The auditor needs ↦co; a trace whose reads-from cites an unrecorded
  // write or closes a cycle has none, so report the checker's verdict alone.
  const auto check = ConsistencyChecker::check(imported->history);
  if (!CoRelation::build(imported->history)) {
    std::printf("causally consistent: NO (not audited: the trace has no "
                "causal order)\n");
    for (const auto& v : check.violations) {
      std::printf("  %s: %s\n", to_string(v.kind), v.detail.c_str());
    }
    return 1;
  }
  const auto audit = OptimalityAuditor::audit(imported->history, imported->events);
  Table table({"metric", "value"});
  table.add("operations", imported->history.size());
  table.add("events", imported->events.size());
  table.add("delayed (Def. 3)", audit.total_delayed());
  table.add("necessary", audit.total_necessary());
  table.add("unnecessary (false causality)", audit.total_unnecessary());
  table.add("write-delay optimal run", audit.write_delay_optimal() ? "yes" : "NO");
  table.add("safe", audit.safe() ? "yes" : "NO");
  table.add("live", audit.live() ? "yes" : "NO");
  table.add("causally consistent", check.consistent() ? "yes" : "NO");
  std::printf("%s", table.str().c_str());
  if (flags.get_bool("history")) {
    std::printf("\n%s", imported->history.str().c_str());
  }
  return 0;
}

int cmd_compare(Flags& flags) {
  const auto parsed = parse_common(flags);
  if (!parsed) return 2;
  const CommonOptions& o = *parsed;
  if (flags.get_bool("dry-run")) return 0;
  std::printf("workload: %s\n", o.spec.describe().c_str());

  Table table({"protocol", "delayed", "delayed/1k", "necessary", "unnecessary",
               "skipped", "peak buffer", "net bytes", "optimal run"});
  for (const auto kind : all_protocol_kinds()) {
    if (o.crash.active() && kind == ProtocolKind::kTokenWs) {
      std::printf("(token-ws skipped: crash recovery needs a class-P "
                  "buffering protocol)\n");
      continue;
    }
    const auto result = run_one(kind, o);
    const auto audit = OptimalityAuditor::audit(*result.recorder);
    std::uint64_t skipped = 0;
    std::uint64_t peak = 0;
    for (const auto& s : result.stats) {
      skipped += s.skipped_writes;
      peak = std::max(peak, s.peak_pending);
    }
    const double rate =
        audit.total_remote() == 0
            ? 0.0
            : 1000.0 * static_cast<double>(audit.total_delayed()) /
                  static_cast<double>(audit.total_remote());
    table.add(to_string(kind), audit.total_delayed(), rate,
              audit.total_necessary(), audit.total_unnecessary(), skipped,
              peak, result.net.bytes_sent,
              audit.write_delay_optimal() ? "yes" : "NO");
  }
  std::printf("%s", table.str().c_str());
  return 0;
}

// The fault-scenario driver: the workload runs under drops + partition +
// crash/restart, and the report puts recovery behaviour next to the audit
// verdicts — the point being that the verdicts do not change.  With no fault
// flags at all it runs a built-in demo scenario.  Exit status is non-zero if
// any surviving history fails a check or the ARQ abandoned a message.
int cmd_faults(Flags& flags) {
  const std::string proto_flag = flags.get("protocol", "");
  auto parsed = parse_common(flags);
  if (!parsed) return 2;
  CommonOptions o = *parsed;
  if (!o.fault.active() && !o.crash.active()) {
    o.fault.drop = 0.05;
    o.fault.split({0}, o.spec.n_procs, sim_ms(8), sim_ms(23));
    if (o.spec.n_procs > 1) {
      o.crash.events.push_back(CrashEvent{1, sim_ms(5), sim_ms(13)});
    }
    std::printf(
        "no fault flags given; demo scenario: drop=0.05, partition {p0} vs "
        "rest 8-23ms, crash p1 @5ms restart @13ms\n");
  }

  std::vector<ProtocolKind> kinds;
  if (!proto_flag.empty()) {
    const auto kind = parse_protocol(proto_flag);
    if (!kind) {
      std::fprintf(stderr, "unknown protocol\n");
      return 2;
    }
    kinds.push_back(*kind);
  } else {
    kinds = {ProtocolKind::kOptP, ProtocolKind::kAnbkh};
  }
  if (flags.get_bool("dry-run")) return 0;

  std::printf("workload: %s\n\n", o.spec.describe().c_str());
  Table table({"protocol", "settled", "consistent", "optimal", "unnecessary",
               "recover (ms)", "catchup (KB)", "retx", "crash drops",
               "abandoned"});
  std::string detail;
  bool all_ok = true;
  for (const auto kind : kinds) {
    if (o.crash.active() && kind == ProtocolKind::kTokenWs) {
      std::fprintf(stderr,
                   "token-ws cannot run under a crash plan: a crashed token "
                   "holder would require an election (see docs/FAULTS.md)\n");
      return 2;
    }
    if (o.crash.active() && kind == ProtocolKind::kOptPSharded) {
      std::fprintf(stderr,
                   "optp-sharded cannot run under a crash plan: it is not a "
                   "class-P buffering protocol (see docs/FAULTS.md)\n");
      return 2;
    }
    const auto result = run_one(kind, o);
    const auto audit = OptimalityAuditor::audit(*result.recorder);
    const auto check = ConsistencyChecker::check(result.recorder->history());

    double recover_ms = 0.0;
    std::size_t recovered = 0;
    for (const RecoveryRecord& rec : result.recoveries) {
      char line[160];
      std::snprintf(line, sizeof line,
                    "  %s: p%u down %.1f-%.1fms, %s\n", to_string(kind),
                    static_cast<unsigned>(rec.proc),
                    static_cast<double>(rec.crashed_at) / 1000.0,
                    static_cast<double>(rec.restarted_at) / 1000.0,
                    rec.recovered ? "caught up" : "did NOT catch up");
      detail += line;
      if (rec.recovered) {
        recover_ms += static_cast<double>(rec.recovered_at -
                                          rec.restarted_at) / 1000.0;
        ++recovered;
      }
    }
    const bool ok = result.settled && check.consistent() && audit.safe() &&
                    audit.live() && recovered == result.recoveries.size() &&
                    result.reliable.abandoned == 0;
    all_ok = all_ok && ok;
    table.add(to_string(kind), result.settled ? "yes" : "NO",
              check.consistent() ? "yes" : "NO",
              audit.write_delay_optimal() ? "yes" : "NO",
              audit.total_unnecessary(),
              recovered == 0
                  ? 0.0
                  : recover_ms / static_cast<double>(recovered),
              static_cast<double>(result.recovery.catch_up_bytes) / 1024.0,
              result.reliable.retransmissions, result.faults.crash_dropped,
              result.reliable.abandoned);
  }
  std::printf("%s", table.str().c_str());
  if (!detail.empty()) std::printf("\nrecoveries:\n%s", detail.c_str());
  std::printf("%s\n",
              all_ok ? "\nall checks passed: causal consistency, safety, "
                       "liveness, full recovery, zero ARQ abandonment"
                     : "\nCHECK FAILURE: see the NO cells above");
  return all_ok ? 0 : 1;
}

int cmd_paper(Flags& flags) {
  const std::string which =
      flags.positional().size() > 1 ? flags.positional()[1] : "all";
  const bool all = which == "all";
  const bool known = all || which == "history" || which == "table1" ||
                     which == "table2" || which == "fig1" || which == "fig3" ||
                     which == "fig6" || which == "fig7";
  if (!known) {
    std::fprintf(stderr, "unknown paper artifact '%s'\n", which.c_str());
    return 2;
  }
  if (flags.get_bool("dry-run")) return 0;

  const ConstantLatency latency(sim_us(10));
  SimRunConfig cfg;
  cfg.kind = ProtocolKind::kOptP;
  cfg.n_procs = paper::kH1Procs;
  cfg.n_vars = paper::kH1Vars;
  cfg.latency = &latency;

  if (all || which == "history") {
    const auto result = run_sim(cfg, paper::make_h1_scripts());
    std::printf("== Example 1 (H1), produced by an OptP run ==\n%s\n",
                result.recorder->history().str().c_str());
  }
  if (all || which == "table1") {
    const auto result = run_sim(cfg, paper::make_h1_scripts());
    const auto co = CoRelation::build(result.recorder->history());
    std::printf("== Table 1: X_co-safe(e) ==\n");
    for (const OpRef wref : result.recorder->history().writes()) {
      const auto& op = result.recorder->history().op(wref);
      std::printf("  apply_k(%s) -> %s\n", op_to_string(op).c_str(),
                  enabling_set_str(x_co_safe_writes(*co, op.write_id), 0).c_str());
    }
    std::printf("\n");
  }
  if (all || which == "table2" || which == "fig3" || which == "fig6" ||
      which == "fig1") {
    const auto choreo =
        which == "fig1" ? paper::make_fig1_run2() : paper::make_fig3();
    for (const auto kind : {ProtocolKind::kAnbkh, ProtocolKind::kOptP}) {
      auto c2 = cfg;
      c2.kind = kind;
      c2.latency_override = choreo.latency_override;
      const auto result = run_sim(c2, choreo.scripts);
      const auto audit = OptimalityAuditor::audit(*result.recorder);
      std::printf("== choreographed run under %s ==\n%s", to_string(kind),
                  render_space_time(*result.recorder).c_str());
      std::printf("delayed=%llu unnecessary=%llu\n\n",
                  static_cast<unsigned long long>(audit.total_delayed()),
                  static_cast<unsigned long long>(audit.total_unnecessary()));
      if (which == "table2" && kind == ProtocolKind::kAnbkh) {
        const auto co = CoRelation::build(result.recorder->history());
        std::printf("== Table 2: X_ANBKH(e) from the run's send clocks ==\n");
        for (const OpRef wref : result.recorder->history().writes()) {
          const auto& op = result.recorder->history().op(wref);
          const auto& clock =
              send_clock_of(result.recorder->events(), op.write_id);
          std::printf("  apply_k(%s) -> %s\n", op_to_string(op).c_str(),
                      enabling_set_str(
                          x_protocol_writes(clock, op.write_id), 0).c_str());
        }
        std::printf("\n");
        (void)co;
      }
    }
  }
  if (all || which == "fig7") {
    const auto result = run_sim(cfg, paper::make_h1_scripts());
    const auto co = CoRelation::build(result.recorder->history());
    const CausalityGraph graph(*co);
    std::printf("== Figure 7: write causality graph ==\n%s\n%s",
                graph.to_ascii().c_str(), graph.to_dot().c_str());
  }
  return 0;
}

/// "a,b,c" -> {"a","b","c"} (no escaping; addresses cannot contain commas).
std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    out.push_back(text.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

int cmd_serve(Flags& flags) {
  const auto kind = parse_protocol(flags.get("protocol", "optp"));
  if (!kind) {
    std::fprintf(stderr, "unknown protocol\n");
    return 2;
  }
  const long long id = flags.get_int("id", 0);
  const std::string peers_flag = flags.get("peers", "");
  const std::string listen = flags.get("listen", "");
  if (peers_flag.empty()) {
    std::fprintf(stderr, "serve needs --peers=<host:port,...>\n");
    return 2;
  }
  std::vector<std::string> peers = split_commas(peers_flag);
  if (id < 0 || static_cast<std::size_t>(id) >= peers.size()) {
    std::fprintf(stderr, "--id must index into --peers\n");
    return 2;
  }
  if (!listen.empty()) peers[static_cast<std::size_t>(id)] = listen;
  for (const std::string& addr : peers) {
    if (!net::parse_addr(addr)) {
      std::fprintf(stderr, "bad peer address '%s'\n", addr.c_str());
      return 2;
    }
  }

  ProcessNodeConfig config;
  config.shape.kind = *kind;
  config.shape.self = static_cast<ProcessId>(id);
  config.shape.n_procs = peers.size();
  config.shape.n_vars = static_cast<std::size_t>(flags.get_int("vars", 8));
  config.shape.recoverable = flags.get_bool("recoverable");
  config.state_dir = flags.get("state-dir", "");
  const std::string fsync_flag = flags.get("fsync", "");
  if (!fsync_flag.empty()) {
    const auto policy = parse_fsync_policy(fsync_flag);
    if (!policy) {
      std::fprintf(stderr, "bad --fsync '%s' (want none, interval or every)\n",
                   fsync_flag.c_str());
      return 2;
    }
    if (config.state_dir.empty()) {
      std::fprintf(stderr, "--fsync requires --state-dir\n");
      return 2;
    }
    config.fsync = *policy;
  }
  if (!config.state_dir.empty() && !config.shape.recoverable) {
    std::fprintf(stderr,
                 "--state-dir requires --recoverable (every peer in the mesh "
                 "must agree on the recoverable shape)\n");
    return 2;
  }
  config.wal_group_commit = flags.get_bool("wal-group-commit");
  if (config.wal_group_commit && config.state_dir.empty()) {
    std::fprintf(stderr,
                 "--wal-group-commit requires --state-dir (group commit is a "
                 "WAL fsync schedule; there is no WAL without one)\n");
    return 2;
  }
  const std::string own_addr = peers[static_cast<std::size_t>(id)];
  const std::string state_dir = config.state_dir;
  config.peers = std::move(peers);
  if (flags.get_bool("dry-run")) return 0;

  ProcessNode node(std::move(config));
  std::printf("serving process %lld on %s (%zu-process mesh, %s%s%s); waiting "
              "for a driver...\n",
              id, own_addr.c_str(), node.transport().n_procs(),
              to_string(*kind), state_dir.empty() ? "" : ", durable in ",
              state_dir.c_str());
  node.run();
  return 0;
}

int cmd_drive(Flags& flags) {
  const auto kind = parse_protocol(flags.get("protocol", "optp"));
  if (!kind) {
    std::fprintf(stderr, "unknown protocol\n");
    return 2;
  }
  const std::string script = flags.get("script", "h1");
  const long long spawn = flags.get_int("spawn", 3);
  const auto time_scale =
      static_cast<std::uint64_t>(flags.get_int("time-scale", 1000));
  const bool compare_sim = flags.get_bool("compare-sim");
  const std::string kill_conn = flags.get("kill-conn", "");
  const std::string kill_host = flags.get("kill-host", "");
  const std::string nemesis_spec = flags.get("nemesis", "");
  const bool want_respawn = flags.get_bool("respawn");
  std::string state_dir = flags.get("state-dir", "");
  const std::string fsync_flag = flags.get("fsync", "");

  std::vector<Script> scripts;
  std::size_t n_vars = paper::kH1Vars;
  std::shared_ptr<const ObjectSchema> schema;
  if (script == "h1") {
    scripts = paper::make_h1_scripts();
  } else if (script == "fig1" || script == "fig3") {
    auto c = script == "fig1" ? paper::make_fig1_run2() : paper::make_fig3();
    scripts = std::move(c.scripts);
  } else if (script == "objects") {
    scripts = make_objects_demo_scripts();
    schema = make_objects_demo_schema();
    n_vars = kObjectsDemoVars;
  } else {
    std::fprintf(stderr, "unknown --script (want h1, fig1, fig3 or objects)\n");
    return 2;
  }
  if (static_cast<std::size_t>(spawn) != scripts.size()) {
    std::fprintf(stderr, "--spawn must be %zu for --script=%s\n",
                 scripts.size(), script.c_str());
    return 2;
  }
  if (compare_sim && script != "h1" && script != "objects") {
    std::fprintf(stderr,
                 "--compare-sim only works with --script=h1 or "
                 "--script=objects (fig1/fig3 choreograph per-message "
                 "latency, which real sockets cannot reproduce)\n");
    return 2;
  }
  if (schema != nullptr && *kind != ProtocolKind::kOptP &&
      *kind != ProtocolKind::kAnbkh && *kind != ProtocolKind::kOptPSharded) {
    std::fprintf(stderr,
                 "--script=objects requires --protocol=optp, anbkh or "
                 "optp-sharded (writing-semantics protocols skip superseded "
                 "writes, which would drop mutations)\n");
    return 2;
  }
  unsigned long long kc_from = 0;
  unsigned long long kc_to = 0;
  unsigned long long kc_at_ms = 0;
  const bool want_kill = !kill_conn.empty();
  if (want_kill &&
      (std::sscanf(kill_conn.c_str(), "%llu:%llu@%llu", &kc_from, &kc_to,
                   &kc_at_ms) != 3 ||
       kc_from >= scripts.size() || kc_to >= scripts.size() ||
       kc_from == kc_to)) {
    std::fprintf(stderr, "bad --kill-conn (want P:Q@MS)\n");
    return 2;
  }
  if (time_scale == 0) {
    std::fprintf(stderr, "--time-scale must be >= 1\n");
    return 2;
  }
  const bool wal_group_commit = flags.get_bool("wal-group-commit");
  FsyncPolicy fsync = FsyncPolicy::kEvery;
  if (!fsync_flag.empty()) {
    const auto policy = parse_fsync_policy(fsync_flag);
    if (!policy) {
      std::fprintf(stderr, "bad --fsync '%s' (want none, interval or every)\n",
                   fsync_flag.c_str());
      return 2;
    }
    if (state_dir.empty() && !want_respawn && !wal_group_commit) {
      std::fprintf(stderr,
                   "--fsync requires durable state (--state-dir, or the "
                   "temp dir --respawn/--wal-group-commit imply)\n");
      return 2;
    }
    fsync = *policy;
  }
  unsigned long long kh_node = 0;
  unsigned long long kh_at_ms = 30;
  const bool want_kill_host = !kill_host.empty();
  if (want_kill_host) {
    const std::size_t at = kill_host.find('@');
    const std::string node_part = kill_host.substr(0, at);
    char* end = nullptr;
    kh_node = std::strtoull(node_part.c_str(), &end, 10);
    bool parsed = !node_part.empty() && *end == '\0';
    if (parsed && at != std::string::npos) {
      const std::string ms_part = kill_host.substr(at + 1);
      kh_at_ms = std::strtoull(ms_part.c_str(), &end, 10);
      parsed = !ms_part.empty() && *end == '\0';
    }
    if (!parsed || kh_node >= scripts.size()) {
      std::fprintf(stderr, "bad --kill-host '%s' (want N or N@MS, N < spawn)\n",
                   kill_host.c_str());
      return 2;
    }
  }
  if (want_kill_host != want_respawn) {
    std::fprintf(stderr,
                 "--kill-host and --respawn go together: SIGKILL one node "
                 "mid-run, then respawn it from its durable state dir\n");
    return 2;
  }
  std::optional<NemesisPlan> nemesis;
  if (!nemesis_spec.empty()) {
    std::string nemesis_error;
    nemesis = NemesisPlan::parse(nemesis_spec, scripts.size(), &nemesis_error);
    if (!nemesis) {
      std::fprintf(stderr, "bad --nemesis: %s\n", nemesis_error.c_str());
      return 2;
    }
    if (want_kill_host) {
      std::fprintf(stderr,
                   "--nemesis already schedules crashes; drop --kill-host\n");
      return 2;
    }
  }
  const long long shards_per_proc = flags.get_int("shards-per-proc", 1);
  if (shards_per_proc < 1) {
    std::fprintf(stderr, "--shards-per-proc must be >= 1\n");
    return 2;
  }
  if (shards_per_proc > 1) {
    // SIGKILLing a shard group would take out several nodes at once — that
    // is a different fault than the single-node crash these flags model.
    if (want_kill_host || want_respawn) {
      std::fprintf(stderr,
                   "--shards-per-proc > 1 is incompatible with --kill-host/"
                   "--respawn (a SIGKILL would hit the whole shard group)\n");
      return 2;
    }
    if (nemesis && nemesis->has_crashes()) {
      std::fprintf(stderr,
                   "--shards-per-proc > 1 is incompatible with nemesis "
                   "crash schedules (crashes SIGKILL whole processes)\n");
      return 2;
    }
  }
  // Crashes need a respawn source and wal-fail needs a WAL: both imply
  // durable state (a temp dir is made below when none was given), and group
  // commit is meaningless without a WAL to commit.
  const bool nemesis_durable =
      nemesis && (nemesis->has_crashes() || !nemesis->wal_fails.empty());
  if (schema != nullptr &&
      (flags.get_bool("recoverable") || !state_dir.empty() || want_kill_host ||
       want_respawn || wal_group_commit || nemesis_durable)) {
    std::fprintf(stderr,
                 "--script=objects keeps no durable state (catch-up "
                 "redelivery carries no typed payload): drop --recoverable/"
                 "--state-dir/--kill-host/--respawn/--wal-group-commit and "
                 "nemesis crash/wal-fail entries\n");
    return 2;
  }
  std::shared_ptr<const SubscriptionMap> subscription;
  if (!parse_subscription_flags(flags, *kind, scripts.size(), n_vars,
                                subscription)) {
    return 2;
  }
  if (*kind == ProtocolKind::kOptPSharded) {
    // ShardedOptP is not a class-P buffering protocol: there is no WAL/
    // checkpoint seam to restore from, so every durable-recovery mode is
    // off-limits.
    if (flags.get_bool("recoverable") || !state_dir.empty() ||
        want_kill_host || want_respawn || wal_group_commit || nemesis_durable) {
      std::fprintf(stderr,
                   "optp-sharded has no durable-recovery seam: drop "
                   "--recoverable/--state-dir/--kill-host/--respawn/"
                   "--wal-group-commit and nemesis crash/wal-fail entries\n");
      return 2;
    }
    if (subscription != nullptr &&
        !scripts_within(scripts, *subscription, "--subscriptions")) {
      return 2;
    }
  }
  if (flags.get_bool("dry-run")) return 0;
  if ((want_respawn || nemesis_durable || wal_group_commit) &&
      state_dir.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    std::string templ =
        std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
        "/optcm-state-XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
      std::fprintf(stderr, "cannot create a temporary state dir\n");
      return 1;
    }
    state_dir = buf.data();
    std::printf("state dir: %s\n", state_dir.c_str());
  }

  ProcessClusterConfig cluster_config;
  cluster_config.shape.kind = *kind;
  cluster_config.shape.n_procs = scripts.size();
  cluster_config.shape.n_vars = n_vars;
  // Durable state needs the recoverable stack (replay filter + anti-entropy);
  // the drive harness owns every node, so it is safe to imply the shape.
  cluster_config.shape.recoverable =
      flags.get_bool("recoverable") || !state_dir.empty();
  // Forked without exec: the children inherit the map through the shared
  // ProtocolConfig, so every node routes by the same subscription sets (and
  // the same object schema).
  cluster_config.shape.protocol_config.subscription = subscription;
  cluster_config.shape.protocol_config.objects = schema;
  cluster_config.state_dir = state_dir;
  cluster_config.fsync = fsync;
  cluster_config.wal_group_commit = wal_group_commit;
  cluster_config.shards_per_proc = static_cast<std::size_t>(shards_per_proc);
  if (nemesis) {
    cluster_config.net_faults = nemesis->boot_plan();
    cluster_config.storage_fail = nemesis->wal_fails;
  }

  ProcessCluster cluster(cluster_config);
  if (!cluster.spawn()) {
    std::fprintf(stderr, "cluster spawn failed\n");
    return 1;
  }
  if (!cluster.wait_ready()) {
    std::fprintf(stderr, "cluster never became fully connected\n");
    return 1;
  }
  if (shards_per_proc > 1) {
    std::printf("cluster up: %zu shards packed %lld per process, ring mesh "
                "inside, TCP between, on 127.0.0.1\n",
                cluster.n_procs(), shards_per_proc);
  } else {
    std::printf("cluster up: %zu processes, full TCP mesh on 127.0.0.1\n",
                cluster.n_procs());
  }
  if (!cluster.run(scripts, time_scale)) {
    std::fprintf(stderr, "failed to start the scripted run\n");
    return 1;
  }
  if (want_kill) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kc_at_ms));
    if (!cluster.kill_connection(static_cast<ProcessId>(kc_from),
                                 static_cast<ProcessId>(kc_to))) {
      std::fprintf(stderr, "kill-conn request failed\n");
      return 1;
    }
    std::printf("dropped connection p%llu -> p%llu at +%llums\n", kc_from,
                kc_to, kc_at_ms);
  }
  NemesisOutcome nemesis_out;
  nemesis_out.ok = true;
  if (nemesis) {
    const auto timeline = expand(*nemesis);
    std::printf("nemesis schedule (%zu events):\n%s",
                timeline.size(), trace_str(timeline).c_str());
    nemesis_out = run_nemesis(cluster, *nemesis, scripts, time_scale);
    if (!nemesis_out.ok) {
      std::fprintf(stderr, "nemesis failed: %s\n", nemesis_out.error.c_str());
      return 1;
    }
    std::printf("nemesis schedule complete (%zu crash(es) archived)\n",
                nemesis_out.pre_crash.size());
  }
  std::optional<ImportedRun> pre_kill_log;
  if (want_kill_host) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kh_at_ms));
    const auto victim = static_cast<ProcessId>(kh_node);
    // Archive incarnation 1's view first: stitched against the respawned
    // node's final log below, this exercises the multi-incarnation path.
    pre_kill_log = cluster.fetch_log(victim);
    if (!pre_kill_log) {
      std::fprintf(stderr, "failed to fetch p%llu's pre-kill log\n", kh_node);
      return 1;
    }
    if (!cluster.kill_process(victim)) {
      std::fprintf(stderr, "kill-host failed\n");
      return 1;
    }
    std::printf("kill -9 p%llu at +%llums\n", kh_node, kh_at_ms);
    if (!cluster.respawn_process(victim)) {
      std::fprintf(stderr, "respawn failed\n");
      return 1;
    }
    if (!cluster.wait_ready()) {
      std::fprintf(stderr, "respawned cluster never re-formed the mesh\n");
      return 1;
    }
    if (!cluster.wait_quiescent()) {
      std::fprintf(stderr, "cluster never quiesced after the respawn\n");
      return 1;
    }
    if (!cluster.run_node(victim, scripts[kh_node], time_scale)) {
      std::fprintf(stderr, "failed to resume p%llu's script\n", kh_node);
      return 1;
    }
    std::printf(
        "p%llu respawned from %s/node-%llu (snapshot + WAL replay + "
        "anti-entropy) and resumed its script\n",
        kh_node, state_dir.c_str(), kh_node);
  }
  if (!cluster.wait_done()) {
    std::fprintf(stderr, "run did not complete (last control error: %s)\n",
                 std::string(to_string(cluster.last_error())).c_str());
    return 1;
  }

  std::vector<ImportedRun> runs;
  for (ProcessId p = 0; p < cluster.n_procs(); ++p) {
    auto log = cluster.fetch_log(p);
    if (!log) {
      std::fprintf(stderr, "failed to fetch node %u's log\n",
                   static_cast<unsigned>(p));
      return 1;
    }
    runs.push_back(std::move(*log));
  }
  NodeNetStats total;
  for (ProcessId p = 0; p < cluster.n_procs(); ++p) {
    const auto stats = cluster.fetch_stats(p);
    if (stats) {
      total.reliable += stats->reliable;
      total.tcp.frames_out += stats->tcp.frames_out;
      total.tcp.bytes_out += stats->tcp.bytes_out;
      total.tcp.reconnects += stats->tcp.reconnects;
      total.tcp.sends_dropped += stats->tcp.sends_dropped;
      total.faults.forwarded += stats->faults.forwarded;
      total.faults.dropped += stats->faults.dropped;
      total.faults.duplicated += stats->faults.duplicated;
      total.faults.corrupted += stats->faults.corrupted;
      total.faults.reordered += stats->faults.reordered;
      total.faults.delayed += stats->faults.delayed;
      total.faults.throttled += stats->faults.throttled;
      total.faults.blocked += stats->faults.blocked;
      total.wal_write_errors += stats->wal_write_errors;
      total.wal_write_retries += stats->wal_write_retries;
      total.wal_fsync_errors += stats->wal_fsync_errors;
      total.snapshot_failures += stats->snapshot_failures;
    }
  }
  const bool clean_exit = cluster.shutdown();

  if (!nemesis_out.pre_crash.empty()) {
    // Each crash archived the victim's pre-kill view; stitch the archived
    // incarnations (oldest first) against the node's final log.
    std::map<ProcessId, std::vector<ImportedRun>> incarnations;
    for (auto& [node, log] : nemesis_out.pre_crash) {
      incarnations[node].push_back(std::move(log));
    }
    for (auto& [node, logs] : incarnations) {
      logs.push_back(std::move(runs[node]));
      auto stitched = stitch_incarnations(logs);
      if (!stitched) {
        std::fprintf(stderr,
                     "p%u's incarnation logs do not stitch (inconsistent op "
                     "prefixes)\n",
                     static_cast<unsigned>(node));
        return 1;
      }
      runs[node] = std::move(*stitched);
    }
  }

  if (pre_kill_log) {
    ImportedRun incs[2] = {std::move(*pre_kill_log),
                           std::move(runs[kh_node])};
    auto stitched = stitch_incarnations(incs);
    if (!stitched) {
      std::fprintf(stderr,
                   "p%llu's incarnation logs do not stitch (inconsistent "
                   "op prefixes)\n",
                   kh_node);
      return 1;
    }
    runs[kh_node] = std::move(*stitched);
  }

  const auto merged = merge_runs(runs);
  if (!merged) {
    std::fprintf(stderr, "per-node logs do not merge into a causal order\n");
    return 1;
  }
  const auto audit = OptimalityAuditor::audit(merged->history, merged->events,
                                              subscription.get());
  const auto check = schema != nullptr
                         ? SpecChecker::check(merged->history, *schema)
                         : ConsistencyChecker::check(merged->history);

  Table table({"metric", "value"});
  table.add("script", script);
  if (schema != nullptr) {
    table.add("objects", schema->str());
    table.add("linearizations explored", check.linearizations_explored);
  }
  if (subscription != nullptr) {
    table.add("subscriptions", subscription->describe());
  }
  table.add("time scale", time_scale);
  table.add("operations (merged)", merged->history.size());
  table.add("events (merged)", merged->events.size());
  table.add("TCP frames sent", total.tcp.frames_out);
  table.add("TCP bytes sent", total.tcp.bytes_out);
  table.add("TCP reconnects", total.tcp.reconnects);
  table.add("sends dropped (link down)", total.tcp.sends_dropped);
  table.add("ARQ retransmissions", total.reliable.retransmissions);
  table.add("ARQ abandoned", total.reliable.abandoned);
  table.add("delayed (Def. 3)", audit.total_delayed());
  table.add("unnecessary delays", audit.total_unnecessary());
  table.add("write-delay optimal run (Def. 5)",
            audit.write_delay_optimal() ? "yes" : "NO");
  table.add("safe", audit.safe() ? "yes" : "NO");
  table.add("live", audit.live() ? "yes" : "NO");
  table.add("causally consistent (Defs. 1-2)",
            check.consistent() ? "yes" : "NO");
  table.add("clean shutdown", clean_exit ? "yes" : "NO");
  if (want_kill_host) {
    table.add("kill -9 + respawn + stitch", "p" + std::to_string(kh_node));
  }
  if (nemesis) {
    table.add("faults: dropped", total.faults.dropped);
    table.add("faults: duplicated", total.faults.duplicated);
    table.add("faults: corrupted", total.faults.corrupted);
    table.add("faults: reordered", total.faults.reordered);
    table.add("faults: delayed", total.faults.delayed);
    table.add("faults: blocked (partition)", total.faults.blocked);
    table.add("WAL write errors / retries",
              std::to_string(total.wal_write_errors) + " / " +
                  std::to_string(total.wal_write_retries));
    table.add("WAL fsync errors", total.wal_fsync_errors);
    table.add("snapshot spills skipped/failed", total.snapshot_failures);
    table.add("crashes (SIGKILL + respawn)", nemesis_out.pre_crash.size());
  }
  std::printf("%s", table.str().c_str());

  bool ok = check.consistent() && audit.safe() && audit.live() &&
            total.reliable.abandoned == 0 && clean_exit;

  if (compare_sim) {
    const ConstantLatency latency(sim_us(10));
    SimRunConfig sim_config;
    sim_config.kind = *kind;
    sim_config.n_procs = scripts.size();
    sim_config.n_vars = n_vars;
    sim_config.latency = &latency;
    sim_config.protocol_config.subscription = subscription;
    sim_config.protocol_config.objects = schema;
    const auto sim = run_sim(sim_config, scripts);
    bool equal = true;
    for (ProcessId p = 0; p < cluster.n_procs(); ++p) {
      const std::string net_seq = sequence_str(runs[p].events, p);
      const std::string sim_seq = sim.recorder->sequence_str(p);
      if (net_seq != sim_seq) {
        equal = false;
        std::printf("\np%u DIVERGES from the simulator:\n  net: %s\n  sim: %s\n",
                    static_cast<unsigned>(p), net_seq.c_str(), sim_seq.c_str());
      }
    }
    std::printf("\nobserver-event equivalence vs simulator: %s\n",
                equal ? "byte-identical on every process"
                      : "MISMATCH (see above)");
    ok = ok && equal;
  }
  if (want_kill) {
    std::printf("reconnects=%llu retransmissions=%llu (the dropped link was "
                "re-dialed and repaired by the ARQ)\n",
                static_cast<unsigned long long>(total.tcp.reconnects),
                static_cast<unsigned long long>(total.reliable.retransmissions));
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.positional().empty()) return usage(argv[0]);
  const std::string& command = flags.positional()[0];

  int rc;
  if (command == "run") {
    rc = cmd_run(flags);
  } else if (command == "compare") {
    rc = cmd_compare(flags);
  } else if (command == "faults") {
    rc = cmd_faults(flags);
  } else if (command == "paper") {
    rc = cmd_paper(flags);
  } else if (command == "replay") {
    rc = cmd_replay(flags);
  } else if (command == "serve") {
    rc = cmd_serve(flags);
  } else if (command == "drive") {
    rc = cmd_drive(flags);
  } else {
    return usage(argv[0]);
  }

  for (const auto& name : flags.unknown()) {
    std::fprintf(stderr, "warning: unrecognized flag --%s\n", name.c_str());
  }
  return rc;
}
