#include "dsm/workload/generator.h"

#include <algorithm>
#include <charconv>

#include "dsm/common/contracts.h"
#include "dsm/common/format.h"

namespace dsm {

const char* to_string(AccessPattern p) noexcept {
  switch (p) {
    case AccessPattern::kUniform: return "uniform";
    case AccessPattern::kZipf: return "zipf";
    case AccessPattern::kPartitioned: return "partitioned";
    case AccessPattern::kHotspot: return "hotspot";
  }
  return "?";
}

std::string WorkloadSpec::describe() const {
  return std::string(to_string(pattern)) + "(n=" + std::to_string(n_procs) +
         ", m=" + std::to_string(n_vars) +
         ", ops=" + std::to_string(ops_per_proc) +
         ", wf=" + fixed(write_fraction, 2) + ", seed=" + std::to_string(seed) +
         ")";
}

std::vector<Script> generate_workload(const WorkloadSpec& spec) {
  DSM_REQUIRE(spec.n_procs >= 1);
  DSM_REQUIRE(spec.n_vars >= 1);
  DSM_REQUIRE(spec.write_fraction >= 0.0 && spec.write_fraction <= 1.0);

  Rng master(spec.seed);
  const ZipfSampler zipf(spec.n_vars, spec.zipf_s);

  std::vector<Script> scripts(spec.n_procs);
  for (ProcessId p = 0; p < spec.n_procs; ++p) {
    Rng rng = master.split();
    Script& script = scripts[p];
    script.reserve(spec.ops_per_proc);

    // Shard bounds for kPartitioned (contiguous, evenly split).
    const std::size_t shard_lo = p * spec.n_vars / spec.n_procs;
    const std::size_t shard_hi = (p + 1) * spec.n_vars / spec.n_procs;
    const std::size_t shard_size = std::max<std::size_t>(1, shard_hi - shard_lo);

    SeqNo writes = 0;
    for (std::size_t i = 0; i < spec.ops_per_proc; ++i) {
      const bool is_write = rng.chance(spec.write_fraction);

      VarId var = 0;
      switch (spec.pattern) {
        case AccessPattern::kUniform:
          var = static_cast<VarId>(rng.below(spec.n_vars));
          break;
        case AccessPattern::kZipf:
          var = static_cast<VarId>(zipf.sample(rng));
          break;
        case AccessPattern::kPartitioned:
          if (is_write && !rng.chance(spec.remote_write_fraction)) {
            var = static_cast<VarId>(shard_lo + rng.below(shard_size));
          } else {
            var = static_cast<VarId>(rng.below(spec.n_vars));
          }
          break;
        case AccessPattern::kHotspot:
          var = rng.chance(spec.hotspot_fraction)
                    ? 0
                    : static_cast<VarId>(rng.below(spec.n_vars));
          break;
      }

      const auto gap = static_cast<SimTime>(
          rng.exponential(static_cast<double>(spec.mean_gap)));

      if (is_write) {
        ++writes;
        // Globally unique, trace-friendly value: issuer * 10^6 + seq.
        const Value v = static_cast<Value>(p) * 1'000'000 +
                        static_cast<Value>(writes);
        script.push_back(write_step(gap, var, v));
      } else {
        script.push_back(read_step(gap, var));
      }
    }
  }
  return scripts;
}

std::vector<Script> generate_subscriber_workload(const WorkloadSpec& spec,
                                                 const SubscriptionMap& map) {
  DSM_REQUIRE(map.n_procs() == spec.n_procs);
  DSM_REQUIRE(map.n_vars() == spec.n_vars);

  Rng master(spec.seed);
  std::vector<Script> scripts(spec.n_procs);
  for (ProcessId p = 0; p < spec.n_procs; ++p) {
    Rng rng = master.split();
    const auto shard = map.vars_of(p);
    DSM_REQUIRE(!shard.empty() &&
                "every process must subscribe to at least one variable");
    // Zipf over the process's subscribed set: rank k in the set gets the
    // k-th Zipf weight, so the globally-lowest subscribed variable is the
    // hot key of each shard.
    const ZipfSampler zipf(shard.size(), spec.zipf_s);
    Script& script = scripts[p];
    script.reserve(spec.ops_per_proc);
    SeqNo writes = 0;
    for (std::size_t i = 0; i < spec.ops_per_proc; ++i) {
      const VarId var = spec.pattern == AccessPattern::kZipf
                            ? shard[zipf.sample(rng)]
                            : shard[rng.below(shard.size())];
      const auto gap = static_cast<SimTime>(
          rng.exponential(static_cast<double>(spec.mean_gap)));
      if (rng.chance(spec.write_fraction)) {
        ++writes;
        const Value v = static_cast<Value>(p) * 1'000'000 +
                        static_cast<Value>(writes);
        script.push_back(write_step(gap, var, v));
      } else {
        script.push_back(read_step(gap, var));
      }
    }
  }
  return scripts;
}

namespace {

enum class MixCategory : std::uint8_t { kRead, kWrite, kCond, kAnti };

MixCategory draw_category(const ObjectMix& mix, Rng& rng) {
  const std::uint64_t total = std::uint64_t{mix.reads} + mix.writes +
                              mix.cond + mix.anti;
  std::uint64_t roll = rng.below(total);
  if (roll < mix.reads) return MixCategory::kRead;
  roll -= mix.reads;
  if (roll < mix.writes) return MixCategory::kWrite;
  roll -= mix.writes;
  if (roll < mix.cond) return MixCategory::kCond;
  return MixCategory::kAnti;
}

bool parse_mix_weight(std::string_view token, std::uint32_t* out) {
  if (token.empty()) return false;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), *out);
  return ec == std::errc{} && ptr == token.data() + token.size();
}

}  // namespace

std::optional<ObjectMix> ObjectMix::parse(std::string_view text,
                                          std::string* error) {
  const auto fail = [&](const std::string& why) -> std::optional<ObjectMix> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  ObjectMix mix;
  std::uint32_t* const slots[] = {&mix.reads, &mix.writes, &mix.cond,
                                  &mix.anti};
  std::size_t field = 0;
  std::size_t pos = 0;
  while (true) {
    const std::size_t colon = text.find(':', pos);
    const std::string_view token =
        text.substr(pos, colon == std::string_view::npos ? colon : colon - pos);
    if (field >= 4) return fail("mix \"" + std::string(text) +
                                "\" has more than four R:W:C:A fields");
    if (!parse_mix_weight(token, slots[field])) {
      return fail("mix \"" + std::string(text) + "\" field " +
                  std::to_string(field + 1) + " is not a non-negative integer");
    }
    ++field;
    if (colon == std::string_view::npos) break;
    pos = colon + 1;
  }
  if (field != 4) return fail("mix \"" + std::string(text) +
                              "\" needs exactly four R:W:C:A fields");
  if (mix.reads + mix.writes + mix.cond + mix.anti == 0) {
    return fail("mix \"" + std::string(text) + "\" has zero total weight");
  }
  return mix;
}

std::string ObjectMix::str() const {
  return std::to_string(reads) + ":" + std::to_string(writes) + ":" +
         std::to_string(cond) + ":" + std::to_string(anti);
}

std::vector<Script> generate_mixed_object_workload(const WorkloadSpec& spec,
                                                   const ObjectSchema& schema,
                                                   const ObjectMix& mix) {
  DSM_REQUIRE(spec.n_procs >= 1);
  DSM_REQUIRE(spec.n_vars >= 1);
  DSM_REQUIRE(mix.reads + mix.writes + mix.cond + mix.anti > 0);

  // Small operand domain: CAS expectations, set membership and counter
  // deltas must actually collide across processes to exercise the specs.
  constexpr Value kDomain = 10;

  Rng master(spec.seed);
  const ZipfSampler zipf(spec.n_vars, spec.zipf_s);

  std::vector<Script> scripts(spec.n_procs);
  for (ProcessId p = 0; p < spec.n_procs; ++p) {
    Rng rng = master.split();
    Script& script = scripts[p];
    script.reserve(spec.ops_per_proc);
    SeqNo writes = 0;
    for (std::size_t i = 0; i < spec.ops_per_proc; ++i) {
      const auto var = static_cast<VarId>(zipf.sample(rng));
      const SpecId sid = schema.spec_for(var);
      const MixCategory cat = draw_category(mix, rng);
      const auto gap = static_cast<SimTime>(
          rng.exponential(static_cast<double>(spec.mean_gap)));
      const auto small = [&] {
        return static_cast<Value>(rng.below(kDomain));
      };
      const auto unique_value = [&] {
        ++writes;
        return static_cast<Value>(p) * 1'000'000 + static_cast<Value>(writes);
      };

      switch (sid) {
        case SpecId::kRegister:
          if (cat == MixCategory::kRead) {
            script.push_back(read_step(gap, var));
          } else {
            script.push_back(write_step(gap, var, unique_value()));
          }
          break;
        case SpecId::kCounter:
          switch (cat) {
            case MixCategory::kRead:
              script.push_back(observe_step(gap, var, sid, OpCode::kGet));
              break;
            case MixCategory::kAnti:
              script.push_back(
                  mutate_step(gap, var, sid, OpCode::kDec, 1 + small()));
              break;
            default:
              script.push_back(
                  mutate_step(gap, var, sid, OpCode::kInc, 1 + small()));
              break;
          }
          break;
        case SpecId::kCasRegister:
          switch (cat) {
            case MixCategory::kRead:
              script.push_back(observe_step(gap, var, sid, OpCode::kRead));
              break;
            case MixCategory::kCond:
              script.push_back(
                  mutate_step(gap, var, sid, OpCode::kCas, small(), small()));
              break;
            default:
              script.push_back(
                  mutate_step(gap, var, sid, OpCode::kWrite, small()));
              break;
          }
          break;
        case SpecId::kLog:
          if (cat == MixCategory::kRead) {
            script.push_back(observe_step(gap, var, sid, OpCode::kScan));
          } else {
            script.push_back(
                mutate_step(gap, var, sid, OpCode::kAppend, unique_value()));
          }
          break;
        case SpecId::kSet:
          switch (cat) {
            case MixCategory::kRead:
              script.push_back(
                  observe_step(gap, var, sid, OpCode::kContains, small()));
              break;
            case MixCategory::kAnti:
              script.push_back(
                  mutate_step(gap, var, sid, OpCode::kRemove, small()));
              break;
            default:
              script.push_back(
                  mutate_step(gap, var, sid, OpCode::kAdd, small()));
              break;
          }
          break;
      }
    }
  }
  return scripts;
}

}  // namespace dsm
