#include "util/fault.h"

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "util/rng.h"

namespace gorilla::util {

namespace {

std::mutex g_mutex;
std::optional<FaultPlan> g_plan;        // guarded by g_mutex
std::atomic<bool> g_plan_active{false}; // fast-path mirror of g_plan
bool g_env_checked = false;             // guarded by g_mutex
std::uint64_t g_sink_offset = 0;        // guarded by g_mutex
std::uint64_t g_shard_attempts = 0;     // guarded by g_mutex

[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view s) {
  std::uint64_t v = 0;
  const auto* end = s.data() + s.size();
  const auto res = std::from_chars(s.data(), end, v);
  if (res.ec != std::errc{} || res.ptr != end) return std::nullopt;
  return v;
}

/// One `name@args` directive merged into `plan`; false on syntax error.
[[nodiscard]] bool apply_directive(std::string_view directive, FaultPlan& plan) {
  const std::size_t at = directive.find('@');
  if (at == std::string_view::npos) return false;
  const std::string_view name = directive.substr(0, at);
  const std::string_view args = directive.substr(at + 1);

  if (name == "short-write") {
    const auto off = parse_u64(args);
    if (!off) return false;
    plan.short_write_at = *off;
    return true;
  }
  if (name == "corrupt") {
    if (args.substr(0, 5) == "rand:") {
      // corrupt@rand:SEED:N — a seeded draw picks the offset, so sweeping
      // SEED explores distinct corruption points without hand-listing them.
      const std::string_view rest = args.substr(5);
      const std::size_t colon = rest.find(':');
      if (colon == std::string_view::npos) return false;
      const auto seed = parse_u64(rest.substr(0, colon));
      const auto range = parse_u64(rest.substr(colon + 1));
      if (!seed || !range || *range == 0) return false;
      plan.corrupt_at = Rng(*seed).uniform(*range);
      return true;
    }
    const auto off = parse_u64(args);
    if (!off) return false;
    plan.corrupt_at = *off;
    return true;
  }
  if (name == "shard-throw") {
    const auto attempt = parse_u64(args);
    if (!attempt) return false;
    plan.shard_throw_at = *attempt;
    return true;
  }
  return false;
}

}  // namespace

std::optional<FaultPlan> FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t sep = spec.find(';', pos);
    if (sep == std::string_view::npos) sep = spec.size();
    const std::string_view directive = spec.substr(pos, sep - pos);
    if (!directive.empty() && !apply_directive(directive, plan)) {
      return std::nullopt;
    }
    pos = sep + 1;
  }
  return plan;
}

void FaultPlan::install(const FaultPlan& plan) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_plan = plan;
  g_env_checked = true;
  g_sink_offset = 0;
  g_shard_attempts = 0;
  g_plan_active.store(true, std::memory_order_release);
}

void FaultPlan::clear() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_plan.reset();
  g_env_checked = true;
  g_plan_active.store(false, std::memory_order_release);
}

const FaultPlan* FaultPlan::active() {
  if (!g_plan_active.load(std::memory_order_acquire)) {
    const std::lock_guard<std::mutex> lock(g_mutex);
    if (!g_env_checked) {
      g_env_checked = true;
      if (const char* env = std::getenv("GORILLA_FAULTS")) {
        if (auto plan = parse(env)) {
          g_plan = *plan;
          g_plan_active.store(true, std::memory_order_release);
        }
        // A malformed env spec is silently inert here; the bench flag path
        // validates loudly, and tests always install() explicitly.
      }
    }
    if (!g_plan) return nullptr;
  }
  // The plan is write-once until the next install()/clear(), both of which
  // happen between runs, so returning a pointer into the global is safe.
  const std::lock_guard<std::mutex> lock(g_mutex);
  return g_plan ? &*g_plan : nullptr;
}

void FaultPlan::reset_counters() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_sink_offset = 0;
  g_shard_attempts = 0;
}

SinkAction FaultPlan::next_sink_action(std::size_t chunk_len) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  const std::uint64_t begin = g_sink_offset;
  g_sink_offset += chunk_len;

  SinkAction action;
  action.write_prefix = chunk_len;
  if (!g_plan) return action;

  if (g_plan->short_write_at && *g_plan->short_write_at < g_sink_offset) {
    // The planned failure point lands in (or before) this chunk: write only
    // the bytes up to it, then fail — exactly what a torn write looks like.
    const std::uint64_t cut =
        *g_plan->short_write_at <= begin ? 0 : *g_plan->short_write_at - begin;
    action.write_prefix = static_cast<std::size_t>(cut);
    action.fail_after = true;
  }
  if (g_plan->corrupt_at && *g_plan->corrupt_at >= begin &&
      *g_plan->corrupt_at < begin + action.write_prefix) {
    action.corrupt_index = static_cast<std::size_t>(*g_plan->corrupt_at - begin);
  }
  return action;
}

void FaultPlan::on_shard_attempt() {
  // The first attempt reads GORILLA_FAULTS (via active()), as the sink
  // hook's first write does, so processes without --faults see env plans.
  static const bool env_read = (static_cast<void>(active()), true);
  static_cast<void>(env_read);
  if (!g_plan_active.load(std::memory_order_acquire)) return;
  std::uint64_t ordinal = 0;
  std::optional<std::uint64_t> at;
  {
    const std::lock_guard<std::mutex> lock(g_mutex);
    ordinal = g_shard_attempts++;
    if (!g_plan) return;
    at = g_plan->shard_throw_at;
  }
  if (at == ordinal) {
    throw FaultInjected("injected shard fault at attempt " +
                        std::to_string(ordinal));
  }
}

}  // namespace gorilla::util
