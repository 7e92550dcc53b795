// Deterministic fault injection for the robustness test matrix.
//
// A FaultPlan is a small, seeded script of planned failures — short writes,
// byte corruption, worker-shard exceptions — installed globally and
// consulted from exactly two seams: the sanctioned byte sink
// (`util::write_all`, and through it `ColumnArchive::save_file`) and the
// sharded executor's per-shard attempt hook. Because every directive fires
// at a *planned* point (a global sink byte offset or a global shard-attempt
// ordinal), the same plan replays the same failure every run: degradation
// paths are exercised by ordinary deterministic tests instead of being
// trusted.
//
// Plans come from either the `GORILLA_FAULTS` environment variable or the
// bench `--faults` flag; the grammar is `;`-separated directives:
//
//   short-write@OFF       sink fails (failbit) from global byte offset OFF
//   corrupt@OFF           XOR 0x5a into the byte at global sink offset OFF
//   corrupt@rand:SEED:N   same, at a seeded pseudo-random offset in [0, N)
//   shard-throw@A         throw FaultInjected on global shard-attempt
//                         ordinal A (one-shot: shards run once, so the
//                         throw aborts the run that owns the shard)
//
// Counters are process-global and mutex-guarded; reset_counters() rewinds
// them so one test can stage several runs under one plan. With no plan
// installed both hooks are a single relaxed-atomic load — the harness
// costs nothing on the production path.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace gorilla::util {

/// Thrown by the shard-attempt hook at planned points. A distinct type so
/// tests can tell an injected fault from a genuine defect.
class FaultInjected : public std::runtime_error {
 public:
  explicit FaultInjected(const std::string& what) : std::runtime_error(what) {}
};

/// What write_all should do with the next chunk: write `write_prefix` bytes
/// (optionally flipping the byte at `corrupt_index` first), then fail the
/// stream if `fail_after` is set.
struct SinkAction {
  std::size_t write_prefix = 0;
  bool fail_after = false;
  std::optional<std::size_t> corrupt_index;
};

struct FaultPlan {
  std::optional<std::uint64_t> short_write_at;  ///< global sink byte offset
  std::optional<std::uint64_t> corrupt_at;      ///< global sink byte offset
  std::optional<std::uint64_t> shard_throw_at;  ///< global attempt ordinal

  /// Parses the directive grammar above; nullopt (never a partial plan) on
  /// any syntax error. An empty spec parses to an empty plan.
  [[nodiscard]] static std::optional<FaultPlan> parse(std::string_view spec);

  /// Installs `plan` as the process-global active plan and rewinds the
  /// counters. Replaces any previously installed or env-derived plan.
  static void install(const FaultPlan& plan);

  /// Removes the active plan (env re-read does NOT happen again; cleared
  /// means cleared for the rest of the process).
  static void clear();

  /// The active plan, or nullptr. First call (only) consults the
  /// GORILLA_FAULTS environment variable when nothing was install()ed.
  [[nodiscard]] static const FaultPlan* active();

  /// Rewinds the global sink-offset and shard-attempt counters.
  static void reset_counters();

  /// Sink hook: accounts `chunk_len` bytes against the global sink offset
  /// and returns the action for this chunk. Only call when active() != nullptr.
  [[nodiscard]] static SinkAction next_sink_action(std::size_t chunk_len);

  /// Shard hook: accounts one shard attempt; throws FaultInjected when this
  /// attempt's global ordinal is the planned one. Cheap no-op when no plan
  /// is active.
  static void on_shard_attempt();
};

}  // namespace gorilla::util
