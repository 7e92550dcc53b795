// Full-population (--scale 1) smoke test for the memory spine.
//
// Builds the paper-scale world — every NTP server, every detailed monitor
// table — seeds week 0's scanner entries into the tables, and spot-checks
// the result. This is the ROADMAP's "scale=1" memory ceiling in miniature:
// it proves the arena-backed monitor spine actually holds the full
// population, without paying for a full 15-week study in CI.
//
// Exits 2 (ctest SKIP) with a clear message when the host lacks the
// memory headroom; exits 1 on real failures.
#include <cstdio>
#include <cstring>

#include "ntp/server.h"
#include "sim/scanner.h"
#include "sim/world.h"
#include "util/mem_stats.h"

namespace {

/// MemAvailable from /proc/meminfo in bytes (0 when unreadable).
std::uint64_t available_bytes() {
  std::FILE* f = std::fopen("/proc/meminfo", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "MemAvailable:", 13) == 0) {
      std::sscanf(line + 13, "%lu", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
}

}  // namespace

int main() {
  // Empirical peak RSS of this test is ~6.3 GB (the detailed tier, of
  // which the monitor arena is 2.9 GB); require a margin over that so the
  // run can't push the host into swap.
  constexpr std::uint64_t kRequiredBytes = std::uint64_t{12} << 30;
  const std::uint64_t avail = available_bytes();
  if (avail != 0 && avail < kRequiredBytes) {
    std::fprintf(stderr,
                 "SKIP: scale-1 smoke needs ~%lu GB of available memory, "
                 "host has %.1f GB free (MemAvailable). Run it on a larger "
                 "machine: this test is the ROADMAP's full-population "
                 "memory-ceiling check.\n",
                 kRequiredBytes >> 30,
                 static_cast<double>(avail) / (1024.0 * 1024.0 * 1024.0));
    return 2;
  }

  gorilla::sim::WorldConfig cfg;
  cfg.scale = 1;
  gorilla::sim::World world(cfg);
  std::fprintf(stderr, "[smoke] world built: %zu servers, %zu amplifiers\n",
               world.servers().size(), world.amplifier_indices().size());
  if (world.amplifier_indices().empty()) {
    std::fprintf(stderr, "FAIL: scale-1 world has no amplifiers\n");
    return 1;
  }

  gorilla::sim::ScanTraffic scans(world, {});
  scans.seed_monitor_tables(0);

  // The seeding must have left scanner probe entries in detailed tables.
  std::size_t detailed = 0;
  std::size_t with_entries = 0;
  for (const std::uint32_t idx : world.amplifier_indices()) {
    const auto* server = world.detailed(idx);
    if (server == nullptr) continue;
    ++detailed;
    if (server->monitor().size() > 0) ++with_entries;
  }
  std::fprintf(stderr,
               "[smoke] week 0 seeded: %zu detailed amplifiers, %zu with "
               "monitor entries\n",
               detailed, with_entries);
  gorilla::util::MemStats::instance().report(stderr);
  if (detailed == 0 || with_entries == 0) {
    std::fprintf(stderr, "FAIL: seeding left no monitor entries\n");
    return 1;
  }
  std::fprintf(stderr, "[smoke] scale-1 monitor spine OK\n");
  return 0;
}
