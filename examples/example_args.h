// Command-line flags shared by the examples: --scale N, --seed N and
// --pcap FILE, each accepted only by the examples that name it. A flag
// without a value, a malformed or out-of-range number, or an argument the
// example does not take prints one stderr line and exits 2, so a typo can
// never quietly start a different (say, full-population) world.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>
#include <utility>

namespace gorilla::examples {

struct ExampleArgs {
  std::uint32_t scale = 200;
  std::uint64_t seed = 0;
  std::string pcap;
};

/// The flags an example accepts (bit set).
enum ExampleFlag : unsigned { kScale = 1, kSeed = 2, kPcap = 4 };

[[noreturn]] inline void refuse_arg(const char* argv0, const std::string& why) {
  const char* slash = std::strrchr(argv0, '/');
  std::fprintf(stderr, "%s: %s\n", slash != nullptr ? slash + 1 : argv0,
               why.c_str());
  std::exit(2);
}

/// A whole-string decimal in [lo, hi], or exit 2 naming `flag`.
inline std::uint64_t read_number(const char* argv0, const char* flag,
                                 const char* text, std::uint64_t lo,
                                 std::uint64_t hi) {
  const char* end = text + std::strlen(text);
  std::uint64_t v = 0;
  const auto [stop, error] = std::from_chars(text, end, v);
  if (text == end || error != std::errc() || stop != end || v < lo ||
      v > hi) {
    refuse_arg(argv0, std::string("invalid value for ") + flag + ": '" +
                          text + "' (expected an integer in [" +
                          std::to_string(lo) + ", " + std::to_string(hi) +
                          "])");
  }
  return v;
}

/// Reads argv over `defaults`, accepting only the flags in `accepted`.
inline ExampleArgs read_example_args(int argc, char** argv,
                                     ExampleArgs defaults, unsigned accepted) {
  ExampleArgs args = std::move(defaults);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) refuse_arg(argv[0], "missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--scale" && (accepted & kScale) != 0) {
      args.scale = static_cast<std::uint32_t>(
          read_number(argv[0], "--scale", value(), 1, 1u << 30));
    } else if (arg == "--seed" && (accepted & kSeed) != 0) {
      args.seed = read_number(argv[0], "--seed", value(), 0, UINT64_MAX);
    } else if (arg == "--pcap" && (accepted & kPcap) != 0) {
      args.pcap = value();
    } else {
      refuse_arg(argv[0], "unknown argument '" + arg + "'");
    }
  }
  return args;
}

}  // namespace gorilla::examples
