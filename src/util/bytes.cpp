#include "util/bytes.h"

#include "util/fault.h"

namespace gorilla::util {

namespace {

void write_span(std::ostream& out, std::span<const std::uint8_t> buf) {
  out.write(reinterpret_cast<const char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
}

}  // namespace

bool read_exact(std::istream& in, std::span<std::uint8_t> buf) {
  // The single sanctioned byte<->char bridge (see gorilla_lint raw-decode
  // rule); everything around it deals in std::uint8_t spans.
  in.read(reinterpret_cast<char*>(buf.data()),
          static_cast<std::streamsize>(buf.size()));
  return in.gcount() == static_cast<std::streamsize>(buf.size());
}

bool write_all(std::ostream& out, std::span<const std::uint8_t> buf) {
  if (FaultPlan::active() != nullptr) {
    const SinkAction action = FaultPlan::next_sink_action(buf.size());
    std::span<const std::uint8_t> chunk = buf.first(action.write_prefix);
    std::vector<std::uint8_t> scratch;
    if (action.corrupt_index) {
      scratch.assign(chunk.begin(), chunk.end());
      scratch[*action.corrupt_index] ^= 0x5a;
      chunk = scratch;
    }
    write_span(out, chunk);
    if (action.fail_after) {
      out.setstate(std::ios::failbit);
      return false;
    }
    return static_cast<bool>(out);
  }
  write_span(out, buf);
  return static_cast<bool>(out);
}

}  // namespace gorilla::util
