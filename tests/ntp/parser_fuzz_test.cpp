// Deterministic fuzz: the wire-format parsers must never crash, loop, or
// over-read on adversarial input — amplifier responses come from the open
// Internet (often from "mis-managed devices", §4.3.3), so every parser is
// an attack surface. Truncations, bit flips, and random garbage must yield
// nullopt/empty, never UB.
#include <gtest/gtest.h>

#include "ntp/mode6.h"
#include "ntp/mode7.h"
#include "ntp/ntp_packet.h"
#include "ntp/ntpdc.h"
#include "util/rng.h"

namespace gorilla::ntp {
namespace {

std::vector<std::uint8_t> sample_mode7_wire() {
  std::vector<MonitorEntry> entries(9);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    entries[i].address = net::Ipv4Address{static_cast<std::uint32_t>(i + 1)};
    entries[i].count = static_cast<std::uint32_t>(i);
  }
  const auto packets = make_monlist_response(entries,
                                             Implementation::kXntpd);
  return serialize(packets[0]);
}

std::vector<std::uint8_t> sample_mode6_wire() {
  SystemVariables vars;
  vars.version = "ntpd 4.2.6p5@1.2349-o Tue May 10 2011";
  vars.system = "Linux/2.6.32";
  return serialize(make_readvar_response(vars.render(), 1)[0]);
}

TEST(ParserFuzzTest, Mode7SurvivesAllTruncations) {
  const auto wire = sample_mode7_wire();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const auto parsed = parse_mode7_packet(
        std::span<const std::uint8_t>(wire).subspan(0, len));
    // Shorter than the declared items -> must reject; a shorter prefix that
    // happens to still look valid must not over-read.
    if (parsed) {
      EXPECT_LE(kMode7HeaderBytes +
                    static_cast<std::size_t>(parsed->item_count) *
                        parsed->item_size,
                len);
    }
  }
}

TEST(ParserFuzzTest, Mode6SurvivesAllTruncations) {
  const auto wire = sample_mode6_wire();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const auto parsed = parse_control_packet(
        std::span<const std::uint8_t>(wire).subspan(0, len));
    if (parsed) {
      EXPECT_LE(kControlHeaderBytes + parsed->data.size(), len);
    }
  }
}

TEST(ParserFuzzTest, TimePacketSurvivesAllTruncations) {
  const auto wire = serialize(TimePacket{});
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(parse_time_packet(
        std::span<const std::uint8_t>(wire).subspan(0, len)));
  }
}

TEST(ParserFuzzTest, Mode7SurvivesBitFlips) {
  const auto wire = sample_mode7_wire();
  util::Rng rng(0xf122);
  for (int trial = 0; trial < 5000; ++trial) {
    auto mutated = wire;
    const int flips = static_cast<int>(rng.uniform_int(1, 8));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.uniform(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform(8));
    }
    const auto parsed = parse_mode7_packet(mutated);  // must not crash
    if (parsed) {
      // If accepted, declared geometry must fit the buffer.
      EXPECT_LE(kMode7HeaderBytes +
                    static_cast<std::size_t>(parsed->item_count) *
                        parsed->item_size,
                mutated.size());
      // Decoding accepted items must stay in bounds too.
      const auto items = decode_items(*parsed);
      EXPECT_LE(items.size(), parsed->item_count);
    }
  }
}

TEST(ParserFuzzTest, Mode6SurvivesBitFlips) {
  const auto wire = sample_mode6_wire();
  util::Rng rng(0xf123);
  for (int trial = 0; trial < 5000; ++trial) {
    auto mutated = wire;
    mutated[rng.uniform(mutated.size())] ^=
        static_cast<std::uint8_t>(1u << rng.uniform(8));
    const auto parsed = parse_control_packet(mutated);
    if (parsed) {
      EXPECT_LE(kControlHeaderBytes + parsed->data.size(), mutated.size());
    }
  }
}

TEST(ParserFuzzTest, RandomGarbageNeverParsesAsTable) {
  util::Rng rng(0xf124);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> garbage(rng.uniform(600));
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(rng.next());
    }
    // None of these calls may crash; results are unconstrained except for
    // basic geometry when something parses.
    (void)parse_mode7_packet(garbage);
    (void)parse_control_packet(garbage);
    (void)parse_time_packet(garbage);
  }
}

TEST(ParserFuzzTest, ReassembleMonlistSurvivesShuffledDuplicates) {
  std::vector<MonitorEntry> entries(30);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    entries[i].address = net::Ipv4Address{static_cast<std::uint32_t>(i + 1)};
  }
  auto packets = make_monlist_response(entries, Implementation::kXntpd);
  util::Rng rng(0xf125);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Mode7Packet> pile;
    const int copies = static_cast<int>(rng.uniform_int(1, 4));
    for (int c = 0; c < copies; ++c) {
      for (const auto& p : packets) pile.push_back(p);
    }
    // Drop a random suffix and shuffle lightly.
    pile.resize(1 + rng.uniform(pile.size()));
    for (std::size_t i = pile.size(); i > 1; --i) {
      std::swap(pile[i - 1], pile[rng.uniform(i)]);
    }
    const auto table = reassemble_monlist(pile);  // must not crash
    if (table) {
      EXPECT_LE(table->size(), kMonlistMaxEntries);
    }
  }
}

TEST(ParserFuzzTest, Mode7RejectsOversizeDeclaredData) {
  // A datagram that actually carries more than the protocol's 500-byte data
  // area and declares it honestly must still be rejected — mode 7 data areas
  // never exceed kMode7MaxDataBytes, so a bigger claim is an attack or
  // corruption, not a big table.
  Mode7Packet lying;
  lying.response = true;
  lying.item_count = 8;   // 8 * 72 = 576 > 500
  lying.item_size = 72;
  lying.data.assign(8 * 72, 0xab);
  const auto wire = serialize(lying);
  ASSERT_GT(wire.size(), kMode7HeaderBytes + kMode7MaxDataBytes);
  EXPECT_FALSE(parse_mode7_packet(wire));
}

TEST(ParserFuzzTest, DecodersClampLyingItemCounts) {
  // Packets can arrive truncated after parse (the impairment layer cuts
  // payloads mid-item); decoders must bound themselves by the bytes that are
  // actually present, never the header's claim.
  Mode7Packet p;
  p.response = true;
  p.item_count = 100;
  p.item_size = static_cast<std::uint16_t>(kMonitorItemBytes);
  p.data.assign(2 * kMonitorItemBytes + 17, 0x5c);  // 2 whole items + a stub
  EXPECT_EQ(decode_items(p).size(), 2u);

  p.item_size = static_cast<std::uint16_t>(kLegacyMonitorItemBytes);
  p.data.assign(3 * kLegacyMonitorItemBytes + 5, 0x5c);
  EXPECT_EQ(decode_legacy_items(p).size(), 3u);

  p.item_size = static_cast<std::uint16_t>(kPeerListItemBytes);
  p.data.assign(kPeerListItemBytes - 1, 0x5c);  // not even one whole item
  EXPECT_TRUE(decode_peer_items(p).empty());

  p.item_count = 0;
  p.data.assign(5 * kMonitorItemBytes, 0x5c);
  p.item_size = static_cast<std::uint16_t>(kMonitorItemBytes);
  EXPECT_TRUE(decode_items(p).empty());  // count bounds too, not just bytes
}

TEST(ParserFuzzTest, TruncatedResponseChainsReassembleSafely) {
  // Impairment-style damage: cut each datagram of a response chain at every
  // possible point, reparse what survives, and reassemble. Must never crash,
  // and whatever comes back must respect the table cap.
  std::vector<MonitorEntry> entries(20);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    entries[i].address = net::Ipv4Address{static_cast<std::uint32_t>(i + 1)};
  }
  const auto packets = make_monlist_response(entries, Implementation::kXntpd);
  util::Rng rng(0xf127);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<Mode7Packet> surviving;
    for (const auto& p : packets) {
      auto wire = serialize(p);
      wire.resize(rng.uniform(wire.size() + 1));  // truncate in flight
      if (auto parsed = parse_mode7_packet(wire)) {
        surviving.push_back(std::move(*parsed));
      }
    }
    const auto table = reassemble_monlist(surviving);
    if (table) {
      EXPECT_LE(table->size(), entries.size());
    }
  }
}

TEST(ParserFuzzTest, GarbledResponseChainsReassembleSafely) {
  std::vector<MonitorEntry> entries(20);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    entries[i].address = net::Ipv4Address{static_cast<std::uint32_t>(i + 1)};
  }
  const auto packets = make_monlist_response(entries, Implementation::kXntpd);
  util::Rng rng(0xf128);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<Mode7Packet> surviving;
    for (const auto& p : packets) {
      auto wire = serialize(p);
      const int flips = static_cast<int>(rng.uniform_int(1, 6));
      for (int f = 0; f < flips; ++f) {
        wire[rng.uniform(wire.size())] ^=
            static_cast<std::uint8_t>(1u << rng.uniform(8));
      }
      if (auto parsed = parse_mode7_packet(wire)) {
        surviving.push_back(std::move(*parsed));
      }
    }
    const auto table = reassemble_monlist(surviving);  // must not crash
    if (table) {
      EXPECT_LE(table->size(), kMonlistMaxEntries);
    }
  }
}

TEST(ParserFuzzTest, ReassembleClampsOversizeTables) {
  // A malicious (or corrupt) chain claiming more than the 600-entry protocol
  // cap is clamped, not trusted.
  std::vector<MonitorEntry> entries(650);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    entries[i].address = net::Ipv4Address{static_cast<std::uint32_t>(i + 1)};
  }
  const auto packets = make_monlist_response(entries, Implementation::kXntpd);
  const auto table = reassemble_monlist(packets);
  ASSERT_TRUE(table);
  EXPECT_EQ(table->size(), kMonlistMaxEntries);
}

TEST(ParserFuzzTest, NtpdcTextSurvivesMutations) {
  std::vector<MonitorEntry> entries(5);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    entries[i].address = net::Ipv4Address{static_cast<std::uint32_t>(i + 1)};
    entries[i].local_address = net::Ipv4Address(10, 0, 0, 1);
  }
  const auto text = render_monlist(entries);
  util::Rng rng(0xf126);
  for (int trial = 0; trial < 1000; ++trial) {
    std::string mutated = text;
    const auto pos = rng.uniform(mutated.size());
    mutated[pos] = static_cast<char>(rng.uniform_int(32, 126));
    (void)parse_monlist_text(mutated);  // must not crash or hang
  }
}

}  // namespace
}  // namespace gorilla::ntp
