// Deterministic fuzz: the wire-format parsers must never crash, loop, or
// over-read on adversarial input — amplifier responses come from the open
// Internet (often from "mis-managed devices", §4.3.3), so every parser is
// an attack surface. Truncations, bit flips, and random garbage must yield
// nullopt/empty, never UB.
//
// The in-place view parsers (parse_mode7_view, parse_control_view) are what
// the prober reads replies with; the owning parsers copy their data area
// out. The differential cases below hold the two to the same accept/reject
// decision and the same fields on one corpus, and hold the view
// reassemblers to the pre-view algorithms, kept here as references.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "ntp/mode6.h"
#include "ntp/mode7.h"
#include "ntp/ntp_packet.h"
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

// --- view parsers vs owning parsers ----------------------------------------

/// Truncations, bit flips, random garbage and lying length headers around
/// `wire`: the inputs both parser families are run on.
std::vector<std::vector<std::uint8_t>> mutation_corpus(
    const std::vector<std::uint8_t>& wire, std::size_t count_offset,
    std::uint64_t seed) {
  std::vector<std::vector<std::uint8_t>> corpus;
  for (std::size_t len = 0; len <= wire.size(); ++len) {
    corpus.emplace_back(wire.begin(),
                        wire.begin() + static_cast<std::ptrdiff_t>(len));
  }
  util::Rng rng(seed);
  for (int trial = 0; trial < 3000; ++trial) {
    auto mutated = wire;
    const int flips = static_cast<int>(rng.uniform_int(1, 8));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.uniform(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform(8));
    }
    corpus.push_back(std::move(mutated));
  }
  for (int trial = 0; trial < 1000; ++trial) {
    std::vector<std::uint8_t> garbage(rng.uniform(600));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.next());
    corpus.push_back(std::move(garbage));
  }
  // Lying length headers: every value of the 16-bit length field (mode 7:
  // err|item_count; mode 6: count) in steps, over the true body, a shorter
  // body and a longer one.
  for (std::uint32_t v = 0; v <= 0xffff; v += 97) {
    for (const std::size_t body : {wire.size(), wire.size() / 2,
                                   wire.size() + 300}) {
      auto lying = wire;
      lying.resize(body, 0x5a);
      if (lying.size() < count_offset + 2) continue;
      lying[count_offset] = static_cast<std::uint8_t>(v >> 8);
      lying[count_offset + 1] = static_cast<std::uint8_t>(v);
      corpus.push_back(std::move(lying));
    }
  }
  return corpus;
}

bool same_header(const Mode7Header& a, const Mode7Header& b) {
  return a.response == b.response && a.more == b.more &&
         a.sequence == b.sequence && a.auth == b.auth &&
         a.implementation == b.implementation && a.request == b.request &&
         a.error == b.error && a.item_count == b.item_count &&
         a.item_size == b.item_size;
}

bool same_header(const ControlHeader& a, const ControlHeader& b) {
  return a.version == b.version && a.response == b.response &&
         a.error == b.error && a.more == b.more && a.opcode == b.opcode &&
         a.sequence == b.sequence && a.status == b.status &&
         a.association_id == b.association_id && a.offset == b.offset;
}

bool inside(std::span<const std::uint8_t> part,
            std::span<const std::uint8_t> whole) {
  return part.empty() ||
         (part.data() >= whole.data() &&
          part.data() + part.size() <= whole.data() + whole.size());
}

TEST(ParserFuzzTest, Mode7ViewAgreesWithOwningParser) {
  const auto corpus = mutation_corpus(sample_mode7_wire(), 4, 0xf129);
  std::size_t accepted = 0;
  for (const auto& in : corpus) {
    const auto view = parse_mode7_view(in);
    const auto packet = parse_mode7_packet(in);
    ASSERT_EQ(view.has_value(), packet.has_value());
    if (!view) continue;
    ++accepted;
    EXPECT_TRUE(same_header(*view, *packet));
    EXPECT_TRUE(std::equal(view->data.begin(), view->data.end(),
                           packet->data.begin(), packet->data.end()));
    EXPECT_TRUE(inside(view->data, in));  // borrowed, not copied
  }
  EXPECT_GT(accepted, 100u);  // the corpus exercises the accept path too
}

TEST(ParserFuzzTest, ControlViewAgreesWithOwningParser) {
  const auto corpus = mutation_corpus(sample_mode6_wire(), 10, 0xf12a);
  std::size_t accepted = 0;
  for (const auto& in : corpus) {
    const auto view = parse_control_view(in);
    const auto packet = parse_control_packet(in);
    ASSERT_EQ(view.has_value(), packet.has_value());
    if (!view) continue;
    ++accepted;
    EXPECT_TRUE(same_header(*view, *packet));
    EXPECT_TRUE(std::equal(view->data.begin(), view->data.end(),
                           packet->data.begin(), packet->data.end()));
    EXPECT_TRUE(inside(view->data, in));
  }
  EXPECT_GT(accepted, 100u);
}

// --- reassembly into caller storage vs the reference algorithms -----------

/// The monlist reassembler as it was before views: filter the table
/// replies, cut runs at each sequence reset, decode the final run whole,
/// then clamp to the cap.
std::optional<std::vector<MonitorEntry>> reference_reassemble_monlist(
    const std::vector<Mode7Packet>& packets) {
  std::vector<const Mode7Packet*> responses;
  for (const auto& p : packets) {
    if (p.response && p.request == RequestCode::kMonGetList1 &&
        p.error == Mode7Error::kOk) {
      responses.push_back(&p);
    }
  }
  if (responses.empty()) return std::nullopt;
  std::size_t run_start = 0;
  for (std::size_t i = 1; i < responses.size(); ++i) {
    if (responses[i]->sequence <= responses[i - 1]->sequence) run_start = i;
  }
  std::vector<MonitorEntry> table;
  for (std::size_t i = run_start; i < responses.size(); ++i) {
    const auto items = decode_items(*responses[i]);
    table.insert(table.end(), items.begin(), items.end());
  }
  if (table.size() > kMonlistMaxEntries) table.resize(kMonlistMaxEntries);
  return table;
}

/// The READVAR reassembler as it was before views: stable-sort pointers by
/// offset, keep the last copy of each offset, require contiguity.
std::optional<std::string> reference_reassemble_readvar(
    const std::vector<ControlPacket>& fragments) {
  std::vector<const ControlPacket*> by_offset;
  for (const auto& f : fragments) by_offset.push_back(&f);
  std::stable_sort(by_offset.begin(), by_offset.end(),
                   [](const ControlPacket* a, const ControlPacket* b) {
                     return a->offset < b->offset;
                   });
  std::string out;
  const ControlPacket* last = nullptr;
  for (std::size_t i = 0; i < by_offset.size(); ++i) {
    const ControlPacket* f = by_offset[i];
    if (i + 1 < by_offset.size() && by_offset[i + 1]->offset == f->offset) {
      continue;
    }
    if (f->offset != out.size()) return std::nullopt;
    out.append(f->data.begin(), f->data.end());
    last = f;
  }
  if (last != nullptr && last->more) return std::nullopt;
  return out;
}

template <typename T>
void shuffle(std::vector<T>& v, util::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.uniform(i)]);
  }
}

/// A loop-faulted, lossy, reordered pile drawn from `runs`: whole runs
/// repeated, some datagrams duplicated or dropped, a light shuffle.
template <typename Packet>
std::vector<Packet> fault_pile(const std::vector<std::vector<Packet>>& runs,
                               util::Rng& rng) {
  std::vector<Packet> pile;
  const int copies = static_cast<int>(rng.uniform_int(1, 3));
  for (int c = 0; c < copies; ++c) {
    const auto& run = runs[rng.uniform(runs.size())];
    for (const auto& p : run) {
      if (rng.uniform(10) == 0) continue;                  // gap
      pile.push_back(p);
      if (rng.uniform(10) == 0) pile.push_back(p);         // duplicate
    }
  }
  if (rng.uniform(2) == 0) shuffle(pile, rng);
  return pile;
}

TEST(ParserFuzzTest, ReassembleMonlistIntoMatchesReference) {
  std::vector<MonitorEntry> a(30), b(601);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i].address = net::Ipv4Address{static_cast<std::uint32_t>(i + 1)};
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i].address = net::Ipv4Address{static_cast<std::uint32_t>(i + 1000)};
    b[i].count = static_cast<std::uint32_t>(i);
  }
  // Two tables, plus replies that are not table runs: an implementation
  // refusal, a legacy-layout dump and a request.
  std::vector<std::vector<Mode7Packet>> runs = {
      make_monlist_response(a, Implementation::kXntpd),
      make_monlist_response(b, Implementation::kXntpd),
      {make_mode7_error(Mode7Error::kImplMismatch, Implementation::kXntpd,
                        RequestCode::kMonGetList1)},
      make_legacy_monlist_response(a, Implementation::kXntpd),
      {make_monlist_request()}};
  // A hand-built reply whose header claims more items than it carries.
  Mode7Packet lying = runs[0][0];
  lying.item_count = 9;
  runs.push_back({lying});

  util::Rng rng(0xf12b);
  std::vector<Mode7View> views;
  std::vector<MonitorEntry> table;
  for (int trial = 0; trial < 2000; ++trial) {
    const auto pile = fault_pile(runs, rng);
    const auto expected = reference_reassemble_monlist(pile);
    const auto owning = reassemble_monlist(pile);
    views.clear();
    for (const auto& p : pile) views.push_back(p.view());
    const bool ok = reassemble_monlist_into(views, table);
    ASSERT_EQ(ok, expected.has_value());
    ASSERT_EQ(owning.has_value(), expected.has_value());
    if (!ok) {
      EXPECT_TRUE(table.empty());
      continue;
    }
    ASSERT_EQ(table.size(), expected->size());
    ASSERT_EQ(owning->size(), expected->size());
    for (std::size_t i = 0; i < table.size(); ++i) {
      EXPECT_EQ(table[i].address, (*expected)[i].address);
      EXPECT_EQ(table[i].count, (*expected)[i].count);
      EXPECT_EQ((*owning)[i].address, (*expected)[i].address);
    }
  }
}

TEST(ParserFuzzTest, ReassembleReadvarIntoMatchesReference) {
  std::string long_text;
  for (int i = 0; long_text.size() < 1500; ++i) {
    long_text += "var" + std::to_string(i) + "=\"value " +
                 std::to_string(i * 7) + "\", ";
  }
  const std::string short_text = long_text.substr(0, 300);
  std::vector<std::vector<ControlPacket>> runs = {
      make_readvar_response(long_text, 1),
      make_readvar_response(short_text, 1),
      make_readvar_response("", 1)};
  // Overlapping and misaligned fragments: a shifted offset and a fragment
  // that announces more than it delivers.
  ControlPacket shifted = runs[0][1];
  shifted.offset = static_cast<std::uint16_t>(shifted.offset - 5);
  ControlPacket more = runs[1][0];
  more.more = true;
  runs.push_back({shifted});
  runs.push_back({more});

  util::Rng rng(0xf12c);
  std::vector<ControlView> views;
  std::string text;
  for (int trial = 0; trial < 3000; ++trial) {
    const auto pile = fault_pile(runs, rng);
    const auto expected = reference_reassemble_readvar(pile);
    const auto owning = reassemble_readvar(pile);
    views.clear();
    for (const auto& p : pile) views.push_back(p.view());
    const bool ok = reassemble_readvar_into(views, text);
    ASSERT_EQ(ok, expected.has_value());
    ASSERT_EQ(owning.has_value(), expected.has_value());
    if (ok) {
      EXPECT_EQ(text, *expected);
      EXPECT_EQ(*owning, *expected);
    }
  }
}

}  // namespace
}  // namespace gorilla::ntp
