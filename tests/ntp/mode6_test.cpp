#include "ntp/mode6.h"

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace gorilla::ntp {
namespace {

SystemVariables sample_vars() {
  SystemVariables v;
  v.version = "ntpd 4.2.6p5@1.2349-o Tue May 10 2011";
  v.system = "Linux/2.6.32";
  v.processor = "x86_64";
  v.stratum = 3;
  v.leap = 0;
  v.rootdelay_ms = 1.5;
  v.rootdisp_ms = 10.25;
  return v;
}

TEST(ControlPacketTest, VersionRequestShape) {
  const auto req = make_version_request(7);
  EXPECT_FALSE(req.response);
  EXPECT_EQ(req.opcode, ControlOp::kReadVariables);
  EXPECT_EQ(req.sequence, 7);
  EXPECT_TRUE(req.data.empty());
  EXPECT_EQ(serialize(req).size(), kControlHeaderBytes);
}

TEST(ControlPacketTest, RoundTrip) {
  ControlPacket p;
  p.response = true;
  p.error = false;
  p.more = true;
  p.opcode = ControlOp::kReadVariables;
  p.sequence = 0x1234;
  p.status = 0x0615;
  p.association_id = 42;
  p.offset = 468;
  p.data = {'a', 'b', 'c'};
  const auto parsed = parse_control_packet(serialize(p));
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(parsed->response);
  EXPECT_TRUE(parsed->more);
  EXPECT_FALSE(parsed->error);
  EXPECT_EQ(parsed->opcode, ControlOp::kReadVariables);
  EXPECT_EQ(parsed->sequence, 0x1234);
  EXPECT_EQ(parsed->status, 0x0615);
  EXPECT_EQ(parsed->association_id, 42);
  EXPECT_EQ(parsed->offset, 468);
  EXPECT_EQ(parsed->data, (std::vector<std::uint8_t>{'a', 'b', 'c'}));
}

TEST(ControlPacketTest, SerializePadsToFourBytes) {
  ControlPacket p;
  p.data = {'x'};
  EXPECT_EQ(serialize(p).size() % 4, 0u);
  EXPECT_EQ(p.total_bytes(), kControlHeaderBytes + 4);
}

TEST(ControlPacketTest, RejectsNonControlMode) {
  auto wire = serialize(make_version_request());
  wire[0] = make_li_vn_mode(0, 2, Mode::kPrivate);
  EXPECT_FALSE(parse_control_packet(wire));
}

TEST(ControlPacketTest, RejectsTruncatedHeader) {
  const std::vector<std::uint8_t> wire(kControlHeaderBytes - 1, 0x06);
  EXPECT_FALSE(parse_control_packet(wire));
}

TEST(ControlPacketTest, RejectsCountBeyondBuffer) {
  ControlPacket p;
  p.data = {'a', 'b', 'c', 'd'};
  auto wire = serialize(p);
  wire[11] = 200;  // declared count >> actual
  EXPECT_FALSE(parse_control_packet(wire));
}

TEST(SystemVariablesTest, RenderContainsAllFields) {
  const auto text = sample_vars().render();
  EXPECT_NE(text.find("version=\"ntpd 4.2.6p5"), std::string::npos);
  EXPECT_NE(text.find("system=\"Linux/2.6.32\""), std::string::npos);
  EXPECT_NE(text.find("stratum=3"), std::string::npos);
  EXPECT_NE(text.find("leap=0"), std::string::npos);
}

TEST(VariableListTest, ParsesQuotedAndBare) {
  const auto vars = parse_variable_list(
      "version=\"ntpd 4.2.6\", system=\"UNIX\", leap=0, stratum=16");
  EXPECT_EQ(vars.at("version"), "ntpd 4.2.6");
  EXPECT_EQ(vars.at("system"), "UNIX");
  EXPECT_EQ(vars.at("leap"), "0");
  EXPECT_EQ(vars.at("stratum"), "16");
}

TEST(VariableListTest, RenderParseRoundTrip) {
  const auto vars = parse_variable_list(sample_vars().render());
  EXPECT_EQ(vars.at("system"), "Linux/2.6.32");
  EXPECT_EQ(vars.at("stratum"), "3");
  EXPECT_EQ(vars.at("version"), "ntpd 4.2.6p5@1.2349-o Tue May 10 2011");
}

TEST(VariableListTest, ToleratesEmptyAndGarbage) {
  EXPECT_TRUE(parse_variable_list("").empty());
  EXPECT_TRUE(parse_variable_list("no equals here").empty());
}

/// Every (key, value) pair for_each_variable yields, in wire order.
std::vector<std::pair<std::string, std::string>> walk(std::string_view text) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for_each_variable(text, [&pairs](std::string_view key, std::string_view value) {
    pairs.emplace_back(key, value);
    return true;
  });
  return pairs;
}

/// The tokenizer walk and the map parser agree on `text`: the map holds
/// exactly the walk's keys, each bound to its first occurrence's value
/// (what the prober's three-key reader takes).
void expect_parsers_agree(std::string_view text) {
  const auto pairs = walk(text);
  const auto vars = parse_variable_list(text);
  std::map<std::string, std::string> first;
  for (const auto& [key, value] : pairs) {
    EXPECT_FALSE(key.empty());
    first.emplace(key, value);
  }
  EXPECT_EQ(vars, first) << "input: " << std::string(text);
}

TEST(VariableListTest, DuplicateKeysFirstOccurrenceWins) {
  const std::string text =
      "system=\"A\", stratum=2, system=\"B\", stratum=9, version=\"v1\"";
  expect_parsers_agree(text);
  const auto vars = parse_variable_list(text);
  EXPECT_EQ(vars.at("system"), "A");
  EXPECT_EQ(vars.at("stratum"), "2");
  EXPECT_EQ(walk(text).size(), 5u);  // the walk itself keeps repeats
}

TEST(VariableListTest, UnterminatedQuoteEndsTheWalk) {
  const std::string text = "stratum=3, version=\"ntpd 4.2, system=\"x\"";
  expect_parsers_agree(text);
  // The quote opened at version runs to system's opening quote; the rest
  // (x") has no '=' and yields nothing.
  const auto vars = parse_variable_list(text);
  EXPECT_EQ(vars.at("stratum"), "3");
  EXPECT_EQ(vars.at("version"), "ntpd 4.2, system=");
  EXPECT_EQ(vars.size(), 2u);
  const std::string open = "leap=0, system=\"Linux";
  expect_parsers_agree(open);
  EXPECT_EQ(parse_variable_list(open).size(), 1u);  // system dropped
}

TEST(VariableListTest, EmptyKeysAreSkipped) {
  const std::string text = "=orphan, , =, system=\"x\", =\"q\", leap=1";
  expect_parsers_agree(text);
  const auto vars = parse_variable_list(text);
  EXPECT_EQ(vars.size(), 2u);
  EXPECT_EQ(vars.at("system"), "x");
  EXPECT_EQ(vars.at("leap"), "1");
}

TEST(VariableListTest, TrailingCommasAndSeparators) {
  const std::string text = "leap=0, stratum=2,,, \r\n";
  expect_parsers_agree(text);
  const auto vars = parse_variable_list(text);
  EXPECT_EQ(vars.size(), 2u);
  EXPECT_EQ(vars.at("stratum"), "2");
  expect_parsers_agree("stratum=,");  // an empty bare value is a value
  EXPECT_EQ(parse_variable_list("stratum=,").at("stratum"), "");
}

TEST(VariableListTest, GarbageBytesParseIdentically) {
  const std::string text("\xff\x00system=\"Li\x00nux\", \x7f=1, \x01\x02", 26);
  expect_parsers_agree(text);
  const auto vars = parse_variable_list(text);
  EXPECT_EQ(vars.count("system"), 0u);  // the key carries the junk prefix
  EXPECT_EQ(vars.at(std::string("\xff\x00system", 8)), std::string("Li\x00nux", 6));
  EXPECT_EQ(vars.at("\x7f"), "1");
  // Deterministic pseudo-random byte soup, biased toward the separators.
  std::uint32_t x = 12345;
  for (int trial = 0; trial < 200; ++trial) {
    std::string soup;
    for (int i = 0; i < 64; ++i) {
      x = x * 1103515245u + 12345u;
      constexpr char kAlphabet[] = "ab=\", \r\n\x00\xff";
      soup.push_back(kAlphabet[(x >> 16) % (sizeof kAlphabet)]);
    }
    expect_parsers_agree(soup);
  }
}

TEST(VariableListTest, VisitorCanStopTheWalkEarly) {
  int calls = 0;
  for_each_variable("a=1, b=2, c=3", [&calls](std::string_view, std::string_view) {
    ++calls;
    return calls < 2;
  });
  EXPECT_EQ(calls, 2);
}

TEST(ReadvarResponseTest, SingleFragmentForShortText) {
  const auto frags = make_readvar_response(sample_vars().render(), 9);
  ASSERT_EQ(frags.size(), 1u);
  EXPECT_TRUE(frags[0].response);
  EXPECT_FALSE(frags[0].more);
  EXPECT_EQ(frags[0].sequence, 9);
  EXPECT_EQ(frags[0].offset, 0);
}

TEST(ReadvarResponseTest, FragmentsLongText) {
  SystemVariables v = sample_vars();
  v.version.assign(600, 'x');  // force > 468 bytes of rendered text
  const auto frags = make_readvar_response(v.render(), 1);
  ASSERT_GE(frags.size(), 2u);
  EXPECT_TRUE(frags.front().more);
  EXPECT_FALSE(frags.back().more);
  for (const auto& f : frags) {
    EXPECT_LE(f.data.size(), kControlMaxDataBytes);
  }
}

TEST(ReadvarResponseTest, ReassemblyRoundTrip) {
  SystemVariables v = sample_vars();
  v.version.assign(1200, 'y');
  const auto frags = make_readvar_response(v.render(), 1);
  const auto text = reassemble_readvar(frags);
  ASSERT_TRUE(text);
  EXPECT_EQ(*text, v.render());
}

TEST(ReadvarResponseTest, ReassemblyHandlesOutOfOrder) {
  SystemVariables v = sample_vars();
  v.version.assign(1200, 'z');
  auto frags = make_readvar_response(v.render(), 1);
  ASSERT_GE(frags.size(), 3u);
  std::swap(frags[0], frags[2]);
  const auto text = reassemble_readvar(frags);
  ASSERT_TRUE(text);
  EXPECT_EQ(*text, v.render());
}

TEST(ReadvarResponseTest, ReassemblyDetectsGaps) {
  SystemVariables v = sample_vars();
  v.version.assign(1200, 'w');
  auto frags = make_readvar_response(v.render(), 1);
  ASSERT_GE(frags.size(), 3u);
  frags.erase(frags.begin() + 1);
  EXPECT_FALSE(reassemble_readvar(frags));
}

TEST(ReadvarResponseTest, ReassemblyDetectsMissingTail) {
  SystemVariables v = sample_vars();
  v.version.assign(1200, 'q');
  auto frags = make_readvar_response(v.render(), 1);
  frags.pop_back();
  EXPECT_FALSE(reassemble_readvar(frags));
}

TEST(ReadvarResponseTest, WireRoundTripThroughSerialization) {
  const auto frags = make_readvar_response(sample_vars().render(), 3);
  std::vector<ControlPacket> reparsed;
  for (const auto& f : frags) {
    const auto p = parse_control_packet(serialize(f));
    ASSERT_TRUE(p);
    reparsed.push_back(*p);
  }
  const auto text = reassemble_readvar(reparsed);
  ASSERT_TRUE(text);
  const auto vars = parse_variable_list(*text);
  EXPECT_EQ(vars.at("system"), "Linux/2.6.32");
}

TEST(ReadvarResponseTest, FragmentsCutFromTextMatchPacketPath) {
  // The responder writes each fragment straight from the stored text; it
  // must be byte-identical to serializing the ControlPacket fragment, at
  // every fragment-boundary length (including the empty list).
  for (const std::size_t len :
       {0u, 1u, 3u, 4u, 467u, 468u, 469u, 935u, 936u, 937u, 1500u}) {
    std::string text(len, 'a');
    for (std::size_t i = 0; i < len; ++i) {
      text[i] = static_cast<char>('a' + i % 26);
    }
    const auto frags = make_readvar_response(text, 77);
    ASSERT_EQ(frags.size(), readvar_fragment_count(len)) << len;
    for (std::size_t i = 0; i < frags.size(); ++i) {
      EXPECT_EQ(serialize_readvar_fragment(text, i, 77), serialize(frags[i]))
          << "length " << len << " fragment " << i;
    }
  }
}

}  // namespace
}  // namespace gorilla::ntp
