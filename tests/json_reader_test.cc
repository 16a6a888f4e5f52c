#include "json_reader.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "common/json_writer.h"

namespace hamlet {
namespace {

JsonValue MustParse(const std::string& text) {
  JsonValue out;
  std::string error;
  EXPECT_TRUE(ParseJson(text, &out, &error)) << text << ": " << error;
  return out;
}

std::string ParseError(const std::string& text) {
  JsonValue out;
  std::string error;
  EXPECT_FALSE(ParseJson(text, &out, &error)) << text;
  return error;
}

TEST(JsonReaderTest, ParsesEveryValueKind) {
  const JsonValue doc = MustParse(
      R"({"null":null,"t":true,"f":false,"i":-42,"d":2.5,)"
      R"("s":"hi","a":[1,2,3],"o":{"k":"v"}})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_TRUE(doc.Find("null")->is_null());
  EXPECT_TRUE(doc.Find("t")->AsBool());
  EXPECT_FALSE(doc.Find("f")->AsBool(true));
  EXPECT_EQ(doc.Find("i")->AsInt(), -42);
  EXPECT_DOUBLE_EQ(doc.Find("d")->AsDouble(), 2.5);
  EXPECT_EQ(doc.Find("s")->AsString(), "hi");
  ASSERT_TRUE(doc.Find("a")->is_array());
  EXPECT_EQ(doc.Find("a")->AsArray().size(), 3u);
  EXPECT_EQ(doc.Find("a")->AsArray()[2].AsInt(), 3);
  EXPECT_EQ(doc.Find("o")->Find("k")->AsString(), "v");
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(JsonReaderTest, IntegersStayInt64Exact) {
  // Exported histogram sums are large nanosecond counts that must not
  // pass through a double.
  const JsonValue doc = MustParse(
      R"({"max":9223372036854775807,"min":-9223372036854775808,)"
      R"("big_ns":1311768467463790320})");
  EXPECT_EQ(doc.Find("max")->kind(), JsonValue::Kind::kInt);
  EXPECT_EQ(doc.Find("max")->AsInt(), INT64_MAX);
  EXPECT_EQ(doc.Find("min")->AsInt(), INT64_MIN);
  EXPECT_EQ(doc.Find("big_ns")->AsInt(), 1311768467463790320LL);
  // Past int64 range the value degrades to double instead of failing.
  const JsonValue over = MustParse(R"({"v":98765432109876543210})");
  EXPECT_EQ(over.Find("v")->kind(), JsonValue::Kind::kDouble);
  // Fractions and exponents are doubles.
  const JsonValue frac = MustParse(R"({"v":1.5e3})");
  EXPECT_DOUBLE_EQ(frac.Find("v")->AsDouble(), 1500.0);
}

TEST(JsonReaderTest, DecodesEscapesAndSurrogatePairs) {
  const JsonValue doc = MustParse(
      R"({"esc":"a\"b\\c\/d\n\t\r\b\f","uni":"é中","pair":"😀"})");
  EXPECT_EQ(doc.Find("esc")->AsString(), "a\"b\\c/d\n\t\r\b\f");
  EXPECT_EQ(doc.Find("uni")->AsString(), "\xC3\xA9\xE4\xB8\xAD");
  EXPECT_EQ(doc.Find("pair")->AsString(), "\xF0\x9F\x98\x80");  // U+1F600.
}

TEST(JsonReaderTest, RoundTripsJsonWriterOutput) {
  std::ostringstream os;
  {
    JsonWriter w(os);
    w.BeginObject();
    w.Key("name");
    w.String("fs.search \"quoted\"\n");
    w.Key("count");
    w.UInt(123456789);
    w.Key("nested");
    w.BeginArray();
    w.BeginObject();
    w.Key("x");
    w.Int(-1);
    w.EndObject();
    w.EndArray();
    w.EndObject();
  }
  const JsonValue doc = MustParse(os.str());
  EXPECT_EQ(doc.Find("name")->AsString(), "fs.search \"quoted\"\n");
  EXPECT_EQ(doc.Find("count")->AsUInt(), 123456789u);
  EXPECT_EQ(doc.Find("nested")->AsArray()[0].Find("x")->AsInt(), -1);
}

TEST(JsonReaderTest, RejectsMalformedDocumentsWithPositionedErrors) {
  EXPECT_FALSE(ParseError("").empty());
  EXPECT_FALSE(ParseError("{").empty());
  EXPECT_FALSE(ParseError(R"({"a":1,})").empty());
  EXPECT_FALSE(ParseError(R"(["unterminated)").empty());
  EXPECT_FALSE(ParseError(R"({"a":01})").empty());
  EXPECT_FALSE(ParseError(R"({"bad":"\q"})").empty());
  EXPECT_FALSE(ParseError(R"({"lone":"\ud83d"})").empty());
  EXPECT_FALSE(ParseError("tru").empty());
  // Trailing garbage after a complete document is an error, and the
  // message carries a position so profile-file corruption is locatable.
  const std::string error = ParseError(R"({"a":1} extra)");
  EXPECT_NE(error.find("8"), std::string::npos) << error;
}

TEST(JsonReaderTest, DepthCapStopsRunawayNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  EXPECT_FALSE(ParseError(deep).empty());
  // Comfortably nested documents are fine.
  std::string ok = "1";
  for (int i = 0; i < 32; ++i) ok = "[" + ok + "]";
  MustParse(ok);
}

TEST(JsonReaderTest, WrongKindAccessDegradesToFallbacks) {
  const JsonValue doc = MustParse(R"({"s":"text","n":7})");
  EXPECT_EQ(doc.Find("s")->AsInt(123), 123);
  EXPECT_EQ(doc.Find("s")->AsDouble(1.5), 1.5);
  EXPECT_FALSE(doc.Find("n")->AsBool(false));
  EXPECT_TRUE(doc.Find("n")->AsString().empty());
  EXPECT_TRUE(doc.Find("n")->AsArray().empty());
  EXPECT_EQ(doc.Find("n")->Find("x"), nullptr);
}

}  // namespace
}  // namespace hamlet
