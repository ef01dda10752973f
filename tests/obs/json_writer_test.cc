#include "obs/json_writer.h"

#include <cmath>
#include <limits>

#include "gtest/gtest.h"
#include "json_parse.h"

namespace jxp {
namespace {

using obs::JsonWriter;
using obs_test::JsonValue;
using obs_test::ParseJson;

TEST(JsonWriterTest, EmptyObject) {
  JsonWriter writer;
  EXPECT_EQ(writer.TakeLine(), "{}");
}

TEST(JsonWriterTest, KeysKeepInsertionOrder) {
  JsonWriter writer;
  writer.Field("zebra", 1).Field("apple", 2).Field("mango", 3);
  EXPECT_EQ(writer.TakeLine(), "{\"zebra\":1,\"apple\":2,\"mango\":3}");
}

TEST(JsonWriterTest, ScalarTypes) {
  JsonWriter writer;
  writer.Field("s", "text")
      .Field("d", 2.5)
      .Field("i", int64_t{-7})
      .Field("u", uint64_t{18446744073709551615ull})
      .Field("b", true)
      .FieldRawJson("raw", "null");
  EXPECT_EQ(writer.TakeLine(),
            "{\"s\":\"text\",\"d\":2.5,\"i\":-7,\"u\":18446744073709551615,"
            "\"b\":true,\"raw\":null}");
}

TEST(JsonWriterTest, EscapesSpecialCharacters) {
  JsonWriter writer;
  writer.Field("k", "a\"b\\c\nd\te\x01" "f");
  const std::string line = writer.TakeLine();
  EXPECT_EQ(line, "{\"k\":\"a\\\"b\\\\c\\nd\\te\\u0001f\"}");
  JsonValue parsed;
  ASSERT_TRUE(ParseJson(line, parsed));
  EXPECT_EQ(parsed.Str("k"), "a\"b\\c\nd\te\x01" "f");
}

TEST(JsonWriterTest, DoublesRoundTrip) {
  for (const double v : {0.1, 1.0 / 3.0, 1e-300, 6.02214076e23, -0.0, 45133.8}) {
    JsonWriter writer;
    writer.Field("v", v);
    JsonValue parsed;
    ASSERT_TRUE(ParseJson(writer.TakeLine(), parsed));
    EXPECT_EQ(parsed.Num("v"), v);
  }
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter writer;
  writer.Field("nan", std::nan(""))
      .Field("inf", std::numeric_limits<double>::infinity());
  EXPECT_EQ(writer.TakeLine(), "{\"nan\":null,\"inf\":null}");
}

TEST(JsonWriterTest, NestedContainers) {
  JsonWriter writer;
  writer.Field("name", "h");
  writer.BeginObject("meta").Field("kind", "histogram");
  writer.BeginArray("ps").Element(50.0).Element(99.0).End();
  writer.End();
  writer.BeginObject("empty").End();
  const std::string line = writer.TakeLine();
  EXPECT_EQ(line,
            "{\"name\":\"h\",\"meta\":{\"kind\":\"histogram\",\"ps\":[50,99]},"
            "\"empty\":{}}");
  JsonValue parsed;
  ASSERT_TRUE(ParseJson(line, parsed));
  const JsonValue* meta = parsed.Find("meta");
  ASSERT_NE(meta, nullptr);
  const JsonValue* ps = meta->Find("ps");
  ASSERT_NE(ps, nullptr);
  ASSERT_EQ(ps->array.size(), 2u);
  EXPECT_EQ(ps->array[1].number, 99);
}

TEST(JsonWriterTest, TakeLineClosesOpenScopesAndResets) {
  JsonWriter writer;
  writer.BeginObject("a").BeginArray("b").Element(1.0);
  EXPECT_EQ(writer.TakeLine(), "{\"a\":{\"b\":[1]}}");
  writer.Field("fresh", 1);
  EXPECT_EQ(writer.TakeLine(), "{\"fresh\":1}");
}

TEST(JsonWriterTest, ScalarArrayElements) {
  JsonWriter writer;
  writer.BeginArray("xs").Element(1.5).Element("two").End();
  EXPECT_EQ(writer.TakeLine(), "{\"xs\":[1.5,\"two\"]}");
}

TEST(JsonWriterTest, EscapesEveryControlCharacter) {
  // All of 0x00..0x1F must come out escaped (short forms for the common
  // ones, \u00XX otherwise) and parse back to the original byte. Trace
  // lines carry query terms and stage names; a stray control byte must
  // never produce an unparseable JSONL record.
  for (int c = 0; c < 0x20; ++c) {
    JsonWriter writer;
    const std::string value = std::string("a") + static_cast<char>(c) + "b";
    writer.Field("k", value);
    const std::string line = writer.TakeLine();
    for (const char byte : line) {
      EXPECT_GE(static_cast<unsigned char>(byte), 0x20u)
          << "raw control byte " << c << " leaked into: " << line;
    }
    JsonValue parsed;
    ASSERT_TRUE(ParseJson(line, parsed)) << "c=" << c << " line=" << line;
    EXPECT_EQ(parsed.Str("k"), value) << "c=" << c;
  }
  // DEL (0x7F) and high bytes are legal unescaped JSON; spot-check they
  // pass through untouched.
  JsonWriter writer;
  writer.Field("k", "\x7f");
  EXPECT_EQ(writer.TakeLine(), "{\"k\":\"\x7f\"}");
}

TEST(JsonWriterTest, NonFiniteDoublesInNestedArraysBecomeNull) {
  // The top-level Field() case is covered above; Element() inside nested
  // scopes shares the number formatter and must apply the same null
  // mapping (a bare `nan` token would corrupt the whole line).
  JsonWriter writer;
  writer.BeginArray("xs")
      .Element(std::nan(""))
      .Element(1.0)
      .Element(-std::numeric_limits<double>::infinity())
      .End();
  writer.BeginObject("nested");
  writer.BeginArray("ys").Element(std::numeric_limits<double>::infinity()).End();
  writer.Field("f", std::nan(""));
  writer.End();
  const std::string line = writer.TakeLine();
  EXPECT_EQ(line,
            "{\"xs\":[null,1,null],\"nested\":{\"ys\":[null],\"f\":null}}");
  JsonValue parsed;
  ASSERT_TRUE(ParseJson(line, parsed));
  const JsonValue* xs = parsed.Find("xs");
  ASSERT_NE(xs, nullptr);
  ASSERT_EQ(xs->array.size(), 3u);
}

}  // namespace
}  // namespace jxp
