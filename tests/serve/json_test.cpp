// The serve protocol's JSON layer: strict parsing of job lines and
// lossless emission of result lines.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "serve/json.h"

namespace sct {
namespace {

using serve::JsonError;
using serve::JsonValue;
using serve::parseJson;

TEST(ServeJson, ParsesAJobLine) {
  const JsonValue v = parseJson(
      R"({"id":"s1","scenario":"auth","seed":7,"fidelity":"tl1"})");
  ASSERT_TRUE(v.isObject());
  EXPECT_EQ(v.find("id")->asString(), "s1");
  EXPECT_EQ(v.find("scenario")->asString(), "auth");
  EXPECT_EQ(v.find("seed")->asNumber(), 7.0);
  EXPECT_EQ(v.find("fidelity")->asString(), "tl1");
  EXPECT_EQ(v.find("absent"), nullptr);
}

TEST(ServeJson, ParsesNestedStructures) {
  const JsonValue v = parseJson(
      R"({"a":[1,2.5,-3e2,true,false,null],"b":{"c":"x"}})");
  const auto& arr = v.find("a")->asArray();
  ASSERT_EQ(arr.size(), 6u);
  EXPECT_EQ(arr[0].asNumber(), 1.0);
  EXPECT_EQ(arr[1].asNumber(), 2.5);
  EXPECT_EQ(arr[2].asNumber(), -300.0);
  EXPECT_TRUE(arr[3].asBool());
  EXPECT_FALSE(arr[4].asBool());
  EXPECT_EQ(arr[5].kind(), JsonValue::Kind::Null);
  EXPECT_EQ(v.find("b")->find("c")->asString(), "x");
}

TEST(ServeJson, StringEscapes) {
  const JsonValue v =
      parseJson(R"({"s":"a\"b\\c\/\b\f\n\r\tAé"})");
  EXPECT_EQ(v.find("s")->asString(), "a\"b\\c/\b\f\n\r\tA\xC3\xA9");
}

TEST(ServeJson, RejectsMalformedInput) {
  EXPECT_THROW(parseJson(""), JsonError);
  EXPECT_THROW(parseJson("{"), JsonError);
  EXPECT_THROW(parseJson("{\"a\":}"), JsonError);
  EXPECT_THROW(parseJson("{} trailing"), JsonError);
  EXPECT_THROW(parseJson("{\"a\":1,}"), JsonError);
  EXPECT_THROW(parseJson("\"unterminated"), JsonError);
  EXPECT_THROW(parseJson("{\"a\":01x}"), JsonError);
  EXPECT_THROW(parseJson("nul"), JsonError);
  // Deep nesting is refused cleanly instead of overflowing the stack.
  EXPECT_THROW(parseJson(std::string(100000, '[')), JsonError);
}

TEST(ServeJson, WriterEscapesStrings) {
  std::string out;
  serve::appendJsonString(out, "a\"b\\c\n\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\n\\u0001\"");
  // What the writer emits, the parser reads back unchanged.
  EXPECT_EQ(parseJson(out).asString(), "a\"b\\c\n\x01");
}

TEST(ServeJson, NumbersSurviveRoundTripBitExact) {
  // %.17g is lossless for doubles: the determinism suite compares
  // result lines as strings, so the energy values must not wobble.
  const double values[] = {0.0, 1.0 / 3.0, 11923.75, 1e-300,
                           123456789.123456789,
                           std::numeric_limits<double>::denorm_min()};
  for (const double v : values) {
    std::string out;
    serve::appendJsonNumber(out, v);
    const double back = parseJson(out).asNumber();
    EXPECT_EQ(std::memcmp(&back, &v, sizeof(double)), 0) << out;
  }
  std::string inf;
  serve::appendJsonNumber(inf, std::numeric_limits<double>::infinity());
  EXPECT_EQ(inf, "null");
}

} // namespace
} // namespace sct
