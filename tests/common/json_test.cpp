#include "common/json.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace repro {
namespace {

TEST(Json, EscapesEveryByteAndParsesItBack) {
  std::string all;
  for (int b = 0; b < 256; ++b) all += static_cast<char>(b);
  all += "\"\\";

  std::string text = "{\"k\":";
  json::append_quoted(text, all);
  text += '}';
  std::string error;
  const auto doc = json::parse(text, &error);
  ASSERT_TRUE(doc) << error;
  EXPECT_TRUE(doc->flat);
  const json::Scalar& v = doc->scalars.at("k");
  EXPECT_EQ(v.kind, json::Scalar::Kind::kString);
  EXPECT_EQ(v.text, all);

  // The escape table every artifact has always used.
  EXPECT_EQ(json::quoted("a\"b\\c\n\t\r\x01\x1f\x7f\xc3\xa9"),
            "\"a\\\"b\\\\c\\n\\t\\r\\u0001\\u001f\x7f\xc3\xa9\"");
}

TEST(Json, NumbersUseNineSignificantDigitsAndNullForNonFinite) {
  EXPECT_EQ(json::number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json::number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json::number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json::number(3.5), "3.5");
  EXPECT_EQ(json::number(0.856094578123), "0.856094578");
  EXPECT_EQ(json::number(1e-7), "1e-07");

  // %.9g is exact for every float: each value reads back bit-identical
  // through the reader's number token.
  Rng rng(7);
  for (int k = 0; k < 10000; ++k) {
    const auto f = static_cast<float>(rng.normal(0.0, 1.0) *
                                      std::pow(10.0, rng.uniform(-30, 30)));
    const auto doc = json::parse("{\"v\":" + json::number(f) + "}");
    ASSERT_TRUE(doc) << f;
    const json::Scalar& v = doc->scalars.at("v");
    ASSERT_EQ(v.kind, json::Scalar::Kind::kNumber);
    EXPECT_EQ(static_cast<float>(std::strtod(v.text.c_str(), nullptr)), f);
  }
}

TEST(Json, NumbersMatchPrintfNineDigits) {
  // append_number formats with std::to_chars; every artifact byte must
  // stay what "%.9g" printed. Checked over edge values and 1M random bit
  // patterns: half doubles, half widened floats (the audit log's scores).
  const auto printf_9g = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return std::string(buf);
  };
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, 0.5, 1e-4, 9.99999999e-5, 1e-5, 1e8, 1e9,
      999999999.0, 999999999.5, 1e10, 123456789.0, 1234567890.0,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::epsilon(),
      static_cast<double>(std::numeric_limits<float>::min()),
      static_cast<double>(std::numeric_limits<float>::denorm_min()),
      static_cast<double>(std::numeric_limits<float>::max()),
      static_cast<double>(std::numeric_limits<float>::lowest()),
      static_cast<double>(0.1f), static_cast<double>(1.0f / 3.0f)};
  Rng rng(11);
  for (int k = 0; k < 500'000; ++k) {
    const std::uint64_t bits = rng.next_u64();
    values.push_back(std::bit_cast<double>(bits));
    values.push_back(static_cast<double>(
        std::bit_cast<float>(static_cast<std::uint32_t>(bits >> 32))));
  }
  for (const double v : values) {
    if (!std::isfinite(v)) continue;
    ASSERT_EQ(json::number(v), printf_9g(v)) << std::hexfloat << v;
  }
}

TEST(Json, ReaderRejectsMalformedAndFlagsNestedDocuments) {
  for (const char* bad :
       {"", "{", "{\"a\":1,}", "{\"a\":0.1x}", "{\"a\":tru}", "{\"a\":01}",
        "{\"a\":1.}", "{\"a\":\"\t\"}", "{\"a\":\"\\q\"}", "[1,2,]",
        "{\"a\":1} x", "{'a':1}"}) {
    std::string error;
    EXPECT_FALSE(json::parse(bad, &error)) << bad;
    EXPECT_NE(error.find(" at byte "), std::string::npos) << bad;
  }
  const auto nested = json::parse("{\"a\":1,\"b\":{\"c\":[2,\"s\"]}}");
  ASSERT_TRUE(nested);
  EXPECT_FALSE(nested->flat);
  EXPECT_EQ(nested->scalars.at("a").text, "1");
  EXPECT_FALSE(nested->scalars.contains("b"));
  EXPECT_EQ(nested->strings,
            (std::vector<std::string>{"a", "b", "c", "s"}));
  const auto utf8 = json::parse("\"\\u00e9\\ud83d\\ude00\"");
  ASSERT_TRUE(utf8);
  EXPECT_EQ(utf8->strings.at(0), "\xc3\xa9\xf0\x9f\x98\x80");
}

}  // namespace
}  // namespace repro
