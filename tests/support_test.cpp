#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "support/bitset.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace rrsn {
namespace {

// ----------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowRejectsZeroBound) {
  Rng rng(7);
  EXPECT_THROW(rng.below(0), Error);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values appear
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 2000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 2000.0, 0.5, 0.05);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, BinomialSmallNMatchesMean) {
  Rng rng(5);
  double total = 0;
  for (int i = 0; i < 2000; ++i) total += static_cast<double>(rng.binomial(20, 0.3));
  EXPECT_NEAR(total / 2000.0, 6.0, 0.5);
}

TEST(Rng, BinomialLargeNMatchesMean) {
  Rng rng(5);
  double total = 0;
  for (int i = 0; i < 500; ++i)
    total += static_cast<double>(rng.binomial(100000, 0.01));
  EXPECT_NEAR(total / 500.0, 1000.0, 30.0);
}

TEST(Rng, BinomialEdgeCases) {
  Rng rng(6);
  EXPECT_EQ(rng.binomial(0, 0.5), 0u);
  EXPECT_EQ(rng.binomial(10, 0.0), 0u);
  EXPECT_EQ(rng.binomial(10, 1.0), 10u);
}

TEST(Rng, SampleIndicesDistinctSortedInRange) {
  Rng rng(13);
  const auto sample = rng.sampleIndices(100, 20);
  ASSERT_EQ(sample.size(), 20u);
  EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
  EXPECT_TRUE(std::adjacent_find(sample.begin(), sample.end()) == sample.end());
  for (std::size_t idx : sample) EXPECT_LT(idx, 100u);
}

TEST(Rng, SampleIndicesFullSet) {
  Rng rng(13);
  const auto sample = rng.sampleIndices(5, 5);
  EXPECT_EQ(sample, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Rng, SampleIndicesRejectsOversample) {
  Rng rng(13);
  EXPECT_THROW(rng.sampleIndices(3, 4), Error);
}

// ---------------------------------------------------------- DynamicBitset

TEST(DynamicBitset, SetTestReset) {
  DynamicBitset bs(130);
  EXPECT_EQ(bs.size(), 130u);
  EXPECT_FALSE(bs.test(0));
  bs.set(0);
  bs.set(64);
  bs.set(129);
  EXPECT_TRUE(bs.test(0));
  EXPECT_TRUE(bs.test(64));
  EXPECT_TRUE(bs.test(129));
  EXPECT_EQ(bs.count(), 3u);
  bs.reset(64);
  EXPECT_FALSE(bs.test(64));
  EXPECT_EQ(bs.count(), 2u);
}

TEST(DynamicBitset, OutOfRangeThrows) {
  DynamicBitset bs(10);
  EXPECT_THROW(bs.test(10), Error);
  EXPECT_THROW(bs.set(10), Error);
}

TEST(DynamicBitset, SetAllRespectsTail) {
  DynamicBitset bs(70);
  bs.setAll();
  EXPECT_EQ(bs.count(), 70u);
}

TEST(DynamicBitset, CountBelow) {
  DynamicBitset bs(200);
  for (std::size_t i = 0; i < 200; i += 3) bs.set(i);
  std::size_t expected = 0;
  for (std::size_t limit = 0; limit <= 200; limit += 7) {
    expected = 0;
    for (std::size_t i = 0; i < limit; ++i) expected += bs.test(i);
    EXPECT_EQ(bs.countBelow(limit), expected) << "limit=" << limit;
  }
}

TEST(DynamicBitset, FindNext) {
  DynamicBitset bs(100);
  bs.set(5);
  bs.set(77);
  EXPECT_EQ(bs.findNext(0), 5u);
  EXPECT_EQ(bs.findNext(5), 5u);
  EXPECT_EQ(bs.findNext(6), 77u);
  EXPECT_EQ(bs.findNext(78), 100u);
}

TEST(DynamicBitset, ForEachSetAscending) {
  DynamicBitset bs(150);
  const std::vector<std::size_t> want{3, 64, 65, 149};
  for (auto i : want) bs.set(i);
  std::vector<std::size_t> got;
  bs.forEachSet([&](std::size_t i) { got.push_back(i); });
  EXPECT_EQ(got, want);
  EXPECT_EQ(bs.toIndices(), want);
}

TEST(DynamicBitset, SpliceFrom) {
  const std::size_t n = 100;
  DynamicBitset a(n), b(n), c(n);
  for (std::size_t i = 0; i < n; i += 2) a.set(i);   // even bits
  for (std::size_t i = 1; i < n; i += 2) b.set(i);   // odd bits
  for (std::size_t point : {0UL, 1UL, 37UL, 64UL, 99UL, 100UL}) {
    c.spliceFrom(a, b, point);
    for (std::size_t i = 0; i < n; ++i) {
      const bool want = i < point ? a.test(i) : b.test(i);
      ASSERT_EQ(c.test(i), want) << "point=" << point << " i=" << i;
    }
  }
}

TEST(DynamicBitset, BitwiseOps) {
  DynamicBitset a(80), b(80);
  a.set(1);
  a.set(70);
  b.set(1);
  b.set(2);
  DynamicBitset o = a;
  o |= b;
  EXPECT_EQ(o.count(), 3u);
  DynamicBitset n = a;
  n &= b;
  EXPECT_EQ(n.count(), 1u);
  DynamicBitset x = a;
  x ^= b;
  EXPECT_EQ(x.count(), 2u);
  EXPECT_TRUE(x.test(2) && x.test(70));
}

TEST(DynamicBitset, OrWithMergesWordLevel) {
  // Spans three words so the word loop (not just word 0) is exercised.
  DynamicBitset acc(180), other(180);
  acc.set(0);
  acc.set(64);
  other.set(64);
  other.set(65);
  other.set(179);
  DynamicBitset& ref = acc.orWith(other);
  EXPECT_EQ(&ref, &acc);  // chainable, modifies in place
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_TRUE(acc.test(0) && acc.test(64) && acc.test(65) && acc.test(179));
  // `other` is untouched, and equality with the operator form holds.
  EXPECT_EQ(other.count(), 3u);
  DynamicBitset viaOperator(180);
  viaOperator.set(0);
  viaOperator.set(64);
  viaOperator |= other;
  EXPECT_EQ(acc, viaOperator);

  DynamicBitset wrongSize(64);
  EXPECT_THROW(acc.orWith(wrongSize), Error);
}

// ----------------------------------------------------------------- table

TEST(Table, WithThousands) {
  EXPECT_EQ(withThousands(std::uint64_t{0}), "0");
  EXPECT_EQ(withThousands(std::uint64_t{999}), "999");
  EXPECT_EQ(withThousands(std::uint64_t{1000}), "1,000");
  EXPECT_EQ(withThousands(std::uint64_t{1234567}), "1,234,567");
  EXPECT_EQ(withThousands(std::int64_t{-1234}), "-1,234");
}

TEST(Table, FormatMinSec) {
  EXPECT_EQ(formatMinSec(0.0), "00:00");
  EXPECT_EQ(formatMinSec(7.4), "00:07");
  EXPECT_EQ(formatMinSec(61.0), "01:01");
  EXPECT_EQ(formatMinSec(5521.0), "92:01");
}

TEST(Table, RenderAlignsColumns) {
  TextTable t({"name", "value"});
  t.setAlign(0, TextTable::Align::Left);
  t.addRow({"a", "1"});
  t.addRow({"longer", "12345"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name   | value"), std::string::npos);
  EXPECT_NE(out.find("longer |"), std::string::npos);
}

TEST(Table, RowArityChecked) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.addRow({"only-one"}), Error);
}

TEST(Table, CsvEscaping) {
  TextTable t({"x"});
  t.addRow({"plain"});
  t.addRow({"with,comma"});
  t.addRow({"with\"quote"});
  const std::string csv = t.renderCsv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

// --------------------------------------------------------------- strings

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("  \t\n "), "");
}

TEST(Strings, Split) {
  EXPECT_EQ(split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, SplitWhitespace) {
  EXPECT_EQ(splitWhitespace("  a\t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(splitWhitespace("   ").empty());
}

TEST(Strings, ParseUnsigned) {
  EXPECT_EQ(parseUnsigned("42", "t"), 42u);
  EXPECT_EQ(parseUnsigned("  7 ", "t"), 7u);
  EXPECT_THROW(parseUnsigned("x", "t"), ParseError);
  EXPECT_THROW(parseUnsigned("", "t"), ParseError);
  EXPECT_THROW(parseUnsigned("-3", "t"), ParseError);
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(parseDouble("2.5", "t"), 2.5);
  EXPECT_THROW(parseDouble("abc", "t"), ParseError);
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  // One escape per UTF-8 length class: 1, 2, 3 bytes.
  EXPECT_EQ(json::parse("\"\\u0041\"").asString(), "A");
  EXPECT_EQ(json::parse("\"\\u00e9\"").asString(), "\xc3\xa9");      // é
  EXPECT_EQ(json::parse("\"\\u20ac\"").asString(), "\xe2\x82\xac");  // €
}

TEST(Json, SurrogatePairsRecombine) {
  // U+1D11E (musical G clef) = \uD834\uDD1E -> 4-byte UTF-8.
  EXPECT_EQ(json::parse("\"\\ud834\\udd1e\"").asString(),
            "\xf0\x9d\x84\x9e");
  // U+10000, the first supplementary code point (low edge of the range).
  EXPECT_EQ(json::parse("\"\\ud800\\udc00\"").asString(),
            "\xf0\x90\x80\x80");
  // U+10FFFF, the last code point (high edge).
  EXPECT_EQ(json::parse("\"\\udbff\\udfff\"").asString(),
            "\xf4\x8f\xbf\xbf");
  // Pairs embedded in surrounding text survive.
  EXPECT_EQ(json::parse("\"a\\ud834\\udd1ez\"").asString(),
            "a\xf0\x9d\x84\x9ez");
}

TEST(Json, LoneSurrogatesAreParseErrors) {
  // High surrogate at end of string, or followed by a non-escape.
  EXPECT_THROW(json::parse("\"\\ud834\""), ParseError);
  EXPECT_THROW(json::parse("\"\\ud834x\""), ParseError);
  // High surrogate followed by an escape that is not a low surrogate.
  EXPECT_THROW(json::parse("\"\\ud834\\u0041\""), ParseError);
  // High surrogate followed by another high surrogate.
  EXPECT_THROW(json::parse("\"\\ud834\\ud834\""), ParseError);
  // Low surrogate with no preceding high surrogate.
  EXPECT_THROW(json::parse("\"\\udd1e\""), ParseError);
}

TEST(Json, SupplementaryPlaneRoundTripsThroughWriter) {
  // parse -> serialize -> parse is the writer/reader contract: the
  // serializer emits the raw UTF-8 bytes and the parser accepts them.
  const std::string decoded = json::parse("\"\\ud834\\udd1e e\\u0301\"")
                                  .asString();
  const std::string serialized = json::serialize(json::Value(decoded));
  EXPECT_EQ(json::parse(serialized).asString(), decoded);
}

TEST(ParallelEnv, ParseEnvCountAcceptsPlainIntegers) {
  const auto p = detail::parseEnvCount("8", 3, 1, 1024);
  EXPECT_EQ(p.value, 8u);
  EXPECT_FALSE(p.usedFallback);
  EXPECT_FALSE(p.clamped);
}

TEST(ParallelEnv, ParseEnvCountFallsBackOnGarbage) {
  for (const char* text : {"abc", "4x", "1.5", "", " 8", "8 ", "--2"}) {
    const auto p = detail::parseEnvCount(text, 3, 1, 1024);
    EXPECT_EQ(p.value, 3u) << '"' << text << '"';
    EXPECT_TRUE(p.usedFallback) << '"' << text << '"';
    EXPECT_FALSE(p.clamped) << '"' << text << '"';
  }
  // Unset variable (null) is a silent fallback too.
  const auto p = detail::parseEnvCount(nullptr, 5, 1, 1024);
  EXPECT_EQ(p.value, 5u);
  EXPECT_TRUE(p.usedFallback);
}

TEST(ParallelEnv, ParseEnvCountFallsBackOnNonPositive) {
  for (const char* text : {"0", "-1", "-9223372036854775807"}) {
    const auto p = detail::parseEnvCount(text, 4, 1, 1024);
    EXPECT_EQ(p.value, 4u) << '"' << text << '"';
    EXPECT_TRUE(p.usedFallback) << '"' << text << '"';
  }
}

TEST(ParallelEnv, ParseEnvCountClampsOutOfRange) {
  // Above the cap (including values that overflow long long).
  for (const char* text : {"4097", "99999999999999999999999999"}) {
    const auto p = detail::parseEnvCount(text, 4, 2, 4096);
    EXPECT_EQ(p.value, 4096u) << '"' << text << '"';
    EXPECT_TRUE(p.clamped) << '"' << text << '"';
    EXPECT_FALSE(p.usedFallback) << '"' << text << '"';
  }
  // Below the floor.
  const auto p = detail::parseEnvCount("1", 4, 2, 4096);
  EXPECT_EQ(p.value, 2u);
  EXPECT_TRUE(p.clamped);
}

TEST(ParallelEnv, BoundsAreSane) {
  EXPECT_GE(detail::kMaxThreads, 64u);
}

TEST(Status, DefaultIsOk) {
  const Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.toString(), "OK");
}

TEST(Status, FactoriesCarryCodeAndMessage) {
  const Status s = Status::dataLoss("truncated checkpoint");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(s.message(), "truncated checkpoint");
  EXPECT_EQ(s.toString(), "DATA_LOSS: truncated checkpoint");
  EXPECT_EQ(Status::internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::failedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::invalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::unavailable("x").code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace rrsn
