/** @file Tests for the bit-parallel record scanner (records mode's
 *  test oracle). */
#include "testing/record_scanner.h"

#include <gtest/gtest.h>

#include "gen/datasets.h"
#include "json/validate.h"
#include "util/error.h"

using jsonski::ParseError;
using jsonski::testing::scanRecords;

TEST(RecordScanner, SingleRecord)
{
    std::string s = R"({"a": 1})";
    auto spans = scanRecords(s);
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0], (std::pair<size_t, size_t>{0, s.size()}));
}

TEST(RecordScanner, NewlineDelimited)
{
    std::string s = "{\"a\":1}\n{\"b\":2}\n[3,4]\n";
    auto spans = scanRecords(s);
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(s.substr(spans[0].first, spans[0].second), "{\"a\":1}");
    EXPECT_EQ(s.substr(spans[1].first, spans[1].second), "{\"b\":2}");
    EXPECT_EQ(s.substr(spans[2].first, spans[2].second), "[3,4]");
}

TEST(RecordScanner, ConcatenatedNoSeparator)
{
    std::string s = "{}{}[]";
    auto spans = scanRecords(s);
    ASSERT_EQ(spans.size(), 3u);
}

TEST(RecordScanner, EmptyInput)
{
    EXPECT_TRUE(scanRecords("").empty());
    EXPECT_TRUE(scanRecords("   \n\t ").empty());
}

TEST(RecordScanner, BracesInsideStringsIgnored)
{
    std::string s = R"({"a": "}{", "b": "]["})" "\n" R"(["{\"nested\": 1}"])";
    auto spans = scanRecords(s);
    ASSERT_EQ(spans.size(), 2u);
    for (auto [off, len] : spans)
        EXPECT_TRUE(jsonski::json::validate(s.substr(off, len)));
}

TEST(RecordScanner, DeepNestingCrossesBlocks)
{
    std::string rec = "{\"k\":";
    for (int i = 0; i < 100; ++i)
        rec += "[";
    rec += "1";
    for (int i = 0; i < 100; ++i)
        rec += "]";
    rec += "}";
    std::string s = rec + "\n" + rec;
    auto spans = scanRecords(s);
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(s.substr(spans[1].first, spans[1].second), rec);
}

TEST(RecordScanner, MatchesGeneratorOffsets)
{
    auto data = jsonski::gen::generateSmall(jsonski::gen::DatasetId::TT,
                                            256 * 1024);
    auto spans = scanRecords(data.buffer);
    ASSERT_EQ(spans.size(), data.count());
    for (size_t i = 0; i < spans.size(); ++i)
        EXPECT_EQ(spans[i], data.spans[i]) << i;
}

TEST(RecordScanner, Errors)
{
    EXPECT_THROW(scanRecords("{\"a\":1"), ParseError);
    EXPECT_THROW(scanRecords("}"), ParseError);
    EXPECT_THROW(scanRecords("{} junk {}"), ParseError);
    EXPECT_THROW(scanRecords("42"), ParseError); // scalar root
}

TEST(RecordScanner, StrayAfterLastRecord)
{
    EXPECT_THROW(scanRecords("{} x"), ParseError);
}

TEST(RecordScanner, LargeRecordFastPath)
{
    // One record much larger than a block exercises the popcount
    // fast path for interior blocks.
    std::string rec = "[";
    for (int i = 0; i < 5000; ++i)
        rec += "{\"v\":" + std::to_string(i) + "},";
    rec += "{}]";
    std::string s = rec + " " + "{\"tail\": true}";
    auto spans = scanRecords(s);
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].second, rec.size());
}
