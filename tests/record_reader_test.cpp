/**
 * @file
 * Reading a record stream through a small buffer: records mode of
 * service::Plan::run, one cursor over the whole stream with `$`
 * returning each record whole.  Refills, records larger than a chunk,
 * strings and escapes across refills, counts, and malformed streams
 * failing at the scanner's stream offset at every chunk size.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gen/datasets.h"
#include "service/plan_cache.h"
#include "testing/record_scanner.h"
#include "testing/records.h"
#include "util/error.h"

using jsonski::ErrorCode;
using jsonski::ParseError;
using jsonski::service::compilePlan;
using jsonski::testing::RecordsRun;
using jsonski::testing::runRecords;

namespace {

/** Every record of @p text as `$` returns it, read in @p chunk bytes. */
RecordsRun
readAll(const std::string& text, size_t chunk)
{
    return runRecords(*compilePlan("$"), text, chunk);
}

std::vector<std::string>
valuesOf(const RecordsRun& run)
{
    std::vector<std::string> out;
    for (const auto& [qi, value] : run.values)
        out.push_back(value);
    return out;
}

} // namespace

TEST(RecordReader, BasicNdjson)
{
    RecordsRun r = readAll("{\"a\":1}\n{\"b\":2}\n[3]\n", 1 << 16);
    ASSERT_FALSE(r.threw) << r.what;
    EXPECT_EQ(valuesOf(r), (std::vector<std::string>{"{\"a\":1}",
                                                     "{\"b\":2}", "[3]"}));
}

TEST(RecordReader, EmptyStream)
{
    for (const char* text : {"", "  \n \t "}) {
        RecordsRun r = readAll(text, 1024);
        ASSERT_FALSE(r.threw) << r.what;
        EXPECT_TRUE(r.values.empty());
        EXPECT_EQ(r.result.records, 0u);
    }
}

TEST(RecordReader, TinyBufferForcesRefills)
{
    std::string text;
    std::vector<std::string> expected;
    for (int i = 0; i < 200; ++i) {
        std::string rec =
            "{\"id\":" + std::to_string(i) + ",\"p\":[1,2,3]}";
        expected.push_back(rec);
        text += rec + "\n";
    }
    // A chunk fits only a handful of records at a time.
    RecordsRun r = readAll(text, 300);
    ASSERT_FALSE(r.threw) << r.what;
    EXPECT_EQ(valuesOf(r), expected);
    EXPECT_GT(r.result.ingest.refills, 10u);
}

TEST(RecordReader, RecordLargerThanBufferGrows)
{
    std::string big = "{\"payload\":\"" + std::string(5000, 'x') + "\"}";
    RecordsRun r = readAll(big + "\n{\"k\":1}", 256);
    ASSERT_FALSE(r.threw) << r.what;
    EXPECT_EQ(valuesOf(r), (std::vector<std::string>{big, "{\"k\":1}"}));
    // The window grows to hold the emitted record, and only then.
    EXPECT_GT(r.result.ingest.window_peak, big.size());
}

TEST(RecordReader, CountsAndBytes)
{
    RecordsRun r = readAll("{} [1] {}", 64);
    ASSERT_FALSE(r.threw) << r.what;
    EXPECT_EQ(r.values.size(), 3u);
    EXPECT_EQ(r.result.records, 3u);
    // The ratio denominator is the whole stream, separators included.
    EXPECT_EQ(r.result.input_bytes, 9u);
}

TEST(RecordReader, UnterminatedTrailingRecordThrows)
{
    RecordsRun r = readAll("{\"a\":1}\n{\"b\":", 64);
    EXPECT_EQ(valuesOf(r), (std::vector<std::string>{"{\"a\":1}"}));
    ASSERT_TRUE(r.threw);
    EXPECT_EQ(r.code, ErrorCode::UnterminatedRecord);
    EXPECT_EQ(r.position, 8u); // the record's opening byte
}

TEST(RecordReader, StrayBytesThrow)
{
    RecordsRun r = readAll("{} oops {}", 64);
    ASSERT_TRUE(r.threw);
    EXPECT_EQ(r.code, ErrorCode::StrayByte);
    EXPECT_EQ(r.position, 3u);
    EXPECT_EQ(valuesOf(r), (std::vector<std::string>{"{}"}));
}

TEST(RecordReader, StringsStraddlingRefills)
{
    // A record whose long string crosses several refills, with
    // metacharacters inside.
    std::string big = "{\"s\":\"" + std::string(700, ',') + "}{" +
                      std::string(700, ']') + "\"}";
    RecordsRun r = readAll(big + "\n[7]", 256);
    ASSERT_FALSE(r.threw) << r.what;
    EXPECT_EQ(valuesOf(r), (std::vector<std::string>{big, "[7]"}));
}

TEST(RecordReader, EscapeHeavyRecordsAcrossBufferGrowth)
{
    // Record views must stay intact when the window grows mid-stream
    // while \uXXXX and \\ escapes straddle refill points.  Build
    // records whose escape sequences land at every offset around the
    // 256-byte refill boundary.
    std::vector<std::string> records;
    for (size_t pad = 240; pad <= 260; ++pad) {
        std::string rec = "{\"k\":\"" + std::string(pad, 'a');
        rec += "\\u00e9\\\\\\\"\\n"; // é, backslash, quote, newline
        rec += "tail\", \"n\": " + std::to_string(pad) + "}";
        records.push_back(rec);
    }
    // One oversized record in the middle forces window growth; the
    // records after it must still come back byte-identical.  The run
    // length is even so the closing quote stays a real quote.
    std::string big = "{\"big\":\"" + std::string(3000, '\\') + "\"}";
    records.insert(records.begin() + records.size() / 2, big);

    std::string text;
    for (const std::string& rec : records)
        text += rec + "\n";
    RecordsRun r = readAll(text, 256);
    ASSERT_FALSE(r.threw) << r.what;
    EXPECT_EQ(valuesOf(r), records);
}

TEST(RecordReader, EndToEndQueryOverGeneratedFeed)
{
    auto data = jsonski::gen::generateSmall(jsonski::gen::DatasetId::WM,
                                            128 * 1024);
    RecordsRun r = runRecords(*compilePlan("$.nm"), data.buffer, 4096);
    ASSERT_FALSE(r.threw) << r.what;
    EXPECT_EQ(r.result.records, data.count());
    EXPECT_EQ(r.result.total(), data.count());
}

TEST(RecordReader, MalformedStreamsFailWhereTheScannerDoes)
{
    // NDJSON damaged well past the first window: at every chunk size
    // the run must report the scanner's ErrorCode at the scanner's
    // stream offset (the offending byte, or an unterminated record's
    // opening byte), after delivering exactly the records the scanner
    // found before that offset.
    std::string lines;
    for (int i = 0; i < 12000; ++i)
        lines += "{\"a\":" + std::to_string(i % 10) + "}\n";
    std::string stray = lines; // a record's '{' turned stray
    stray[80000] = 'x';
    std::string unbalanced = lines; // a '}' between two records
    unbalanced[70007] = '}';
    std::string scalar = lines; // a scalar at the root
    scalar.insert(90000, "42\n");
    const std::vector<std::pair<std::string, size_t>> cases = {
        {stray, 80000},
        {unbalanced, 70007},
        {lines + "{\"cut\":[1,", lines.size()},
        {scalar, 90000},
    };
    for (const auto& [text, pos] : cases) {
        ErrorCode code = ErrorCode::Unspecified;
        try {
            jsonski::testing::scanRecords(text);
            FAIL() << "scanner accepted damage at " << pos;
        } catch (const ParseError& e) {
            ASSERT_EQ(e.position(), pos);
            code = e.code();
        }
        size_t tail = 0;
        auto before = jsonski::testing::scanRecords(
            std::string_view(text).substr(0, pos), &tail);
        std::vector<std::string> want;
        for (auto [off, len] : before)
            want.push_back(text.substr(off, len));
        for (size_t chunk : {size_t{256}, size_t{4096}, size_t{1} << 20}) {
            RecordsRun r = readAll(text, chunk);
            ASSERT_TRUE(r.threw) << "accepted damage at " << pos;
            EXPECT_EQ(r.code, code) << "chunk " << chunk;
            EXPECT_EQ(r.position, pos) << "chunk " << chunk;
            EXPECT_EQ(valuesOf(r), want) << "chunk " << chunk;
        }
    }
}
