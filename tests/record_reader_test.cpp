/** @file Tests for the incremental buffered record reader. */
#include "ski/record_reader.h"

#include <gtest/gtest.h>

#include <sstream>

#include "gen/datasets.h"
#include "path/parser.h"
#include "ski/record_scanner.h"
#include "ski/streamer.h"
#include "util/error.h"

using jsonski::ParseError;
using jsonski::ski::RecordReader;

namespace {

std::vector<std::string>
readAll(const std::string& text, size_t buffer)
{
    std::istringstream in(text);
    RecordReader reader(in, buffer);
    std::vector<std::string> out;
    std::string_view rec;
    while (reader.next(rec))
        out.push_back(std::string(rec));
    return out;
}

} // namespace

TEST(RecordReader, BasicNdjson)
{
    auto recs = readAll("{\"a\":1}\n{\"b\":2}\n[3]\n", 1 << 16);
    EXPECT_EQ(recs, (std::vector<std::string>{"{\"a\":1}", "{\"b\":2}",
                                              "[3]"}));
}

TEST(RecordReader, EmptyStream)
{
    EXPECT_TRUE(readAll("", 1024).empty());
    EXPECT_TRUE(readAll("  \n \t ", 1024).empty());
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
    // Buffer fits only a handful of records at a time.
    auto recs = readAll(text, 300);
    EXPECT_EQ(recs, expected);
}

TEST(RecordReader, RecordLargerThanBufferGrows)
{
    std::string big = "{\"payload\":\"" + std::string(5000, 'x') + "\"}";
    std::string text = big + "\n{\"k\":1}";
    std::istringstream in(text);
    RecordReader reader(in, 256);
    std::string_view rec;
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec, big);
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec, "{\"k\":1}");
    EXPECT_FALSE(reader.next(rec));
    EXPECT_GT(reader.bufferSize(), 256u);
}

TEST(RecordReader, CountsAndBytes)
{
    std::istringstream in("{} [1] {}");
    RecordReader reader(in, 64);
    std::string_view rec;
    size_t n = 0;
    while (reader.next(rec))
        ++n;
    EXPECT_EQ(n, 3u);
    EXPECT_EQ(reader.recordsRead(), 3u);
    EXPECT_EQ(reader.bytesRead(), 2u + 3u + 2u);
}

TEST(RecordReader, UnterminatedTrailingRecordThrows)
{
    std::istringstream in("{\"a\":1}\n{\"b\":");
    RecordReader reader(in, 64);
    std::string_view rec;
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec, "{\"a\":1}");
    EXPECT_THROW(reader.next(rec), ParseError);
}

TEST(RecordReader, StrayBytesThrow)
{
    // The scan is eager, so the error may surface on any next() call;
    // draining the stream must throw.
    std::istringstream in("{} oops {}");
    RecordReader reader(in, 64);
    EXPECT_THROW(
        {
            std::string_view rec;
            while (reader.next(rec)) {
            }
        },
        ParseError);
}

TEST(RecordReader, StringsStraddlingRefills)
{
    // A record whose long string crosses several buffer refills, with
    // metacharacters inside.
    std::string big = "{\"s\":\"" + std::string(700, ',') + "}{" +
                      std::string(700, ']') + "\"}";
    std::string text = big + "\n[7]";
    std::istringstream in(text);
    RecordReader reader(in, 256);
    std::string_view rec;
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec, big);
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec, "[7]");
}

TEST(RecordReader, EscapeHeavyRecordsAcrossBufferGrowth)
{
    // Regression: record views must stay intact when the buffer grows
    // mid-stream while \uXXXX and \\ escapes straddle refill points.
    // Build records whose escape sequences land at every offset around
    // the 256-byte refill boundary.
    std::vector<std::string> records;
    for (size_t pad = 240; pad <= 260; ++pad) {
        std::string rec = "{\"k\":\"" + std::string(pad, 'a');
        rec += "\\u00e9\\\\\\\"\\n"; // é, backslash, quote, newline
        rec += "tail\", \"n\": " + std::to_string(pad) + "}";
        records.push_back(rec);
    }
    // One oversized record in the middle forces buffer growth; the
    // records after it must still come back byte-identical.  The run
    // length is even so the closing quote stays a real quote.
    std::string big = "{\"big\":\"" + std::string(3000, '\\') + "\"}";
    records.insert(records.begin() + records.size() / 2, big);

    std::string text;
    for (const std::string& r : records)
        text += r + "\n";
    auto out = readAll(text, 256);
    ASSERT_EQ(out.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(out[i], records[i]) << "record " << i;
}

TEST(RecordReader, EndToEndQueryOverGeneratedFeed)
{
    auto data = jsonski::gen::generateSmall(jsonski::gen::DatasetId::WM,
                                            128 * 1024);
    std::istringstream in(data.buffer);
    RecordReader reader(in, 4096);
    jsonski::ski::Streamer streamer(jsonski::path::parse("$.nm"));
    std::string_view rec;
    size_t matches = 0, records = 0;
    while (reader.next(rec)) {
        matches += streamer.run(rec).matches;
        ++records;
    }
    EXPECT_EQ(records, data.count());
    EXPECT_EQ(matches, data.count());
}

TEST(RecordReader, MalformedStreamsFailWhereTheScannerDoes)
{
    // NDJSON damaged well past the first window: at every buffer size
    // the reader must report the scanner's ErrorCode at the scanner's
    // stream offset (the offending byte, or an unterminated record's
    // opening byte), after delivering only records the scanner also
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
        jsonski::ErrorCode code = jsonski::ErrorCode::Unspecified;
        try {
            jsonski::ski::scanRecords(text);
            FAIL() << "scanner accepted damage at " << pos;
        } catch (const ParseError& e) {
            ASSERT_EQ(e.position(), pos);
            code = e.code();
        }
        size_t tail = 0;
        auto before = jsonski::ski::scanRecords(
            std::string_view(text).substr(0, pos), &tail);
        for (size_t buffer : {size_t{256}, size_t{4096}, size_t{1} << 20}) {
            std::istringstream in(text);
            RecordReader reader(in, buffer);
            std::string_view rec;
            size_t n = 0;
            try {
                for (; reader.next(rec); ++n) {
                    ASSERT_LT(n, before.size()) << "buffer " << buffer;
                    EXPECT_EQ(reader.offset(), before[n].first);
                    EXPECT_EQ(rec.size(), before[n].second);
                }
                ADD_FAILURE() << "reader accepted damage at " << pos;
            } catch (const ParseError& e) {
                EXPECT_EQ(e.code(), code) << "buffer " << buffer;
                EXPECT_EQ(e.position(), pos) << "buffer " << buffer;
            }
        }
    }
}
