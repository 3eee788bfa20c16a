/**
 * @file
 * Tier-1 chunk-seam differential rig: the chunked ingestion path must
 * be observationally identical to the whole-buffer path — values byte
 * for byte, error class and position, and FastForwardStats totals — at
 * every chunk size in the ladder, over the full fuzz corpus and query
 * mix (ISSUE 3 acceptance criterion).
 */
#include <gtest/gtest.h>

#include "intervals/chunk_source.h"
#include "ski/multi.h"
#include "path/parser.h"
#include "testing/differential.h"
#include "testing/seam.h"

namespace {

using jsonski::testing::defaultCorpus;
using jsonski::testing::defaultQueries;
using jsonski::testing::runSeamDifferential;
using jsonski::testing::runStreamerChunked;
using jsonski::testing::runStreamerWhole;
using jsonski::testing::SeamReport;
using jsonski::testing::SeamRun;

/** The ISSUE 3 chunk-size ladder; 0 = whole document in one chunk. */
const std::vector<size_t> kChunkSizes = {1, 2, 7, 63, 64, 65, 4096, 0};

TEST(ChunkedDifferential, CorpusTimesQueriesTimesChunkSizes)
{
    SeamReport report = runSeamDifferential(defaultCorpus(),
                                            defaultQueries(), kChunkSizes);
    for (const std::string& f : report.failures)
        ADD_FAILURE() << f;
    EXPECT_TRUE(report.ok());
    EXPECT_GT(report.comparisons, 0u);
}

TEST(ChunkedDifferential, MalformedDocumentsKeepErrorPositions)
{
    // Truncations and stray bytes: the error the engine reports must
    // not depend on chunking.
    std::vector<std::string> docs = {
        R"({"a": [1, 2, {"b": "unterminated)",
        R"({"a": {"b": 1})",
        R"([1, 2, 3)",
        R"({"a" 1})",
        R"({"k": "esc\)",
        "[" + std::string(200, '['),
    };
    SeamReport report =
        runSeamDifferential(docs, defaultQueries(), kChunkSizes);
    for (const std::string& f : report.failures)
        ADD_FAILURE() << f;
    EXPECT_TRUE(report.ok());
}

TEST(ChunkedDifferential, NulBytesAreWhitespaceInEveryMode)
{
    // A NUL byte is whitespace to the cursor wherever it lands — on
    // the fast path or inside a whitespace bitmap — so no chunking can
    // turn it into a premature end of input.
    std::vector<std::string> docs = {
        std::string("\0{\"a\":1}", 8),
        std::string("{\"a\":\0 1}", 9),
        std::string("{\"a\":1}\0{\"a\":2}", 15),
        std::string(70, '\0') + "[1, {\"a\": \"\0\"}]",
    };
    SeamReport report =
        runSeamDifferential(docs, defaultQueries(), kChunkSizes);
    for (const std::string& f : report.failures)
        ADD_FAILURE() << f;
    EXPECT_TRUE(report.ok());
    SeamRun whole = runStreamerWhole(docs[1], jsonski::path::parse("$.a"));
    EXPECT_FALSE(whole.threw_parse_error) << whole.error_what;
    EXPECT_EQ(whole.values, (std::vector<std::string>{"1"}));
}

TEST(ChunkedDifferential, AdversarialSchedulesMatchWholeBuffer)
{
    // Mixed schedules, including pathological 1-byte dribbles between
    // larger chunks, so seams land at shifting offsets.
    const std::string doc =
        R"({"users": [{"id": 1, "name": "a\"b\\c"}, )"
        R"({"id": 22, "name": "éè"}, )"
        R"({"id": 333, "tags": ["x", "y,z", "{"]}], "total": 3})";
    jsonski::path::PathQuery q = jsonski::path::parse("$.users[*].id");
    SeamRun whole = runStreamerWhole(doc, q);
    ASSERT_FALSE(whole.threw_parse_error);
    ASSERT_EQ(whole.values, (std::vector<std::string>{"1", "22", "333"}));

    const std::vector<std::vector<size_t>> schedules = {
        {1, 64}, {3, 1, 5}, {64, 1}, {7}, {2, 2, 61},
    };
    for (const auto& sched : schedules) {
        for (size_t chunk : {size_t{16}, size_t{64}, size_t{4096}}) {
            SeamRun chunked = runStreamerChunked(doc, q, sched, chunk);
            EXPECT_FALSE(chunked.threw_parse_error);
            EXPECT_EQ(chunked.values, whole.values);
            EXPECT_EQ(chunked.stats.skipped, whole.stats.skipped);
        }
    }
}

TEST(ChunkedDifferential, MultiStreamerChunkedMatchesWhole)
{
    const std::string doc =
        R"({"a": {"x": [10, 20, 30], "y": "s"}, )"
        R"("b": [{"x": 1}, {"x": 2}], "c": "tail"})";
    std::vector<jsonski::path::PathQuery> queries;
    queries.push_back(jsonski::path::parse("$.a.x[1]"));
    queries.push_back(jsonski::path::parse("$.b[*].x"));
    queries.push_back(jsonski::path::parse("$.c"));
    jsonski::ski::MultiStreamer ms(queries);

    jsonski::ski::MultiCollectSink whole_sink(queries.size());
    jsonski::ski::MultiStreamer::Result whole = ms.run(doc, &whole_sink);

    for (size_t chunk : {size_t{1}, size_t{7}, size_t{64}, size_t{4096}}) {
        jsonski::intervals::SplitSource src(doc, chunk);
        jsonski::ski::MultiCollectSink sink(queries.size());
        jsonski::ski::MultiStreamer::Result r = ms.run(src, &sink, chunk);
        EXPECT_EQ(r.matches, whole.matches) << "chunk=" << chunk;
        EXPECT_EQ(sink.values, whole_sink.values) << "chunk=" << chunk;
        EXPECT_EQ(r.stats.skipped, whole.stats.skipped)
            << "chunk=" << chunk;
        EXPECT_EQ(r.input_bytes, doc.size());
    }
}

} // namespace
