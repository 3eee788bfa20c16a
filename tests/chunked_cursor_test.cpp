/**
 * @file
 * Chunked-ingestion unit tests: ChunkSource implementations, the
 * chunked StreamCursor (refills, discard floor, prepareTail on a
 * multi-chunk stream), the bounded-memory acceptance criterion
 * (window peak <= 2x chunk size, backed by the heap hooks), and
 * records mode over a ChunkSource, with the same residency bound.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "gen/datasets.h"
#include "intervals/chunk_source.h"
#include "intervals/cursor.h"
#include "path/matches.h"
#include "path/parser.h"
#include "path/queryset.h"
#include "service/plan_cache.h"
#include "ski/multi.h"
#include "ski/streamer.h"
#include "util/mem_stats.h"

namespace {

using jsonski::intervals::ChunkSource;
using jsonski::intervals::FileSource;
using jsonski::intervals::IstreamSource;
using jsonski::intervals::SplitSource;
using jsonski::intervals::StreamCursor;
using jsonski::intervals::ViewSource;
using jsonski::path::CollectSink;
using jsonski::ski::Streamer;
using jsonski::ski::StreamResult;

/** Drain a source with @p cap-sized reads; returns the reassembly. */
std::string
drain(ChunkSource& src, size_t cap, std::vector<size_t>* sizes = nullptr)
{
    std::string out;
    std::vector<char> buf(cap);
    for (;;) {
        size_t n = src.read(buf.data(), cap);
        if (n == 0)
            break;
        if (sizes != nullptr)
            sizes->push_back(n);
        out.append(buf.data(), n);
    }
    return out;
}

/** A document of exactly @p n bytes whose query "$.tail" matches "7". */
std::string
docOfSize(size_t n)
{
    const std::string prefix = "{\"pad\": \"";
    const std::string suffix = "\", \"tail\": 7}";
    EXPECT_GE(n, prefix.size() + suffix.size());
    return prefix + std::string(n - prefix.size() - suffix.size(), 'x') +
           suffix;
}

// ---------------------------------------------------------------------
// ChunkSource implementations
// ---------------------------------------------------------------------

TEST(ChunkSourceTest, ViewSourceDeliversWholeViewByDefault)
{
    const std::string doc = docOfSize(200);
    ViewSource src(doc);
    std::vector<size_t> sizes;
    EXPECT_EQ(drain(src, 4096, &sizes), doc);
    EXPECT_EQ(sizes, (std::vector<size_t>{doc.size()}));
    EXPECT_EQ(src.remaining(), 0u);
    // Terminal: keeps returning 0.
    char b;
    EXPECT_EQ(src.read(&b, 1), 0u);
}

TEST(ChunkSourceTest, ViewSourceHonorsChunkHint)
{
    const std::string doc = docOfSize(100);
    ViewSource src(doc, 33);
    std::vector<size_t> sizes;
    EXPECT_EQ(drain(src, 4096, &sizes), doc);
    EXPECT_EQ(sizes, (std::vector<size_t>{33, 33, 33, 1}));
}

TEST(ChunkSourceTest, SplitSourceNeverCrossesScheduledSeam)
{
    const std::string doc = docOfSize(50);
    // Seams after 10 and then every (10, 3) cycle; a huge cap must not
    // merge deliveries across a scheduled seam.
    SplitSource src(doc, std::vector<size_t>{10, 3});
    std::vector<size_t> sizes;
    EXPECT_EQ(drain(src, 4096, &sizes), doc);
    EXPECT_EQ(sizes, (std::vector<size_t>{10, 3, 10, 3, 10, 3, 10, 1}));
    EXPECT_GT(src.seams(), 0u);
}

TEST(ChunkSourceTest, SplitSourceSmallCapAddsExtraSeams)
{
    const std::string doc = docOfSize(30);
    SplitSource src(doc, std::vector<size_t>{10});
    std::vector<size_t> sizes;
    EXPECT_EQ(drain(src, 4, &sizes), doc);
    // Each scheduled 10-byte chunk is delivered as 4+4+2.
    EXPECT_EQ(sizes, (std::vector<size_t>{4, 4, 2, 4, 4, 2, 4, 4, 2}));
}

TEST(ChunkSourceTest, SplitSourceZeroScheduleEntryCountsAsOne)
{
    const std::string doc = "[1]";
    SplitSource src(doc, std::vector<size_t>{0});
    std::vector<size_t> sizes;
    EXPECT_EQ(drain(src, 4096, &sizes), doc);
    EXPECT_EQ(sizes, (std::vector<size_t>{1, 1, 1}));
}

TEST(ChunkSourceTest, IstreamSourceReadsShortFinalChunk)
{
    const std::string doc = docOfSize(70);
    std::istringstream in(doc);
    IstreamSource src(in);
    EXPECT_EQ(drain(src, 64), doc);
}

TEST(ChunkSourceTest, FileSourceReadsTmpfile)
{
    const std::string doc = docOfSize(300);
    std::FILE* f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(doc.data(), 1, doc.size(), f), doc.size());
    std::rewind(f);
    FileSource src(f);
    EXPECT_EQ(drain(src, 128), doc);
    std::fclose(f);
}

// ---------------------------------------------------------------------
// Chunked StreamCursor
// ---------------------------------------------------------------------

TEST(ChunkedCursorTest, ByteIterationMatchesInputAndCountsRefills)
{
    const std::string doc = docOfSize(1000);
    ViewSource src(doc, 64);
    StreamCursor cur(src, 64);
    std::string seen;
    while (!cur.atEnd()) {
        // Classify as a real consumer would; the classifier's resume
        // block is part of the discard floor, so an unclassified
        // stream pins the window at byte 0 by design.
        (void)cur.strings();
        seen.push_back(cur.current());
        cur.advance(1);
    }
    EXPECT_EQ(seen, doc);
    EXPECT_TRUE(cur.exhausted());
    EXPECT_TRUE(cur.chunked());
    const StreamCursor::IngestStats& s = cur.ingestStats();
    EXPECT_EQ(s.bytes_ingested, doc.size());
    EXPECT_GE(s.refills, doc.size() / 64);
    // With no holds the window must have recycled, not accumulated.
    EXPECT_GT(cur.windowBase(), 0u);
    EXPECT_LE(cur.windowCapacity(), 2 * 64u);
    EXPECT_LE(s.window_peak, 2 * 64u);
}

TEST(ChunkedCursorTest, EnsureBlockRefillsAndDetectsEnd)
{
    const std::string doc = docOfSize(130); // blocks 0, 1, partial 2
    ViewSource src(doc, 32);
    StreamCursor cur(src, 32);
    EXPECT_TRUE(cur.ensureBlock(0));
    EXPECT_TRUE(cur.ensureBlock(1));
    EXPECT_TRUE(cur.ensureBlock(2)); // partial block still has bytes
    EXPECT_FALSE(cur.ensureBlock(3));
    EXPECT_TRUE(cur.exhausted());
    EXPECT_EQ(cur.size(), doc.size());
}

TEST(ChunkedCursorTest, HoldPinsBytesAcrossRefills)
{
    const std::string doc = docOfSize(4096);
    ViewSource src(doc, 64);
    StreamCursor cur(src, 64);
    cur.setHold(0); // pin the whole stream, as a value-span emit would
    while (!cur.atEnd())
        cur.advance(64);
    EXPECT_EQ(cur.windowBase(), 0u);
    EXPECT_EQ(cur.slice(0, doc.size()), doc);
    cur.setHold(StreamCursor::kNoHold);
}

TEST(ChunkedCursorTest, PrepareTailOnMultiChunkStream)
{
    // The final block is partial and arrives in dribbles: the cursor
    // must finish refilling (hit EOF) before padding the tail block for
    // classification, or the padding would corrupt the string-layer
    // carries.  Sweep sizes around block multiples.
    jsonski::path::PathQuery q = jsonski::path::parse("$.tail");
    for (size_t n : {127u, 128u, 129u, 191u, 192u, 193u, 200u}) {
        const std::string doc = docOfSize(n);
        for (size_t sched : {1u, 7u, 64u, 97u}) {
            SplitSource src(doc, sched);
            CollectSink sink;
            StreamResult r = Streamer(q).run(src, &sink, 64);
            EXPECT_EQ(sink.values, (std::vector<std::string>{"7"}))
                << "n=" << n << " sched=" << sched;
            EXPECT_EQ(r.input_bytes, doc.size());
        }
    }
}

TEST(ChunkedCursorTest, HeldSpanLargerThanChunkGrowsWindow)
{
    // A matched value longer than the chunk must survive intact: the
    // hold forces the window to grow past its steady-state size.
    std::string big(10000, 'y');
    std::string doc = "{\"big\": \"" + big + "\", \"z\": 1}";
    jsonski::path::PathQuery q = jsonski::path::parse("$.big");
    SplitSource src(doc, 64);
    CollectSink sink;
    StreamResult r = Streamer(q).run(src, &sink, 64);
    ASSERT_EQ(sink.values.size(), 1u);
    EXPECT_EQ(sink.values[0], "\"" + big + "\"");
    EXPECT_GT(r.ingest.window_peak, big.size());
}

TEST(ChunkedCursorTest, MatchedContainersStraddleSeamsWithSpill)
{
    // Matched objects wider than a block: while one is being walked
    // for emission, the consumer hold pins its start as the position
    // crosses block boundaries, so refills must compact around a held
    // span — the seam-straddle and spill counters account for it.
    std::string doc = "[";
    for (int i = 0; i < 50; ++i) {
        if (i != 0)
            doc += ",";
        doc += "{\"i\": " + std::to_string(i) + ", \"pad\": \"" +
               std::string(180, 'p') + "\"}";
    }
    doc += "]";
    jsonski::path::PathQuery q = jsonski::path::parse("$[*]");
    SplitSource src(doc, 64);
    CollectSink sink;
    StreamResult r = Streamer(q).run(src, &sink, 64);
    ASSERT_EQ(sink.values.size(), 50u);
    EXPECT_GT(r.ingest.seam_straddles, 0u);
    EXPECT_GT(r.ingest.spill_bytes, 0u);
    // One ~200-byte element held at a time: the window stays a small
    // constant, nowhere near the ~10 KB document.
    EXPECT_LE(r.ingest.window_peak, size_t{1024});
}

// ---------------------------------------------------------------------
// Bounded-memory acceptance criterion
// ---------------------------------------------------------------------

TEST(ChunkedCursorTest, WindowPeakBoundedByTwiceChunkBytes)
{
    // ISSUE 3 acceptance: a twitter-like corpus piped through the
    // chunked path at --chunk-bytes 4096 keeps the resident buffer
    // within 2x the chunk size.
    constexpr size_t kChunk = 4096;
    const std::string doc =
        jsonski::gen::generateLarge(jsonski::gen::DatasetId::TT, 1 << 20);
    jsonski::path::PathQuery q = jsonski::path::parse("$..id");
    ViewSource src(doc, kChunk);
    CollectSink sink;
    StreamResult r = Streamer(q).run(src, &sink, kChunk);
    EXPECT_EQ(r.input_bytes, doc.size());
    EXPECT_GT(r.ingest.refills, 0u);
    EXPECT_LE(r.ingest.window_peak, 2 * kChunk)
        << "resident window exceeded 2x chunk size";
}

TEST(ChunkedCursorTest, WindowStaysOneChunkPlusOneBlock)
{
    // DESIGN.md §9: with no hold longer than a chunk, the window never
    // leaves its steady-state size of one block-rounded chunk plus one
    // block of slack.  Every matched user id is shorter than a block.
    const std::string doc =
        jsonski::gen::generateLarge(jsonski::gen::DatasetId::TT, 1 << 20);
    Streamer streamer(jsonski::path::parse("$[*].user.id"));
    for (size_t chunk : {size_t{4096}, size_t{65536}}) {
        ViewSource src(doc, chunk);
        CollectSink sink;
        StreamResult r = streamer.run(src, &sink, chunk);
        ASSERT_GT(sink.values.size(), 0u);
        for (const std::string& v : sink.values)
            ASSERT_LT(v.size(), 64u) << v;
        EXPECT_GT(r.ingest.refills, 1u);
        EXPECT_EQ(r.ingest.window_peak, (chunk + 63) / 64 * 64 + 64)
            << "chunk " << chunk;
    }
}

TEST(ChunkedCursorTest, QuerySetsKeepTheSoloWindow)
{
    // A set's filter and `..` steps run inside its one walk, so no set
    // pins a record: each set keeps the window its queries keep alone,
    // one block-rounded chunk plus one block.
    constexpr size_t kChunk = 65536;
    const std::string doc =
        jsonski::gen::generateLarge(jsonski::gen::DatasetId::TT, 1 << 20, 7);
    const std::vector<std::vector<std::string>> sets = {
        {"$[*].id", "$..screen_name"},
        {"$[*].id", "$[?(@.lang=='es')].id"},
    };
    for (const std::vector<std::string>& texts : sets) {
        SCOPED_TRACE(texts.back());
        for (const std::string& text : texts) {
            ViewSource src(doc, kChunk);
            StreamResult r = Streamer(jsonski::path::parse(text))
                                 .run(src, nullptr, kChunk);
            EXPECT_EQ(r.ingest.window_peak, size_t{65600}) << text;
        }
        jsonski::ski::MultiStreamer ms(
            jsonski::path::QuerySet::fromTexts(texts));
        ViewSource src(doc, kChunk);
        jsonski::ski::MultiStreamer::Result r = ms.run(src, nullptr, kChunk);
        EXPECT_EQ(r.input_bytes, doc.size());
        EXPECT_GT(r.matches[0], 0u);
        EXPECT_GT(r.matches[1], 0u);
        EXPECT_EQ(r.ingest.window_peak, size_t{65600});
    }
}

TEST(ChunkedCursorTest, HeapPeakStaysFarBelowDocumentSize)
{
    // Same criterion through the heap accounting hooks: streaming a
    // 1 MiB document at 4 KiB chunks must not materialize it.  The
    // budget leaves room for the window, driver state, and transient
    // allocations, but is ~8x below the document size.
    constexpr size_t kChunk = 4096;
    const std::string doc =
        jsonski::gen::generateLarge(jsonski::gen::DatasetId::TT, 1 << 20);
    ASSERT_GE(doc.size(), size_t{1} << 20);
    jsonski::path::PathQuery q = jsonski::path::parse("$..id");
    Streamer streamer(q);
    // Warm up once so one-time allocations don't count.
    {
        ViewSource warm(doc, kChunk);
        streamer.run(warm, nullptr, kChunk);
    }
    size_t base = jsonski::mem::current();
    jsonski::mem::resetPeak();
    ViewSource src(doc, kChunk);
    StreamResult r = streamer.run(src, nullptr, kChunk);
    size_t high_water = jsonski::mem::peak() - base;
    EXPECT_EQ(r.input_bytes, doc.size());
    EXPECT_LE(high_water, size_t{128} * 1024)
        << "heap high-water " << high_water
        << " bytes while streaming a " << doc.size() << "-byte document";
}

// ---------------------------------------------------------------------
// Records mode over a ChunkSource
// ---------------------------------------------------------------------

/** Collects what `$` returns: each record whole. */
class RecordSink : public jsonski::ski::MultiSink
{
  public:
    void
    onMatch(size_t, std::string_view value) override
    {
        records.emplace_back(value);
    }

    std::vector<std::string> records;
};

TEST(ChunkedCursorTest, RecordReaderOverSplitSource)
{
    jsonski::gen::SmallRecords small =
        jsonski::gen::generateSmall(jsonski::gen::DatasetId::BB, 1 << 16);
    ASSERT_GT(small.count(), 1u);
    SplitSource src(small.buffer, std::vector<size_t>{997, 3});
    RecordSink sink;
    jsonski::service::RunResult r =
        jsonski::service::compilePlan("$")->run(src, sink, 4096, true);
    ASSERT_EQ(sink.records.size(), small.count());
    for (size_t i = 0; i < small.count(); ++i)
        EXPECT_EQ(sink.records[i], small.record(i)) << "record " << i;
    EXPECT_EQ(r.records, small.count());
    EXPECT_EQ(r.input_bytes, small.buffer.size());
}

/** Counts matches without keeping them. */
class CountingSink : public jsonski::ski::MultiSink
{
  public:
    void onMatch(size_t, std::string_view) override { ++count; }

    size_t count = 0;
};

TEST(ChunkedCursorTest, RecordsModeResidencyStaysNearOneChunk)
{
    // A record stream is read on one cursor, so residency is the
    // document-mode bound: one block-rounded chunk plus slack, and a
    // heap high-water of a few chunks, never a buffer of records.
    constexpr size_t kChunk = 4096;
    jsonski::gen::SmallRecords small =
        jsonski::gen::generateSmall(jsonski::gen::DatasetId::TT, 1 << 20);
    auto plan = jsonski::service::compilePlan("$.en.urls[*].url");
    CountingSink sink;
    {
        ViewSource warm(small.buffer, kChunk);
        plan->run(warm, sink, kChunk, true);
    }
    size_t base = jsonski::mem::current();
    jsonski::mem::resetPeak();
    ViewSource src(small.buffer, kChunk);
    jsonski::service::RunResult r = plan->run(src, sink, kChunk, true);
    size_t high_water = jsonski::mem::peak() - base;
    EXPECT_EQ(r.records, small.count());
    EXPECT_EQ(r.input_bytes, small.buffer.size());
    EXPECT_LE(r.ingest.window_peak, 2 * kChunk);
    EXPECT_LE(high_water, size_t{16} * 1024)
        << "heap high-water " << high_water << " bytes over a "
        << small.buffer.size() << "-byte record stream";
}

} // namespace
