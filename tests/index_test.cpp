/**
 * @file
 * Tests for the cached structural semi-index (src/index/): builder
 * level semantics, content hashing, and the byte-bounded
 * DocumentIndexCache.
 */
#include "index/structural_index.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "index/index_cache.h"
#include "intervals/chunk_source.h"
#include "util/bits.h"

using namespace jsonski;
using index::ContentHasher;
using index::DocumentIndexCache;
using index::hashContent;
using index::IndexBuilder;
using index::StructuralIndex;

namespace {

/** All set positions answered by repeated nextClose-style queries. */
std::vector<size_t>
closers(const StructuralIndex& ix, size_t level)
{
    std::vector<size_t> out;
    size_t from = 0;
    for (;;) {
        size_t p = ix.nextClose(level, from);
        if (p == StructuralIndex::kNone)
            return out;
        out.push_back(p);
        from = p + 1;
    }
}

} // namespace

TEST(ContentHash, IndependentOfFeedGranularity)
{
    std::string doc = R"({"a": [1, 2, 3], "b": "x\"y"})";
    uint64_t whole = hashContent(doc);
    for (size_t stride : {1u, 3u, 7u, 8u, 13u, 64u}) {
        ContentHasher h;
        for (size_t i = 0; i < doc.size(); i += stride)
            h.update(doc.data() + i, std::min(stride, doc.size() - i));
        EXPECT_EQ(h.finish(), whole) << "stride " << stride;
    }
}

TEST(ContentHash, LengthFolded)
{
    // Same words, different lengths must differ (trailing zero bytes
    // must not collide with their absence).
    std::string a(8, '\0');
    std::string b(16, '\0');
    EXPECT_NE(hashContent(a), hashContent(b));
    EXPECT_NE(hashContent(""), hashContent(std::string(1, '\0')));
}

TEST(StructuralIndexBuild, LevelConvention)
{
    //                  0123456789012345678
    std::string doc = R"({"a":{"b":1},"c":2})";
    StructuralIndex ix = StructuralIndex::build(doc);
    ASSERT_TRUE(ix.usable());
    EXPECT_EQ(ix.docSize(), doc.size());
    EXPECT_EQ(ix.maxDepth(), 2u);
    // Root object closer at level 0; inner at level 1.
    EXPECT_EQ(closers(ix, 0), (std::vector<size_t>{18}));
    EXPECT_EQ(closers(ix, 1), (std::vector<size_t>{11}));
    // Root comma between the two attributes.
    EXPECT_EQ(ix.countCommas(0, 0, doc.size()), 1u);
    EXPECT_EQ(ix.selectComma(0, 0, doc.size(), 1), 12u);
    EXPECT_EQ(ix.countCommas(1, 0, doc.size()), 0u);
}

TEST(StructuralIndexBuild, StringsAreMasked)
{
    std::string doc = R"({"k": "}],:,{", "m": [1,2]})";
    StructuralIndex ix = StructuralIndex::build(doc);
    ASSERT_TRUE(ix.usable());
    EXPECT_EQ(closers(ix, 0).size(), 1u); // only the real root '}'
    // The only level-0 comma is the attribute separator.
    EXPECT_EQ(ix.countCommas(0, 0, doc.size()), 1u);
    EXPECT_EQ(ix.countCommas(1, 0, doc.size()), 1u); // inside [1,2]
}

TEST(StructuralIndexBuild, NextOpenOrCloseSeesChildOpeners)
{
    std::string doc = R"([1, 2, {"a": 3}, 4])";
    StructuralIndex ix = StructuralIndex::build(doc);
    ASSERT_TRUE(ix.usable());
    // First opener-or-closer at level 0 after the '[' is the child '{'.
    EXPECT_EQ(ix.nextOpenOrClose(0, 1), 7u);
    // After the child object: the root ']'.
    EXPECT_EQ(ix.nextOpenOrClose(0, 15), 18u);
}

TEST(StructuralIndexBuild, EntryCarriesResumeInsideStrings)
{
    // A string spanning the first block boundary: block 1 starts
    // in-string, and the index must know it.
    std::string doc = "{\"k\": \"" + std::string(80, 'x') + "\", \"m\": 1}";
    StructuralIndex ix = StructuralIndex::build(doc);
    ASSERT_TRUE(ix.usable());
    intervals::ClassifierCarry c0 = ix.carryFor(0);
    EXPECT_EQ(c0.prev_in_string, 0u);
    EXPECT_EQ(c0.prev_escaped, 0u);
    intervals::ClassifierCarry c1 = ix.carryFor(1);
    EXPECT_EQ(c1.prev_in_string, ~uint64_t{0});
}

TEST(StructuralIndexBuild, UnusableOnStructuralDamage)
{
    for (const char* doc : {
             R"({"a": 1)",        // unbalanced
             R"({"a": 1]})",      // type-mismatched closer
             R"(}{)",             // underflow
             R"({"a": "unterm)",  // in-string at EOF
             R"([1, 2]])",        // trailing closer underflows
         }) {
        StructuralIndex ix = StructuralIndex::build(doc);
        EXPECT_FALSE(ix.usable()) << doc;
        EXPECT_EQ(ix.levels(), 0u) << doc;
        // Identity metadata survives so unusable indexes are cacheable.
        EXPECT_TRUE(ix.describes(doc)) << doc;
    }
}

TEST(StructuralIndexBuild, DeepDocsIndexOnlyTheTopLevels)
{
    std::string doc;
    for (int i = 0; i < 30; ++i)
        doc += "[";
    doc += "1";
    for (int i = 0; i < 30; ++i)
        doc += "]";
    StructuralIndex ix = StructuralIndex::build(doc, /*max_levels=*/4);
    ASSERT_TRUE(ix.usable());
    EXPECT_EQ(ix.levels(), 4u);
    EXPECT_EQ(ix.maxDepth(), 30u);
    EXPECT_EQ(closers(ix, 3).size(), 1u);
}

TEST(StructuralIndexBuild, ChunkedBuildEqualsResident)
{
    std::string doc = R"({"a": [1, 2, {"b": "x,y"}], "c": {"d": []}})";
    StructuralIndex whole = StructuralIndex::build(doc);
    for (size_t chunk : {1u, 7u, 64u, 4096u}) {
        intervals::ViewSource src(doc);
        StructuralIndex chunked =
            StructuralIndex::build(src, StructuralIndex::kDefaultLevels,
                                   chunk);
        // Level bitmaps, entry carries, and identity, compared directly.
        EXPECT_TRUE(chunked == whole) << "chunk " << chunk;
    }
}

TEST(StructuralIndexBuild, DescribesChecksHashAndSize)
{
    std::string doc = R"({"a": 1})";
    StructuralIndex ix = StructuralIndex::build(doc);
    EXPECT_TRUE(ix.describes(doc));
    EXPECT_FALSE(ix.describes(R"({"a": 2})")); // same size, edited
    EXPECT_FALSE(ix.describes(R"({"a": 1} )")); // different size
}

TEST(DocumentIndexCache, MissThenHit)
{
    DocumentIndexCache cache;
    std::string doc = R"({"a": 1})";
    bool hit = true;
    auto first = cache.get(doc, &hit);
    EXPECT_FALSE(hit);
    auto second = cache.get(doc, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(first.get(), second.get()); // same resident index
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_GT(cache.bytes(), 0u);
}

TEST(DocumentIndexCache, IdenticalBytesShareOneEntry)
{
    DocumentIndexCache cache;
    std::string a = R"({"a": 1})";
    std::string b = a; // distinct buffer, same content
    cache.get(a);
    bool hit = false;
    cache.get(b, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(cache.entries(), 1u);
}

TEST(DocumentIndexCache, UnusableIndexesAreCachedToo)
{
    DocumentIndexCache cache;
    std::string doc = R"({"broken": )";
    auto ix = cache.get(doc);
    EXPECT_FALSE(ix->usable());
    bool hit = false;
    cache.get(doc, &hit);
    EXPECT_TRUE(hit); // negative knowledge: no rebuild per query
}

TEST(DocumentIndexCache, ByteCapacityEvicts)
{
    // Tiny capacity: every shard holds at most one small index.
    DocumentIndexCache cache(/*capacity_bytes=*/1);
    for (int i = 0; i < 64; ++i) {
        std::string doc =
            "{\"k" + std::to_string(i) + "\": [" +
            std::string(static_cast<size_t>(200), '1') + "]}";
        cache.get(doc);
    }
    EXPECT_GT(cache.evictions(), 0u);
    EXPECT_LE(cache.entries(), 8u); // one survivor per shard at most
}

TEST(DocumentIndexCache, ConcurrentFirstAccessBuildsOnce)
{
    DocumentIndexCache cache;
    std::string doc = R"({"a": [1, 2, 3], "b": {"c": 4}})";
    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&] { cache.get(doc); });
    for (auto& th : threads)
        th.join();
    // The build runs under the shard lock: racing first queries must
    // produce exactly one miss, everyone else hits.
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), static_cast<uint64_t>(kThreads - 1));
}
