/**
 * @file
 * Set-differential test wall for one-pass multi-query batching: the
 * combined query engine must be observationally identical to N
 * independent Streamer::run passes — per-query values byte for byte,
 * per-query match counts, ErrorCode and error position — across query
 * sets with shared prefixes, disjoint prefixes, duplicates, and
 * filter/descendant divergent suffixes, at every chunk size in the
 * ladder and under every runnable SIMD kernel.  The batched pass must
 * also never ingest more bytes than the *slowest* solo pass (one
 * combined scan replaces N scans, it never adds input work — and it
 * inherits early-stop from the point where the last query dies).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "intervals/chunk_source.h"
#include "kernels/kernel.h"
#include "path/matches.h"
#include "path/parser.h"
#include "path/queryset.h"
#include "ski/multi.h"
#include "ski/streamer.h"
#include "testing/differential.h"
#include "util/error.h"

using namespace jsonski;

namespace {

/** Chunk ladder; 0 = whole-buffer run (no chunk source at all). */
const std::vector<size_t> kChunks = {0, 1, 7, 64, 4096};

/** One engine's observable outcome for one (doc, query/set, chunk). */
struct Outcome
{
    bool threw = false;
    ErrorCode code = ErrorCode::Unspecified;
    size_t pos = 0;
    std::vector<std::vector<std::string>> values; ///< per distinct id
    std::vector<size_t> matches;                  ///< per distinct id
    size_t input_bytes = 0;
};

Outcome
runSolo(const std::string& doc, const path::PathQuery& q, size_t chunk)
{
    Outcome out;
    out.values.resize(1);
    out.matches.resize(1, 0);
    path::CollectSink sink;
    ski::Streamer s(q);
    try {
        ski::StreamResult r;
        if (chunk == 0) {
            r = s.run(doc, &sink);
        } else {
            intervals::SplitSource src(doc, chunk);
            r = s.run(src, &sink, chunk);
        }
        out.matches[0] = r.matches;
        out.input_bytes = r.input_bytes;
    } catch (const ParseError& e) {
        out.threw = true;
        out.code = e.code();
        out.pos = e.position();
    }
    out.values[0] = std::move(sink.values);
    return out;
}

Outcome
runBatched(const std::string& doc, const ski::MultiStreamer& ms,
           size_t chunk)
{
    Outcome out;
    ski::MultiCollectSink sink(ms.queryCount());
    try {
        ski::MultiStreamer::Result r;
        if (chunk == 0) {
            r = ms.run(doc, &sink);
        } else {
            intervals::SplitSource src(doc, chunk);
            r = ms.run(src, &sink, chunk);
        }
        out.matches = std::move(r.matches);
        out.input_bytes = r.input_bytes;
    } catch (const ParseError& e) {
        out.threw = true;
        out.code = e.code();
        out.pos = e.position();
    }
    out.values = std::move(sink.values);
    return out;
}

/**
 * The wall's core assertion for one (doc, set, chunk): when every solo
 * pass succeeds, the batched pass must succeed with bit-identical
 * per-query values and counts and no extra input bytes; when every
 * solo pass fails with one agreed (code, pos), the batched pass must
 * fail with exactly that (code, pos).  Docs are crafted so one of the
 * two cases holds — mixed solo verdicts fail the test as a crafting
 * error rather than silently skipping.
 */
void
checkSet(const std::string& doc,
         const std::vector<std::string>& set_texts, size_t chunk,
         const std::string& label)
{
    SCOPED_TRACE(label + " chunk=" + std::to_string(chunk) +
                 " kernel=" + std::string(kernels::activeName()));
    ski::MultiStreamer ms(path::QuerySet::fromTexts(set_texts));
    Outcome batched = runBatched(doc, ms, chunk);

    std::vector<Outcome> solos;
    for (const path::PathQuery& q : ms.queries())
        solos.push_back(runSolo(doc, q, chunk));

    bool any_threw = false, all_threw = true;
    for (const Outcome& s : solos) {
        any_threw = any_threw || s.threw;
        all_threw = all_threw && s.threw;
    }
    if (!any_threw) {
        ASSERT_FALSE(batched.threw)
            << "batched threw " << errorCodeName(batched.code) << "@"
            << batched.pos << " where every solo pass succeeded";
        size_t max_solo_bytes = 0;
        for (size_t qi = 0; qi < solos.size(); ++qi) {
            EXPECT_EQ(batched.values[qi], solos[qi].values[0])
                << "query " << ms.querySet().canonical[qi];
            EXPECT_EQ(batched.matches[qi], solos[qi].matches[0])
                << "query " << ms.querySet().canonical[qi];
            max_solo_bytes =
                std::max(max_solo_bytes, solos[qi].input_bytes);
        }
        // One combined scan never adds input work: a solo pass stops
        // pulling chunks once its own query is exhausted, and the
        // batched pass stops once the *last* live query is — so its
        // ingestion is bounded by the slowest solo pass (and therefore
        // far under the sum of all N).
        EXPECT_LE(batched.input_bytes, max_solo_bytes);
    } else {
        ASSERT_TRUE(all_threw)
            << "crafting error: solo passes disagree on success";
        for (size_t qi = 1; qi < solos.size(); ++qi) {
            ASSERT_EQ(solos[qi].code, solos[0].code)
                << "crafting error: solo error codes disagree";
            ASSERT_EQ(solos[qi].pos, solos[0].pos)
                << "crafting error: solo error positions disagree";
        }
        EXPECT_TRUE(batched.threw)
            << "batched succeeded where every solo pass threw "
            << errorCodeName(solos[0].code) << "@" << solos[0].pos;
        if (batched.threw) {
            EXPECT_EQ(batched.code, solos[0].code);
            EXPECT_EQ(batched.pos, solos[0].pos);
        }
    }
}

/** A document exercising every query-set shape below. */
const std::string kDoc = R"({
  "user": {"id": 42, "name": "ada", "tags": ["x", "y", "z"]},
  "place": {"name": "Linz", "cc": "AT"},
  "stats": [10, 20, 30, 40, 50],
  "items": [{"a": 1, "b": "p"}, {"a": 2, "b": "q"},
            {"a": 1, "b": "r"}, {"c": true}],
  "deep": {"l1": {"id": 7, "l2": {"id": 8}}}
})";

struct NamedSet
{
    const char* name;
    std::vector<std::string> texts;
};

/** The four shape families of the issue, plus a combined stressor. */
std::vector<NamedSet>
querySets()
{
    return {
        {"shared-prefix",
         {"$.user.id", "$.user.name", "$.user.tags[*]",
          "$.user.tags[1]"}},
        {"disjoint",
         {"$.user.id", "$.place.name", "$.stats[1:4]", "$.deep.l1.id"}},
        {"duplicates",
         {"$.user.id", "$['user'].id", "$.user.id", "$.place.name"}},
        {"filter-mix",
         {"$.items[?(@.a==1)].b", "$.user.id", "$.items[*].b"}},
        {"descendant-mix", {"$..id", "$.user.name", "$.deep..id"}},
        {"combined",
         {"$.items[?(@.a==1)]", "$..id", "$.user.id", "$['user'].id",
          "$.stats[0]"}},
    };
}

} // namespace

TEST(QuerySetDifferential, ShapesTimesChunksTimesKernels)
{
    for (const kernels::Kernel* kern : kernels::runnable()) {
        kernels::Override guard(*kern);
        for (const NamedSet& set : querySets())
            for (size_t chunk : kChunks)
                checkSet(kDoc, set.texts, chunk, set.name);
    }
}

TEST(QuerySetDifferential, GeneratorCorpusAgrees)
{
    // Every generator-dataset document from the fuzz corpus, against
    // query sets drawn from the default mix (shared prefixes arise
    // naturally: the Table 5 shapes overlap on their first steps).
    std::vector<std::string> queries = jsonski::testing::defaultQueries();
    std::vector<std::string> corpus = jsonski::testing::defaultCorpus(2048);
    for (const std::string& doc : corpus) {
        for (size_t i = 0; i + 3 <= queries.size(); i += 3) {
            std::vector<std::string> set(queries.begin() + i,
                                         queries.begin() + i + 3);
            set.push_back(set.front()); // salt with a duplicate
            for (size_t chunk : {size_t{0}, size_t{7}, size_t{4096}})
                checkSet(doc, set, chunk,
                         "corpus set@" + std::to_string(i));
        }
    }
}

TEST(QuerySetDifferential, MalformedDocsAgreeOnErrorDetail)
{
    // Crafted so every solo pass detects the same damage at the same
    // byte: damage at the top level, before or after the region any
    // query descends into, is seen identically by all of them.
    struct Bad
    {
        const char* doc;
        std::vector<std::string> set;
    };
    const std::vector<Bad> bads = {
        // Value missing at the first attribute: nobody gets past it.
        {R"({"user" 1, "place": 2})", {"$.user.id", "$.place.name"}},
        // Stray byte before the root value: no engine can match a
        // non-container root, and the prefix-scan license means every
        // solo pass (and the batched pass) succeeds with zero matches
        // without reading past it — agreement on the success side.
        {R"(x{"a": 1})", {"$.a", "$.b", "$..a"}},
        // Unbalanced close where a value should start.
        {R"({"a": }, "b": 1})", {"$.a", "$.b"}},
        // Truncated inside the shared prefix, mid-key: both queries
        // are on the identical attribute scan when the bytes run out
        // (truncating *after* one query's last match would be seen
        // through that query's object-exit fast-forward instead, a
        // different detection path with a different error code).
        {R"({"user": {"id)", {"$.user.id", "$.user.name"}},
        // Truncated where an array element must start: every query
        // wants the element, so every pass runs off the end there.
        {R"([1,)", {"$[*]", "$[1:9]"}},
        {R"({"a":[1,)", {"$.a[*]", "$.a[1:9]"}},
        {R"({"a": [{"b": 1}, )", {"$.a[*]", "$.a[1:9]"}},
    };
    for (const Bad& b : bads)
        for (size_t chunk : kChunks)
            checkSet(b.doc, b.set, chunk, "malformed");
}

TEST(QuerySetDifferential, SharedPrefixesCompileToSharedTrieNodes)
{
    // Four queries under $.user share the root and the `user` node:
    // strictly fewer trie nodes than the same count of disjoint
    // queries, and no divergent suffixes for plain sets.
    ski::MultiStreamer shared(path::QuerySet::fromTexts(
        {"$.user.id", "$.user.name", "$.user.tags[*]", "$.user.cc"}));
    ski::MultiStreamer disjoint(path::QuerySet::fromTexts(
        {"$.a.b", "$.c.d", "$.e.f", "$.g.h"}));
    EXPECT_EQ(shared.queryCount(), disjoint.queryCount());
    EXPECT_LT(shared.trieNodes(), disjoint.trieNodes());
    EXPECT_EQ(shared.suffixCount(), 0u);
    EXPECT_EQ(disjoint.suffixCount(), 0u);

    // Filter and descendant steps divert to per-query suffixes; the
    // plain prefix stays shared.
    ski::MultiStreamer mixed(path::QuerySet::fromTexts(
        {"$.user.items[?(@.a==1)]", "$.user..id", "$.user.name"}));
    EXPECT_EQ(mixed.suffixCount(), 2u);
}

TEST(QuerySetDifferential, DuplicateQueriesEmitOneFrameStream)
{
    // Regression for the duplicate double-emit bug: a set listing one
    // query three times (under different spellings) must produce ONE
    // distinct stream whose values equal the solo run — not three
    // copies, not duplicated frames.
    ski::MultiStreamer ms(path::QuerySet::fromTexts(
        {"$.user.id", "$['user'].id", "$.user.id"}));
    ASSERT_EQ(ms.queryCount(), 1u);
    EXPECT_EQ(ms.querySet().id_of, (std::vector<size_t>{0, 0, 0}));
    ski::MultiCollectSink sink(1);
    auto r = ms.run(kDoc, &sink);
    EXPECT_EQ(r.matches, (std::vector<size_t>{1}));
    EXPECT_EQ(sink.values[0], (std::vector<std::string>{"42"}));
}

TEST(QuerySetDifferential, PerQueryStatsAttributeSuffixWork)
{
    // Suffix replay work lands in per_query[qi]; trie-resident queries
    // report zero (their skips are shared, in the whole-pass stats).
    ski::MultiStreamer ms(path::QuerySet::fromTexts(
        {"$.items[?(@.a==1)].b", "$.user.id"}));
    auto r = ms.run(kDoc);
    ASSERT_EQ(r.per_query.size(), 2u);
    size_t filter_id = SIZE_MAX, plain_id = SIZE_MAX;
    for (size_t qi = 0; qi < ms.queryCount(); ++qi) {
        if (ms.querySet().canonical[qi] == "$.user.id")
            plain_id = qi;
        else
            filter_id = qi;
    }
    ASSERT_NE(filter_id, SIZE_MAX);
    ASSERT_NE(plain_id, SIZE_MAX);
    EXPECT_EQ(r.per_query[plain_id].total(), 0u);
    EXPECT_GT(r.per_query[filter_id].total(), 0u);
    // Whole-pass stats include the replay work.
    EXPECT_GE(r.stats.total(), r.per_query[filter_id].total());
}
