/**
 * @file
 * Warm-path equivalence: Streamer::runIndexed with a semi-index built
 * from the document must be *observationally identical* to plain
 * Streamer::run — same match values byte for byte, same match counts,
 * and on malformed input the same ErrorCode at the same position —
 * across the differential corpus, the default query mix, a ladder of
 * chunk sizes, and every runnable SIMD kernel.  (FastForwardStats may
 * differ: the index changes how bytes are skipped, not what matches.)
 *
 * Invalidation contract: an index that no longer describes the
 * document (edited or truncated bytes) is detected by describes() and
 * the caller streams — with results identical to never having had an
 * index; a deliberately foreign index fails closed with
 * ErrorCode::IndexMismatch, never with silently wrong output.
 */
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "index/structural_index.h"
#include "intervals/chunk_source.h"
#include "kernels/kernel.h"
#include "path/matches.h"
#include "path/parser.h"
#include "ski/streamer.h"
#include "testing/differential.h"
#include "testing/mutator.h"
#include "util/error.h"

using jsonski::ErrorCode;
using jsonski::errorCodeName;
using jsonski::ParseError;
using jsonski::index::StructuralIndex;
using jsonski::path::CollectSink;
using jsonski::ski::Streamer;
using jsonski::testing::defaultCorpus;
using jsonski::testing::defaultQueries;
using jsonski::testing::StructuredMutator;
namespace path = jsonski::path;
namespace ski = jsonski::ski;
namespace kernels = jsonski::kernels;
namespace intervals = jsonski::intervals;

namespace {

/** Everything observable from one pass. */
struct Observed
{
    bool threw = false;
    ErrorCode code = ErrorCode::Unspecified;
    size_t position = 0;
    size_t matches = 0;
    std::vector<std::string> values;

    bool
    operator==(const Observed& o) const
    {
        return threw == o.threw && code == o.code &&
               position == o.position && matches == o.matches &&
               values == o.values;
    }
};

Observed
observe(const std::function<ski::StreamResult(CollectSink*)>& pass)
{
    Observed out;
    CollectSink sink;
    try {
        ski::StreamResult r = pass(&sink);
        out.matches = r.matches;
    } catch (const ParseError& e) {
        out.threw = true;
        out.code = e.code();
        out.position = e.position();
    }
    out.values = std::move(sink.values);
    return out;
}

Observed
runPlain(const std::string& doc, const path::PathQuery& q)
{
    Streamer s(q);
    return observe([&](CollectSink* sink) { return s.run(doc, sink); });
}

Observed
runWarm(const std::string& doc, const path::PathQuery& q,
        const StructuralIndex& ix)
{
    Streamer s(q);
    return observe(
        [&](CollectSink* sink) { return s.runIndexed(doc, ix, sink); });
}

Observed
runWarmChunked(const std::string& doc, const path::PathQuery& q,
               const StructuralIndex& ix, size_t chunk_bytes)
{
    Streamer s(q);
    return observe([&](CollectSink* sink) {
        intervals::ViewSource src(doc);
        return s.runIndexed(src, ix, sink, chunk_bytes);
    });
}

std::string
describe(const Observed& o)
{
    if (o.threw)
        return std::string("throw ") + std::string(errorCodeName(o.code)) +
               "@" + std::to_string(o.position);
    return std::to_string(o.matches) + " matches";
}

const std::vector<size_t> kChunkings = {1, 7, 64, 4096};

} // namespace

TEST(IndexedDifferential, WarmEqualsStreamingAcrossCorpusAndChunkings)
{
    std::vector<std::string> corpus = defaultCorpus();
    std::vector<std::string> query_texts = defaultQueries();
    std::vector<path::PathQuery> queries;
    for (const std::string& t : query_texts)
        queries.push_back(path::parse(t));

    size_t compared = 0;
    for (const std::string& doc : corpus) {
        StructuralIndex ix = StructuralIndex::build(doc);
        ASSERT_TRUE(ix.describes(doc));
        EXPECT_TRUE(ix.usable()) << doc.substr(0, 80);
        for (size_t qi = 0; qi < queries.size(); ++qi) {
            Observed cold = runPlain(doc, queries[qi]);
            Observed warm = runWarm(doc, queries[qi], ix);
            EXPECT_TRUE(cold == warm)
                << "query=" << query_texts[qi] << " cold "
                << describe(cold) << " warm " << describe(warm)
                << " doc: " << doc.substr(0, 120);
            for (size_t chunk : kChunkings) {
                Observed wc = runWarmChunked(doc, queries[qi], ix, chunk);
                EXPECT_TRUE(cold == wc)
                    << "query=" << query_texts[qi] << " chunk=" << chunk
                    << " cold " << describe(cold) << " warm "
                    << describe(wc) << " doc: " << doc.substr(0, 120);
                ++compared;
            }
            ++compared;
        }
    }
    EXPECT_GT(compared, 0u);
}

TEST(IndexedDifferential, WarmEqualsStreamingUnderEveryKernel)
{
    std::vector<std::string> corpus = defaultCorpus();
    std::vector<std::string> query_texts = defaultQueries();
    std::vector<path::PathQuery> queries;
    for (const std::string& t : query_texts)
        queries.push_back(path::parse(t));

    for (const kernels::Kernel* kern : kernels::runnable()) {
        kernels::Override guard(*kern);
        for (size_t di = 0; di < corpus.size(); ++di) {
            const std::string& doc = corpus[di];
            StructuralIndex ix = StructuralIndex::build(doc);
            // Rotate queries so the sweep stays fast but every query
            // runs under every kernel across the corpus.
            size_t qi = di % queries.size();
            Observed cold = runPlain(doc, queries[qi]);
            Observed warm = runWarm(doc, queries[qi], ix);
            Observed chunked =
                runWarmChunked(doc, queries[qi], ix, 64);
            EXPECT_TRUE(cold == warm)
                << "kernel=" << kern->name
                << " query=" << query_texts[qi] << " cold "
                << describe(cold) << " warm " << describe(warm);
            EXPECT_TRUE(cold == chunked)
                << "kernel=" << kern->name
                << " query=" << query_texts[qi] << " chunked";
        }
    }
}

TEST(IndexedDifferential, MutantSweepWarmMatchesStreaming)
{
    // Structured mutants include structurally-clean-but-invalid
    // documents — the warm path must reproduce streaming's error
    // behaviour (same ErrorCode, same position) on those too, and the
    // builder must mark truly unclean ones unusable (fallback).
    std::vector<std::string> corpus = defaultCorpus();
    std::vector<std::string> query_texts = defaultQueries();
    std::vector<path::PathQuery> queries;
    for (const std::string& t : query_texts)
        queries.push_back(path::parse(t));

    StructuredMutator mutator(/*seed=*/42);
    size_t warm_runs = 0;
    for (size_t iter = 0; iter < 400; ++iter) {
        const std::string& seed_doc =
            corpus[mutator.rng().below(corpus.size())];
        std::string mutant = mutator.mutate(seed_doc, nullptr);
        StructuralIndex ix = StructuralIndex::build(mutant);
        ASSERT_TRUE(ix.describes(mutant));
        size_t qi = iter % queries.size();
        Observed cold = runPlain(mutant, queries[qi]);
        Observed warm = runWarm(mutant, queries[qi], ix);
        EXPECT_TRUE(cold == warm)
            << "iter=" << iter << " usable=" << ix.usable()
            << " query=" << query_texts[qi] << " cold " << describe(cold)
            << " warm " << describe(warm)
            << " json: " << mutant.substr(0, 160);
        Observed chunked = runWarmChunked(mutant, queries[qi], ix, 7);
        EXPECT_TRUE(cold == chunked)
            << "iter=" << iter << " chunked divergence query="
            << query_texts[qi];
        if (ix.usable())
            ++warm_runs;
    }
    // The sweep must actually exercise the warm path, not just the
    // unusable-index fallback.
    EXPECT_GT(warm_runs, 50u);
}

TEST(IndexedDifferential, StaleIndexIsDetectedAndStreamingFallsBack)
{
    std::string doc =
        R"({"cp": [{"id": 1}, {"id": 2}, {"id": 3}], "nm": "x"})";
    StructuralIndex ix = StructuralIndex::build(doc);
    ASSERT_TRUE(ix.usable());

    // Edited document (same length): the identity check must refuse.
    std::string edited = doc;
    edited[edited.find('1')] = '9';
    EXPECT_FALSE(ix.describes(edited));

    // Truncated document: refused too.
    EXPECT_FALSE(ix.describes(std::string_view(doc).substr(
        0, doc.size() - 1)));

    // The caller contract: on a describes() failure, stream.  Results
    // must be identical to never having had an index at all.
    path::PathQuery q = path::parse("$.cp[*].id");
    Observed fresh = runPlain(edited, q);
    StructuralIndex rebuilt = StructuralIndex::build(edited);
    Observed warm = runWarm(edited, q, rebuilt);
    EXPECT_TRUE(fresh == warm);
    EXPECT_EQ(fresh.matches, 3u);
}

TEST(IndexedDifferential, ForeignIndexFailsClosed)
{
    // Same shape, different layout: positions disagree.  The warm path
    // must throw IndexMismatch (or happen to agree byte-for-byte),
    // never return silently wrong values.
    std::string doc =
        R"({"aa": [1, 2, 3, 4, 5, 6, 7], "bb": {"cc": 1}})";
    std::string other =
        R"({"aa": [{"x": [0]}, 2], "bb": {"cc": 2222222}})";
    ASSERT_EQ(doc.size(), other.size());
    StructuralIndex foreign = StructuralIndex::build(other);
    ASSERT_TRUE(foreign.usable());
    path::PathQuery q = path::parse("$.bb.cc");
    Observed honest = runPlain(doc, q);
    Streamer s(q);
    try {
        CollectSink sink;
        s.runIndexed(doc, foreign, &sink);
        // Accidental agreement is acceptable only if fully identical.
        EXPECT_EQ(sink.values, honest.values);
    } catch (const ParseError& e) {
        EXPECT_EQ(e.code(), ErrorCode::IndexMismatch);
        EXPECT_LE(e.position(), doc.size());
    }
}

TEST(IndexedDifferential, InvalidButCleanDocumentRepaysPlainOnMismatch)
{
    // Fuzz-found (50k soak, iter 19320): a backslash spliced in front
    // of a string's closing quote keeps the string open through what
    // used to be structure, so the document is grammatically invalid
    // yet structurally clean — quotes, braces, and brackets still
    // balance, usable() stays true.  Lenient streaming skips over the
    // junk and succeeds with 0 matches; the warm path's depth tracking
    // desynchronizes from the classifier's, trips the defensive
    // byte-verify, and must *replay plain* (identical outcome), not
    // surface IndexMismatch where streaming soldiered on.
    const std::string doc =
        R"({"created_at":"2003-09-11T13:31:42Z","id":900000000000,)"
        R"("text":"product vector summer student river student evening coffee engin\",)"
        R"("user":{"id":8045x94,"name":"Bbmmpjk","screen_name":"kwtzawl",)"
        R"("followers_count":39493,"friends_count":3245,)"
        R"("description":"array bitmap product travel query stream",)"
        R"("verified":false},1en":{"hashtags":[{"text":"lnnykfq",)"
        R"("indices":[90,98]}],"urls":[],"user_mentions":[]},)"
        R"("coordinates":null,"place":{"name":"Fnuqrjzpx","country":"Vnxeqkgc",)"
        R"("bounding_box":{"type":"Polygon","pos":[[[114.841795,-40.420884],)"
        R"([173.24938,89.942375],[14.134515,-18.316721],)"
        R"([117.541925,-86.786759]]]}},"rtc":419,"lang":"es"})";
    StructuralIndex ix = StructuralIndex::build(doc);
    ASSERT_TRUE(ix.usable());
    for (const char* qt : {"$.nm", "$.rtc", "$.place.name", "$[*]"}) {
        path::PathQuery q = path::parse(qt);
        Observed plain = runPlain(doc, q);
        Observed warm = runWarm(doc, q, ix);
        EXPECT_TRUE(plain == warm)
            << qt << ": plain " << describe(plain) << " vs warm "
            << describe(warm);
        // The chunked warm path cannot replay a forward-only source;
        // it may fail closed with IndexMismatch, but must never
        // produce a *different* answer silently.
        for (size_t chunk : kChunkings) {
            Observed cw = runWarmChunked(doc, q, ix, chunk);
            EXPECT_TRUE(cw == plain ||
                        (cw.threw && cw.code == ErrorCode::IndexMismatch))
                << qt << " chunk=" << chunk << ": plain "
                << describe(plain) << " vs chunked-warm " << describe(cw);
        }
    }
}
