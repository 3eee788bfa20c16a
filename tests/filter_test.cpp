/**
 * @file
 * Filter-predicate evaluation tests (DESIGN.md §13): the streamer's
 * lazy verdict protocol (G1 to the candidate, probe the predicate
 * field, then G3-emit or G2-skip the rest) against the DOM oracle,
 * across the operator x literal matrix, candidate shapes, chunk seams
 * forced inside predicate-relevant values, and a seeded random
 * differential.  The selectivity test pins the acceptance criterion
 * that non-matching candidates are G2-skipped, not parsed.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baseline/dom/query.h"
#include "path/matches.h"
#include "path/parser.h"
#include "ski/multi.h"
#include "ski/streamer.h"
#include "testing/seam.h"
#include "util/error.h"
#include "util/rng.h"

using namespace jsonski;
using jsonski::ski::Group;
// gtest also owns a ::testing namespace; alias ours unambiguously.
namespace jt = jsonski::testing;

namespace {

std::vector<std::string>
runSki(const std::string& query, const std::string& doc,
       ski::StreamResult* result = nullptr)
{
    path::CollectSink sink;
    ski::Streamer streamer(path::parse(query));
    ski::StreamResult r = streamer.run(doc, &sink);
    if (result != nullptr)
        *result = r;
    return sink.values;
}

std::vector<std::string>
runDom(const std::string& query, const std::string& doc)
{
    path::CollectSink sink;
    dom::parseAndQuery(doc, path::parse(query), &sink);
    return sink.values;
}

/** Both engines, which must agree; returns the agreed values. */
std::vector<std::string>
runBoth(const std::string& query, const std::string& doc)
{
    std::vector<std::string> ski_values = runSki(query, doc);
    EXPECT_EQ(ski_values, runDom(query, doc)) << query << " on " << doc;
    return ski_values;
}

} // namespace

TEST(Filter, OperatorByLiteralMatrixAgreesWithDom)
{
    // Candidates cover every scalar kind plus containers; each query
    // in the matrix must produce identical results from the streamer
    // and the DOM oracle — including the empty result.
    const std::string doc = R"([
        {"v": 1,      "id": "n1"},
        {"v": 10,     "id": "n10"},
        {"v": -2.5,   "id": "nneg"},
        {"v": "abc",  "id": "sabc"},
        {"v": "abd",  "id": "sabd"},
        {"v": true,   "id": "bt"},
        {"v": false,  "id": "bf"},
        {"v": null,   "id": "z"},
        {"v": {"w": 1}, "id": "obj"},
        {"v": [1, 2],   "id": "arr"},
        {"id": "missing"}
    ])";
    const char* ops[] = {"==", "!=", "<", "<=", ">", ">="};
    const char* literals[] = {"1",    "10.0", "-2.5", "'abc'",
                              "true", "false", "null"};
    size_t nonempty = 0;
    for (const char* op : ops) {
        for (const char* lit : literals) {
            std::string q = std::string("$[?(@.v") + op + lit + ")].id";
            nonempty += !runBoth(q, doc).empty();
        }
    }
    EXPECT_NO_THROW((void)runBoth("$[?(@.v)].id", doc)); // existence
    // The matrix must actually select things, not vacuously agree.
    EXPECT_GT(nonempty, 20u);

    // Spot-check semantics, not just agreement.
    EXPECT_EQ(runBoth("$[?(@.v==1)].id", doc),
              std::vector<std::string>{"\"n1\""});
    EXPECT_EQ(runBoth("$[?(@.v<'abd')].id", doc),
              std::vector<std::string>{"\"sabc\""});
    EXPECT_EQ(runBoth("$[?(@.v==null)].id", doc),
              std::vector<std::string>{"\"z\""});
    // != means present-and-not-equal: missing fields never match, but
    // containers (comparable to nothing) do.
    EXPECT_EQ(runBoth("$[?(@.v!=1)].id", doc).size(), 9u);
}

TEST(Filter, FieldPositionWithinCandidateIsIrrelevant)
{
    // The predicate field before, between, and after other keys — the
    // probe scan must find it wherever it sits, and G2-skip the rest.
    const std::string doc = R"([
        {"k": 5, "pad1": "xxxx", "pad2": [1, {"k": 99}]},
        {"pad1": {"k": 99}, "k": 5, "pad2": "yyyy"},
        {"pad1": 1, "pad2": 2, "k": 5}
    ])";
    EXPECT_EQ(runBoth("$[?(@.k==5)]", doc).size(), 3u);
    // Nested occurrences of the field name must not leak into the
    // verdict: only top-level attributes of the candidate count.
    EXPECT_TRUE(runBoth("$[?(@.k==99)]", doc).empty());
}

TEST(Filter, MissingFieldAndNonScalarComparand)
{
    const std::string doc = R"([
        {"a": 1}, {"b": 2}, {"a": {"x": 1}}, {"a": [3]}, 7, "s", null
    ])";
    // Existence: present whatever the value's type; non-object array
    // elements are never candidates.
    EXPECT_EQ(runBoth("$[?(@.a)]", doc).size(), 3u);
    // Ordering against a container is Incomparable -> no match; the
    // DOM oracle must agree on every operator.
    for (const char* op : {"==", "!=", "<", "<=", ">", ">="}) {
        std::string q = std::string("$[?(@.a") + op + "1)]";
        (void)runBoth(q, doc);
    }
    EXPECT_TRUE(runBoth("$[?(@.zz==1)]", doc).empty());
}

TEST(Filter, DescendantFilterCombinations)
{
    const std::string doc = R"({
        "a": [{"b": 1, "c": {"d": "x"}}, {"b": 9, "c": {"d": "y"}}],
        "n": {"a": [{"b": 4, "c": {"d": "z"}}, {"c": {"d": "w"}}]}
    })";
    // Interior descendant feeding a filter.
    EXPECT_EQ(runBoth("$..a[?(@.b>3)].c.d", doc),
              (std::vector<std::string>{"\"y\"", "\"z\""}));
    // Filter output feeding another descendant (NFA path).
    EXPECT_EQ(runBoth("$..a[?(@.b)]..d", doc),
              (std::vector<std::string>{"\"x\"", "\"y\"", "\"z\""}));
    // Chained filters.
    EXPECT_EQ(runBoth("$.a[?(@.b>=1)].c", doc).size(), 2u);
    // Existence filter over everything the descendant finds.
    (void)runBoth("$..c[?(@.d=='x')]", doc);
}

TEST(Filter, SeamsInsidePredicateValues)
{
    // Chunk seams forced *inside* the values the predicate compares:
    // mid-number, mid-string, and straddling the candidate's closing
    // brace.  Chunked evaluation must equal whole-buffer evaluation in
    // values, errors, and skip accounting at every ladder rung.
    const std::string doc =
        R"([{"v": 123456, "id": 1}, {"v": "alpha beta", "id": 2},)"
        R"( {"v": 123457, "id": 3}, {"w": 5, "id": 4}])";
    const std::vector<std::string> queries = {
        "$[?(@.v==123456)].id",
        "$[?(@.v>123456)].id",
        "$[?(@.v=='alpha beta')].id",
        "$[?(@.v)].id",
        "$[?(@.v!='alpha beta')].id",
    };
    for (const std::string& qtext : queries) {
        path::PathQuery q = path::parse(qtext);
        jt::SeamRun whole = jt::runStreamerWhole(doc, q);
        ASSERT_FALSE(whole.threw_parse_error) << qtext;
        // Seams at every byte of the first candidate's value span plus
        // the chunk ladder: {1, 7, 64} byte refills, and one forced
        // seam at each offset inside "123456" / "alpha beta".
        for (size_t seam = 7; seam < 24; ++seam) {
            for (size_t chunk : {size_t{1}, size_t{7}, size_t{64}}) {
                jt::SeamRun chunked = jt::runStreamerChunked(
                    doc, q, {seam, doc.size() + 1}, chunk);
                EXPECT_FALSE(chunked.threw_parse_error)
                    << qtext << " seam=" << seam << " chunk=" << chunk;
                EXPECT_EQ(chunked.values, whole.values)
                    << qtext << " seam=" << seam << " chunk=" << chunk;
                EXPECT_EQ(chunked.stats.skipped, whole.stats.skipped)
                    << qtext << " seam=" << seam << " chunk=" << chunk;
            }
        }
    }
}

TEST(Filter, SelectivityShowsUpAsG2VersusG3)
{
    // Acceptance criterion: failed candidates are G2-skipped (their
    // remainder is fast-forwarded, not parsed), passing candidates are
    // G3-emitted.  Padding makes the skipped bytes unmistakable.
    std::string doc = "[";
    for (int i = 0; i < 200; ++i) {
        if (i != 0)
            doc += ",";
        doc += R"({"sel": )" + std::to_string(i % 100) +
               R"(, "pad": "................................"})";
    }
    doc += "]";

    ski::StreamResult rare, common;
    size_t n_rare = runSki("$[?(@.sel==0)]", doc, &rare).size();
    size_t n_common = runSki("$[?(@.sel>=10)]", doc, &common).size();
    EXPECT_EQ(n_rare, 2u);
    EXPECT_EQ(n_common, 180u);

    // Low selectivity: most candidate bytes are G2 (skipped after a
    // failed verdict).  High selectivity flips the balance to G3.
    EXPECT_GT(rare.stats.get(Group::G2), rare.stats.get(Group::G3));
    EXPECT_GT(common.stats.get(Group::G3), common.stats.get(Group::G2));
    // And the G2 volume must scale with the number of rejected
    // candidates, not be a fixed overhead.
    EXPECT_GT(rare.stats.get(Group::G2),
              common.stats.get(Group::G2) * 2);
}

TEST(Filter, RandomDifferentialSkiVsDom)
{
    // Seeded random documents x a pool of filter queries; the streamer
    // and the DOM oracle must agree on every pair.
    Rng rng(246813);
    const std::vector<std::string> queries = {
        "$[?(@.a==3)]",        "$[?(@.a>2)].b",    "$[?(@.a<'m')]",
        "$[?(@.a)].b",         "$[?(@.a!=null)]",  "$..r[?(@.a>=2)]",
        "$..r[?(@.a=='k2')].b", "$[?(@.b)][?(@.a)]",
    };
    size_t total = 0;
    for (int iter = 0; iter < 200; ++iter) {
        // A root array of random candidates, some nested under "r".
        std::string doc = "[";
        size_t n = 1 + rng.below(6);
        for (size_t i = 0; i < n; ++i) {
            if (i != 0)
                doc += ",";
            switch (rng.below(8)) {
              case 0: doc += std::to_string(rng.below(10)); break;
              case 1: doc += "\"s" + std::to_string(rng.below(5)) + "\"";
                      break;
              case 2: doc += "null"; break;
              default: {
                doc += "{";
                size_t keys = rng.below(4);
                for (size_t k = 0; k < keys; ++k) {
                    if (k != 0)
                        doc += ",";
                    switch (rng.below(4)) {
                      case 0: doc += "\"a\": " +
                                     std::to_string(rng.below(6)); break;
                      case 1: doc += "\"a\": \"k" +
                                     std::to_string(rng.below(4)) + "\"";
                              break;
                      case 2: doc += "\"b\": [" +
                                     std::to_string(rng.below(9)) + "]";
                              break;
                      default: doc += "\"r\": [{\"a\": " +
                                      std::to_string(rng.below(4)) +
                                      ", \"b\": " +
                                      std::to_string(rng.below(4)) + "}]";
                    }
                }
                doc += "}";
              }
            }
        }
        doc += "]";
        const std::string& q = queries[iter % queries.size()];
        total += runBoth(q, doc).size();
    }
    // The random stream must actually produce matches.
    EXPECT_GT(total, 50u);
}

TEST(Filter, MultiStreamerEvaluatesFilters)
{
    // Filters run inside the combined pass's one walk: it must agree
    // with the single-query run, value for value.
    const std::string doc =
        R"([{"a":1,"x":"p"},{"a":2},{"a":1,"x":"q"},{"b":3}])";
    path::PathQuery q = path::parse("$[?(@.a==1)]");
    ski::MultiStreamer ms({q});
    ski::MultiCollectSink sink(1);
    auto r = ms.run(doc, &sink);

    path::CollectSink solo;
    ski::Streamer single(q);
    auto sr = single.run(doc, &solo);
    EXPECT_EQ(r.matches[0], sr.matches);
    EXPECT_EQ(sink.values[0], solo.values);
    EXPECT_EQ(sr.matches, 2u);
}
