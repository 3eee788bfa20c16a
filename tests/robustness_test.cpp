/**
 * @file
 * Robustness properties: no engine may crash, hang, or accept an
 * answer silently diverging from the others on hostile inputs —
 * malformed bytes, truncations, and pathological nesting.  Engines are
 * allowed to throw ParseError (streaming engines may also legitimately
 * return 0 without detecting damage in fast-forwarded regions,
 * paper §3.3).
 */
#include <gtest/gtest.h>

#include <string>

#include "baseline/dom/query.h"
#include "baseline/jpstream/engine.h"
#include "baseline/pison/query.h"
#include "baseline/tape/query.h"
#include "json/validate.h"
#include "path/parser.h"
#include "intervals/chunk_source.h"
#include "ski/streamer.h"
#include "util/error.h"
#include "util/rng.h"

using namespace jsonski;
using jsonski::path::parse;

namespace {

/** Run every engine, requiring graceful behaviour (result or throw). */
void
mustNotCrash(const std::string& json, const path::PathQuery& q)
{
    auto tryRun = [&](auto&& fn) {
        try {
            (void)fn();
        } catch (const ParseError&) {
            // acceptable
        }
    };
    tryRun([&] { return ski::Streamer(q).run(json).matches; });
    tryRun([&] { return jpstream::Engine(q).run(json); });
    tryRun([&] { return dom::parseAndQuery(json, q); });
    tryRun([&] { return tape::parseAndQuery(json, q); });
    tryRun([&] { return pison::parseAndQuery(json, q); });
    tryRun([&] {
        intervals::ViewSource src(json);
        return ski::Streamer(q).runRecords(src).matches;
    });
}

} // namespace

TEST(Robustness, RandomGarbageBytes)
{
    Rng rng(31337);
    auto q = parse("$.a.b[0]");
    static constexpr char chars[] = "{}[]:,\"\\ abc012\n\t.-e+";
    for (int iter = 0; iter < 500; ++iter) {
        size_t len = rng.below(200);
        std::string s;
        for (size_t i = 0; i < len; ++i)
            s += chars[rng.below(sizeof(chars) - 1)];
        mustNotCrash(s, q);
    }
}

TEST(Robustness, TruncationsOfValidDocument)
{
    std::string doc =
        R"({"a": {"b": [1, "two", {"c": null}], "d": "x\"y"}, "e": 2})";
    auto q = parse("$.a.b[2].c");
    for (size_t cut = 0; cut <= doc.size(); ++cut)
        mustNotCrash(doc.substr(0, cut), q);
}

TEST(Robustness, ValidDocumentsNeverThrow)
{
    // The flip side: if the validator accepts it, every engine must
    // process it without throwing.
    const char* docs[] = {
        "{}",
        "[]",
        "0",
        "\"\"",
        "[[[[[[[[[[1]]]]]]]]]]",
        R"({"":{"":[null,null]}})",
        R"([{},{},{}])",
        "  {  }  ",
        R"({"a":"\\\\\\\""})",
        R"([1e-300, -0.0, 1E+5])",
    };
    auto q = parse("$.a[0]");
    for (const char* d : docs) {
        ASSERT_TRUE(json::validate(d)) << d;
        EXPECT_NO_THROW((void)ski::Streamer(q).run(d).matches) << d;
        EXPECT_NO_THROW((void)jpstream::Engine(q).run(d)) << d;
        EXPECT_NO_THROW((void)dom::parseAndQuery(d, q)) << d;
        EXPECT_NO_THROW((void)tape::parseAndQuery(d, q)) << d;
        EXPECT_NO_THROW((void)pison::parseAndQuery(d, q)) << d;
    }
}

TEST(Robustness, VeryDeepNestingIsIterativeInJsonSki)
{
    // JSONSki skips irrelevant substructure iteratively: recursion
    // depth is bounded by the query, so 200k-deep data is fine where a
    // recursive DOM parser must bail out.
    std::string deep = "{\"pad\":";
    for (int i = 0; i < 200000; ++i)
        deep += "[";
    deep += "1";
    for (int i = 0; i < 200000; ++i)
        deep += "]";
    deep += ",\"k\":42}";
    auto q = parse("$.k");
    auto r = ski::Streamer(q).run(deep);
    EXPECT_EQ(r.matches, 1u);
    EXPECT_THROW((void)dom::parseAndQuery(deep, q), ParseError);
    // The character-level streaming baseline is also iterative.
    EXPECT_EQ(jpstream::Engine(q).run(deep), 1u);
}

TEST(Robustness, HugeFlatObject)
{
    std::string doc = "{";
    for (int i = 0; i < 50000; ++i)
        doc += "\"k" + std::to_string(i) + "\":" + std::to_string(i) + ",";
    doc += "\"needle\":1}";
    auto q = parse("$.needle");
    EXPECT_EQ(ski::Streamer(q).run(doc).matches, 1u);
    EXPECT_EQ(pison::parseAndQuery(doc, q), 1u);
}

TEST(Robustness, MismatchedContainersCaughtWhereExamined)
{
    // "[}" style damage on the traversed path throws in the detailed
    // parsers; the fast-forwarding streamer may or may not see it —
    // but must not crash.
    auto q = parse("$.a[0]");
    mustNotCrash("[}", q);
    mustNotCrash("{]", q);
    mustNotCrash(R"({"a": [1, 2}})", q);
    EXPECT_THROW((void)dom::parseAndQuery("[}", q), ParseError);
}
