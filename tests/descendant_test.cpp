/**
 * @file
 * Tests for the descendant operator extension (`$..name`, any step
 * position): JSONSki semantics, pre-order emission and multiset
 * multiplicity, cross-engine agreement (JSONSki / JPStream / DOM /
 * tape), and the documented restrictions (Pison rejects `..`; tape
 * and JPStream support only the terminal form).
 */
#include <gtest/gtest.h>

#include "baseline/dom/query.h"
#include "baseline/jpstream/engine.h"
#include "baseline/pison/query.h"
#include "baseline/tape/query.h"
#include "json/validate.h"
#include "json/writer.h"
#include "path/parser.h"
#include "ski/multi.h"
#include "ski/streamer.h"
#include "util/error.h"
#include "util/rng.h"

using namespace jsonski;
using jsonski::path::parse;

namespace {

std::vector<std::string>
ski_values(std::string_view json, const char* q)
{
    auto r = ski::query(json, q, /*collect=*/true);
    return r.values;
}

} // namespace

TEST(Descendant, ParserAcceptsAnyPosition)
{
    auto q = parse("$..name");
    ASSERT_EQ(q.size(), 1u);
    EXPECT_EQ(q[0].kind, path::PathStep::Kind::Descendant);
    EXPECT_EQ(q.toString(), "$..name");
    EXPECT_TRUE(q.hasDescendant());
    EXPECT_TRUE(q.hasTerminalDescendant());
    EXPECT_FALSE(q.hasInteriorDescendant());

    EXPECT_NO_THROW(parse("$.a[*]..name"));
    // Non-terminal descendant steps are supported since the multiset
    // driver landed (DESIGN.md §13).
    auto interior = parse("$..a.b");
    EXPECT_TRUE(interior.hasInteriorDescendant());
    EXPECT_FALSE(interior.hasTerminalDescendant());
    EXPECT_EQ(interior.toString(), "$..a.b");
    EXPECT_EQ(parse("$..a[0]").toString(), "$..a[0]");
    EXPECT_EQ(parse("$..a..b").toString(), "$..a..b");
    EXPECT_EQ(parse("$..['odd key']").toString(), "$..['odd key']");
    EXPECT_THROW(parse("$.."), PathError);
}

TEST(Descendant, InteriorKeyStep)
{
    // `$..a.b`: every `a` at any depth, then its direct child `b` —
    // document order, including an `a` nested inside another `a`.
    std::string json =
        R"({"a": {"a": {"b": 1}, "b": 2}, "x": {"a": {"b": 3}}})";
    EXPECT_EQ(ski_values(json, "$..a.b"),
              (std::vector<std::string>{"1", "2", "3"}));
}

TEST(Descendant, InteriorIndexStep)
{
    std::string json =
        R"({"a": [10, 20, 30], "o": {"a": [{"b": 5}, {"b": 6}]}})";
    EXPECT_EQ(ski_values(json, "$..a[2]"),
              (std::vector<std::string>{"30"}));
    EXPECT_EQ(ski_values(json, "$..a[1].b"),
              (std::vector<std::string>{"6"}));
    EXPECT_EQ(ski_values(json, "$..a[*].b"),
              (std::vector<std::string>{"5", "6"}));
}

TEST(Descendant, DoubleDescendantMultiplicity)
{
    // `$..a..b`: one value is reported once per accepting path.  The
    // inner b is reachable via BOTH a-ancestors, so it appears twice,
    // consecutively (document pre-order, duplicates adjacent).
    std::string json = R"({"a": {"a": {"b": 1}}})";
    EXPECT_EQ(ski_values(json, "$..a..b"),
              (std::vector<std::string>{"1", "1"}));
    // DOM oracle agrees on the multiset semantics.
    auto q = parse("$..a..b");
    path::CollectSink dom_sink;
    dom::parseAndQuery(json, q, &dom_sink);
    EXPECT_EQ(dom_sink.values,
              (std::vector<std::string>{"1", "1"}));
}

TEST(Descendant, InteriorEnginesAgree)
{
    std::string json = R"({
      "a": {"k": 1, "a": [{"k": [2, 3]}, {"c": {"a": {"k": 4}}}]},
      "k": "top"
    })";
    for (const char* text :
         {"$..a.k", "$..a[0].k", "$..a[*].k", "$..a..k", "$..a[0:2]"}) {
        auto q = parse(text);
        path::CollectSink ski_sink, dom_sink;
        ski::Streamer(q).run(json, &ski_sink);
        dom::parseAndQuery(json, q, &dom_sink);
        EXPECT_EQ(dom_sink.values, ski_sink.values) << text;
    }
}

TEST(Descendant, InteriorDuplicateKeysFirstBindingWins)
{
    // Key steps bind to the FIRST member with their name (the
    // streamer leaves an object after the match, G4); descendant
    // steps keep examining every member, duplicates included.
    std::string json = R"({"a": {"b": 1, "b": 2}, "b": 3})";
    EXPECT_EQ(ski_values(json, "$..a.b"),
              (std::vector<std::string>{"1"}));
    EXPECT_EQ(ski_values(json, "$..b"),
              (std::vector<std::string>{"1", "2", "3"}));
    auto q = parse("$..a.b");
    path::CollectSink dom_sink;
    dom::parseAndQuery(json, q, &dom_sink);
    EXPECT_EQ(dom_sink.values, (std::vector<std::string>{"1"}));
}

TEST(Descendant, RepeatedNamesUnderDescendantBindUsableMember)
{
    // Under `..`, a key step after the search binds the first member
    // with its name whose value the next step can use — as solo plain
    // queries do, with or without the G1 type filter, and as the DOM
    // oracle does.
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        docs = {
            {R"({"x": {"a": 1, "a": {"b": 2}, "c": 3}})", {"2"}},
            {R"({"x": {"a": {"b": 1}, "a": {"b": 2}, "c": 3}})", {"1"}},
            {R"([{"x": {"a": 1, "a": {"b": 2}}},)"
             R"( {"x": {"a": [], "a": {"b": 3}}}])",
             {"2", "3"}},
        };
    for (const auto& [json, want] : docs) {
        auto q = parse("$..x.a.b");
        for (bool type_filter : {false, true}) {
            ski::StreamerOptions opt;
            opt.type_filter = type_filter;
            path::CollectSink sink;
            ski::Streamer(q, opt).run(json, &sink);
            EXPECT_EQ(sink.values, want) << json << " tf=" << type_filter;
        }
        path::CollectSink dom_sink;
        dom::parseAndQuery(json, q, &dom_sink);
        EXPECT_EQ(dom_sink.values, want) << json;
    }
}

TEST(Descendant, InteriorRejectedByLinearBaselines)
{
    // The path-at-a-time tape walk and the deterministic PDA cannot
    // reproduce the multiset document-order contract; they say so
    // instead of answering differently.
    auto q = parse("$..a.b");
    EXPECT_THROW(tape::parseAndQuery(R"({"a":{"b":1}})", q), PathError);
    EXPECT_THROW(jpstream::Engine{q}, PathError);
}

TEST(Descendant, RandomDifferentialInteriorSkiVsDom)
{
    Rng rng(8642);
    const std::vector<std::string> keys = {"a", "b", "k"};
    std::function<void(json::Writer&, int)> gen =
        [&](json::Writer& w, int depth) {
            double shape = rng.real();
            if (depth <= 0 || shape < 0.4) {
                w.number(rng.range(0, 99));
            } else if (shape < 0.75) {
                w.beginObject();
                std::vector<std::string> pool = keys;
                size_t n = rng.below(4);
                for (size_t i = 0; i < n && !pool.empty(); ++i) {
                    size_t pick = rng.below(pool.size());
                    w.key(pool[pick]);
                    pool.erase(pool.begin() + static_cast<long>(pick));
                    gen(w, depth - 1);
                }
                w.endObject();
            } else {
                w.beginArray();
                size_t n = rng.below(4);
                for (size_t i = 0; i < n; ++i)
                    gen(w, depth - 1);
                w.endArray();
            }
        };
    const char* queries[] = {"$..a.b", "$..a[0]", "$..a[*].k", "$..a..k",
                             "$..a[0:2].b"};
    size_t total = 0;
    for (int iter = 0; iter < 200; ++iter) {
        json::Writer w;
        w.beginObject();
        w.key("root");
        gen(w, 5);
        w.endObject();
        std::string doc = w.take();
        ASSERT_TRUE(json::validate(doc));
        for (const char* text : queries) {
            auto q = parse(text);
            path::CollectSink a, b;
            ski::Streamer(q).run(doc, &a);
            dom::parseAndQuery(doc, q, &b);
            ASSERT_EQ(a.values, b.values) << text << "\n" << doc;
            total += a.values.size();
        }
    }
    EXPECT_GT(total, 50u);
}

TEST(Descendant, FindsAtAllDepths)
{
    std::string json = R"({
      "name": "top",
      "user": {"name": "mid", "info": {"name": "deep"}},
      "list": [{"name": "in-array"}, [{"name": "nested-array"}], 5]
    })";
    auto values = ski_values(json, "$..name");
    EXPECT_EQ(values,
              (std::vector<std::string>{"\"top\"", "\"mid\"", "\"deep\"",
                                        "\"in-array\"",
                                        "\"nested-array\""}));
}

TEST(Descendant, NestedMatchesAreAllReportedPreOrder)
{
    std::string json = R"({"a": {"x": 1, "a": {"a": 2}}})";
    auto values = ski_values(json, "$..a");
    ASSERT_EQ(values.size(), 3u);
    // Outer first (pre-order), then its nested matches.
    EXPECT_EQ(values[0], R"({"x": 1, "a": {"a": 2}})");
    EXPECT_EQ(values[1], R"({"a": 2})");
    EXPECT_EQ(values[2], "2");
}

TEST(Descendant, AfterKeyAndArrayPrefix)
{
    std::string json =
        R"({"data": [{"v": {"id": 1}}, {"w": [{"id": 2}, {"id": 3}]}],)"
        R"( "id": 99})";
    EXPECT_EQ(ski_values(json, "$.data..id"),
              (std::vector<std::string>{"1", "2", "3"}));
    EXPECT_EQ(ski_values(json, "$.data[1]..id"),
              (std::vector<std::string>{"2", "3"}));
    EXPECT_EQ(ski_values(json, "$.data[*]..id").size(), 3u);
}

TEST(Descendant, NoMatches)
{
    EXPECT_TRUE(ski_values(R"({"a": [1, {"b": 2}]})", "$..zz").empty());
    EXPECT_TRUE(ski_values("[]", "$..k").empty());
    EXPECT_TRUE(ski_values("{}", "$..k").empty());
    EXPECT_TRUE(ski_values("5", "$..k").empty());
}

TEST(Descendant, DecoysInsideStrings)
{
    std::string json =
        R"({"s": "\"k\": 1", "o": {"k": "real"}})";
    EXPECT_EQ(ski_values(json, "$..k"),
              (std::vector<std::string>{"\"real\""}));
}

TEST(Descendant, EnginesAgree)
{
    std::string json = R"({
      "a": {"k": 1, "b": [{"k": [2, 3]}, {"c": {"k": {"k": 4}}}]},
      "k": "top"
    })";
    auto q = parse("$..k");
    path::CollectSink ski_sink, dom_sink, tape_sink;
    ski::Streamer(q).run(json, &ski_sink);
    dom::parseAndQuery(json, q, &dom_sink);
    tape::parseAndQuery(json, q, &tape_sink);
    EXPECT_FALSE(ski_sink.values.empty());
    EXPECT_EQ(dom_sink.values, ski_sink.values);
    EXPECT_EQ(tape_sink.values, ski_sink.values);

    // The character-level PDA emits container matches on their closing
    // brace, so its *order* differs under nesting; the multiset must
    // still agree.
    path::CollectSink jp_sink;
    jpstream::Engine(q).run(json, &jp_sink);
    auto sorted = [](std::vector<std::string> v) {
        std::sort(v.begin(), v.end());
        return v;
    };
    EXPECT_EQ(sorted(jp_sink.values), sorted(ski_sink.values));
}

TEST(Descendant, PisonRejectsByDesign)
{
    EXPECT_THROW(pison::parseAndQuery(R"({"a":1})", parse("$..a")),
                 PathError);
}

TEST(Descendant, MultiStreamerEvaluatesDescendants)
{
    // Descendant steps run inside the combined pass's one walk: it
    // must agree with the single-query run.
    const std::string doc =
        R"({"a":1,"b":{"a":[2,3],"c":{"a":4}},"d":5})";
    std::vector<path::PathQuery> qs;
    qs.push_back(parse("$..a"));
    qs.push_back(parse("$.d"));
    ski::MultiStreamer ms(std::move(qs));
    ski::MultiCollectSink sink(ms.queryCount());
    auto r = ms.run(doc, &sink);

    path::CollectSink solo;
    ski::Streamer single(parse("$..a"));
    auto sr = single.run(doc, &solo);
    EXPECT_EQ(r.matches[0], sr.matches);
    EXPECT_EQ(sink.values[0], solo.values);
    EXPECT_EQ(sink.values[1], (std::vector<std::string>{"5"}));
}

TEST(Descendant, RandomDifferentialSkiVsDom)
{
    Rng rng(1357);
    const std::vector<std::string> keys = {"a", "b", "k"};
    std::function<void(json::Writer&, int)> gen =
        [&](json::Writer& w, int depth) {
            double shape = rng.real();
            if (depth <= 0 || shape < 0.4) {
                w.number(rng.range(0, 99));
            } else if (shape < 0.75) {
                w.beginObject();
                std::vector<std::string> pool = keys;
                size_t n = rng.below(4);
                for (size_t i = 0; i < n && !pool.empty(); ++i) {
                    size_t pick = rng.below(pool.size());
                    w.key(pool[pick]);
                    pool.erase(pool.begin() + static_cast<long>(pick));
                    gen(w, depth - 1);
                }
                w.endObject();
            } else {
                w.beginArray();
                size_t n = rng.below(4);
                for (size_t i = 0; i < n; ++i)
                    gen(w, depth - 1);
                w.endArray();
            }
        };
    auto q = parse("$..k");
    size_t total = 0;
    for (int iter = 0; iter < 300; ++iter) {
        json::Writer w;
        w.beginObject();
        w.key("root");
        gen(w, 5);
        w.endObject();
        std::string doc = w.take();
        ASSERT_TRUE(json::validate(doc));
        path::CollectSink a, b;
        ski::Streamer(q).run(doc, &a);
        dom::parseAndQuery(doc, q, &b);
        ASSERT_EQ(a.values, b.values) << doc;
        total += a.values.size();
    }
    EXPECT_GT(total, 50u);
}

TEST(Descendant, StatsStillAccumulate)
{
    // Primitive runs remain fast-forwardable under `..` (the paper's
    // predicted limitation is on *type* skipping, not primitives).
    std::string json = "{\"rows\": [";
    for (int i = 0; i < 500; ++i)
        json += std::to_string(i) + ",";
    json += R"({"k": 1}], "k": 2})";
    auto r = ski::query(json, "$..k");
    EXPECT_EQ(r.count, 2u);
    EXPECT_GT(r.stats.get(ski::Group::G1), 500u);
}

TEST(Descendant, InteriorSearchBatchesPrimitiveRunsAsG1)
{
    // An interior `..` step searches with the same engine: when every
    // live state is a search, the array's primitive run is batch-
    // skipped and charged to G1, exactly as for the terminal `$..k`.
    std::string json = "{\"rows\": [";
    for (int i = 0; i < 500; ++i)
        json += std::to_string(i) + ",";
    json += R"({"k": 1}], "k": 2})";
    auto terminal = ski::query(json, "$..k");
    auto interior = ski::query(json, "$..rows..k");
    EXPECT_EQ(interior.count, 1u);
    EXPECT_GT(interior.stats.get(ski::Group::G1), 500u);
    // The run is the same 500 elements either way.
    EXPECT_GE(interior.stats.get(ski::Group::G1),
              terminal.stats.get(ski::Group::G1));
}
