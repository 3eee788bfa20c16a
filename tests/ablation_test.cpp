/**
 * @file
 * The ablation knobs must never change results — only performance.
 * Every option combination is run against every paper query on small
 * generated datasets and must agree with the default configuration,
 * and on documents with repeated member names every knob setting, the
 * DOM oracle and a batched set must bind the same member.
 */
#include <gtest/gtest.h>

#include "baseline/dom/query.h"
#include "gen/datasets.h"
#include "harness/engines.h"
#include "path/parser.h"
#include "ski/multi.h"
#include "ski/streamer.h"

using namespace jsonski::ski;
using jsonski::gen::generateLarge;
using jsonski::path::CollectSink;
using jsonski::path::parse;

namespace {

std::vector<std::string>
runWith(const std::string& json, const jsonski::path::PathQuery& q,
        StreamerOptions opt)
{
    Streamer s(q, opt);
    CollectSink sink;
    s.run(json, &sink);
    return sink.values;
}

} // namespace

TEST(Ablation, AllOptionCombinationsAgree)
{
    for (const auto& spec : jsonski::harness::paperQueries()) {
        std::string json = generateLarge(spec.dataset, 2 * 1024 * 1024);
        auto q = parse(spec.large_query);
        auto reference = runWith(json, q, StreamerOptions{});
        EXPECT_FALSE(reference.empty()) << spec.id;
        for (bool type_filter : {false, true}) {
            for (bool batch : {false, true}) {
                for (bool scalar : {false, true}) {
                    StreamerOptions opt{type_filter, batch, scalar};
                    EXPECT_EQ(runWith(json, q, opt), reference)
                        << spec.id << " tf=" << type_filter
                        << " batch=" << batch << " scalar=" << scalar;
                }
            }
        }
    }
}

TEST(Ablation, StatsShiftBetweenGroupsNotTotals)
{
    // Disabling the type filter reroutes G1 skips into G2 but the
    // match counts stay identical (checked above); here we confirm G1
    // drops to zero in that mode.
    std::string json =
        generateLarge(jsonski::gen::DatasetId::WM, 256 * 1024);
    auto q = parse("$.it[*].bmrpr.pr");
    Streamer no_g1(q, StreamerOptions{.type_filter = false});
    StreamResult r = no_g1.run(json);
    EXPECT_EQ(r.stats.get(Group::G1), 0u);
    Streamer full(q);
    StreamResult rf = full.run(json);
    EXPECT_GT(rf.stats.get(Group::G1), 0u);
}

TEST(Ablation, DuplicateMemberNamesBindOneRule)
{
    // A key step binds the first member with its name whose value the
    // next step can use (path::nfaNeeds) — the rule the G1 typed scan
    // forces, since a batched primitive run never reads the names it
    // skips.  Turning the type filter off must not move the binding,
    // and the DOM oracle and a batched set with a sibling query must
    // bind the same member.
    const std::string d1 = R"({"a": 1, "a": {"b": 2}, "c": 3})";
    const std::string d2 = R"({"a": {"b": 1}, "a": {"b": 2}, "c": 3})";
    const std::string m1 = R"("a": 1, "a": {"b": 2}, "c": 3)";
    const std::string m2 = R"("a": {"b": 1}, "a": {"b": 2}, "c": 3)";
    struct Case
    {
        std::string doc;
        const char* query;
        const char* sibling;
        std::vector<std::string> want;
    };
    const std::vector<Case> cases = {
        {d1, "$.a.b", "$.c", {"2"}},
        {d1, "$.c", "$.a.b", {"3"}},
        {d1, "$.a", "$.a.b", {"1"}},
        {d2, "$.a.b", "$.c", {"1"}},
        {d2, "$.c", "$.a.b", {"3"}},
        {d2, "$.a", "$.a.b", {R"({"b": 1})"}},
        {"[" + d1 + "]", "$[*].a.b", "$[*].c", {"2"}},
        {"[" + d2 + "]", "$[0].a.b", "$[0].c", {"1"}},
        {R"([{"k": 1, )" + m1 + "}]", "$[?(@.k)].a.b", "$[*].c", {"2"}},
        {R"([{"k": 1, )" + m2 + "}]", "$[?(@.k)].a.b", "$[*].c", {"1"}},
        {R"({"x": )" + d1 + "}", "$..x.a.b", "$.x.c", {"2"}},
        {R"({"x": )" + d2 + "}", "$..x.a.b", "$.x.c", {"1"}},
        {R"({"a": 1, "a": [{"k": 1}]})", "$.a[?(@.k)]", "$.a",
         {R"({"k": 1})"}},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(std::string(c.query) + " on " + c.doc);
        auto q = parse(c.query);
        for (bool type_filter : {false, true}) {
            StreamerOptions opt;
            opt.type_filter = type_filter;
            EXPECT_EQ(runWith(c.doc, q, opt), c.want)
                << "type_filter=" << type_filter;
        }
        CollectSink dom_sink;
        jsonski::dom::parseAndQuery(c.doc, q, &dom_sink);
        EXPECT_EQ(dom_sink.values, c.want) << "DOM oracle";
        MultiStreamer ms(std::vector<jsonski::path::PathQuery>{
            q, parse(c.sibling)});
        MultiCollectSink multi(ms.queryCount());
        ms.run(c.doc, &multi);
        EXPECT_EQ(multi.values[0], c.want) << "batched with " << c.sibling;
    }
}
