/** @file End-to-end tests for the JSONSki streaming query evaluator. */
#include "ski/streamer.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "path/parser.h"
#include "path/queryset.h"
#include "ski/multi.h"
#include "util/error.h"

using namespace jsonski::ski;
using jsonski::ParseError;
using jsonski::path::parse;

namespace {

/** Run a query collecting values. */
QueryResult
eval(std::string_view json, std::string_view path)
{
    return query(json, path, /*collect=*/true);
}

// The paper's Figure 1 tweet, lightly extended.
const char* kTweet = R"({
  "coordinates": [40.74118764, -73.9998279],
  "user": {"id": 6253282, "name": "jsonski"},
  "place": {
    "name": "Manhattan",
    "bounding_box": {
      "type": "Polygon",
      "pos": [[-74.026675, 40.683935], [-74.026675, 40.877483],
              [-73.910408, 40.877483], [-73.910408, 40.683935]]
    }
  }
})";

} // namespace

TEST(Streamer, PaperRunningExample)
{
    auto r = eval(kTweet, "$.place.name");
    ASSERT_EQ(r.count, 1u);
    EXPECT_EQ(r.values[0], "\"Manhattan\"");
}

TEST(Streamer, RootQueryMatchesWholeRecord)
{
    auto r = eval(R"({"a": 1})", "$");
    ASSERT_EQ(r.count, 1u);
    EXPECT_EQ(r.values[0], R"({"a": 1})");
}

TEST(Streamer, SimpleKeyMiss)
{
    auto r = eval(kTweet, "$.place.population");
    EXPECT_EQ(r.count, 0u);
}

TEST(Streamer, RootTypeMismatchYieldsNoMatches)
{
    EXPECT_EQ(eval("[1,2,3]", "$.a").count, 0u);
    EXPECT_EQ(eval(R"({"a":1})", "$[0]").count, 0u);
}

TEST(Streamer, NestedObjectValueOutput)
{
    auto r = eval(kTweet, "$.place.bounding_box.type");
    ASSERT_EQ(r.count, 1u);
    EXPECT_EQ(r.values[0], "\"Polygon\"");
}

TEST(Streamer, ObjectValuedMatchIsWholeObject)
{
    auto r = eval(kTweet, "$.user");
    ASSERT_EQ(r.count, 1u);
    EXPECT_EQ(r.values[0], R"({"id": 6253282, "name": "jsonski"})");
}

TEST(Streamer, ArrayWildcard)
{
    auto r = eval(R"([{"v":1},{"v":2},{"v":3}])", "$[*].v");
    ASSERT_EQ(r.count, 3u);
    EXPECT_EQ(r.values, (std::vector<std::string>{"1", "2", "3"}));
}

TEST(Streamer, ArrayIndex)
{
    auto r = eval("[10,20,30,40]", "$[2]");
    ASSERT_EQ(r.count, 1u);
    EXPECT_EQ(r.values[0], "30");
}

TEST(Streamer, ArrayIndexOutOfBounds)
{
    EXPECT_EQ(eval("[10,20]", "$[5]").count, 0u);
}

TEST(Streamer, ArraySlice)
{
    auto r = eval("[0,1,2,3,4,5]", "$[2:4]");
    ASSERT_EQ(r.count, 2u);
    EXPECT_EQ(r.values, (std::vector<std::string>{"2", "3"}));
}

TEST(Streamer, SliceOnObjectElements)
{
    auto r = eval(R"([{"id":0},{"id":1},{"id":2},{"id":3}])", "$[1:3].id");
    ASSERT_EQ(r.count, 2u);
    EXPECT_EQ(r.values, (std::vector<std::string>{"1", "2"}));
}

TEST(Streamer, WildcardOverHeterogeneousArray)
{
    // Only object elements can contribute to `.v`.
    auto r = eval(R"([1,"s",{"v":7},[{"v":8}],{"v":9}])", "$[*].v");
    ASSERT_EQ(r.count, 2u);
    EXPECT_EQ(r.values, (std::vector<std::string>{"7", "9"}));
}

TEST(Streamer, NestedArraySteps)
{
    auto r = eval(R"({"dt":[[[1,2,3,4],[5,6,7,8]],[[9,10,11,12]]]})",
                  "$.dt[*][*][2:4]");
    ASSERT_EQ(r.count, 6u);
    EXPECT_EQ(r.values, (std::vector<std::string>{"3", "4", "7", "8", "11",
                                                  "12"}));
}

TEST(Streamer, TypeMismatchUnderKeyStep)
{
    // `place` exists but is not an object: no match, no error.
    auto r = eval(R"({"place": 42})", "$.place.name");
    EXPECT_EQ(r.count, 0u);
}

TEST(Streamer, FirstMatchingAttributeOnlyG4)
{
    // After `name` matches, the rest of the object is fast-forwarded;
    // duplicate names can't occur per the JSON spec assumption.
    std::string json = R"({"place": {"a":1, "name": "X", "tail": {"name":"Y"}}})";
    auto r = eval(json, "$.place.name");
    ASSERT_EQ(r.count, 1u);
    EXPECT_EQ(r.values[0], "\"X\"");
    // G4 must have skipped the tail.
    EXPECT_GT(r.stats.get(Group::G4), 0u);
}

TEST(Streamer, DecoyKeysInStrings)
{
    // Values that *contain* the queried key as text must not confuse
    // the matcher.
    std::string json =
        R"({"decoy": "\"name\": {", "place": {"name": "ok"}})";
    auto r = eval(json, "$.place.name");
    ASSERT_EQ(r.count, 1u);
    EXPECT_EQ(r.values[0], "\"ok\"");
}

TEST(Streamer, EmptyContainers)
{
    EXPECT_EQ(eval("{}", "$.a").count, 0u);
    EXPECT_EQ(eval("[]", "$[*]").count, 0u);
    EXPECT_EQ(eval(R"({"a":{}})", "$.a.b").count, 0u);
    EXPECT_EQ(eval(R"({"a":[]})", "$.a[*]").count, 0u);
}

TEST(Streamer, WildcardEmitsAllTypes)
{
    auto r = eval(R"([1, "two", null, {"k":3}, [4]])", "$[*]");
    ASSERT_EQ(r.count, 5u);
    EXPECT_EQ(r.values[0], "1");
    EXPECT_EQ(r.values[1], "\"two\"");
    EXPECT_EQ(r.values[2], "null");
    EXPECT_EQ(r.values[3], R"({"k":3})");
    EXPECT_EQ(r.values[4], "[4]");
}

TEST(Streamer, DeepQueryAcrossManySiblings)
{
    // Build an object with many irrelevant attributes before and after
    // the relevant one, nested a few levels.
    std::string json = R"({"x1":[1,2],"x2":{"y":0},"a":{"p":[7],"b":{)";
    for (int i = 0; i < 40; ++i)
        json += "\"f" + std::to_string(i) + "\":" + std::to_string(i) + ",";
    json += R"("c":[{"d":1},{"d":2},{"d":3}]}},"z":"tail")";
    json += "}";
    auto r = eval(json, "$.a.b.c[1].d");
    ASSERT_EQ(r.count, 1u);
    EXPECT_EQ(r.values[0], "2");
}

TEST(Streamer, FastForwardRatioHighWhenMatchComesEarly)
{
    // Needle first: G4 fast-forwards the rest of the object (the
    // paper's dominant case, e.g. NSPL1 at 99.99%).
    std::string json = "{\"needle\":\"found\"";
    for (int i = 0; i < 500; ++i)
        json += ",\"k" + std::to_string(i) + "\":{\"deep\":[1,2,3,4,5]}";
    json += "}";
    auto r = eval(json, "$.needle");
    ASSERT_EQ(r.count, 1u);
    EXPECT_GT(r.stats.overallRatio(json.size()), 0.98);
    EXPECT_GT(r.stats.ratio(Group::G4, json.size()), 0.95);
}

TEST(Streamer, FastForwardRatioWithLateNeedle)
{
    // Needle last and value type unknown: every key is examined but
    // every value is still skipped (G2); the ratio reflects only the
    // values.
    std::string json = "{";
    for (int i = 0; i < 500; ++i)
        json += "\"k" + std::to_string(i) + "\":{\"deep\":[1,2,3,4,5]},";
    json += "\"needle\":\"found\"}";
    auto r = eval(json, "$.needle");
    ASSERT_EQ(r.count, 1u);
    EXPECT_GT(r.stats.ratio(Group::G2, json.size()), 0.65);
}

TEST(Streamer, WhitespaceTolerant)
{
    std::string json =
        "  {  \"a\"  :  [  {  \"b\"  :  [ 1 ,  2 ]  }  ]  }  ";
    auto r = eval(json, "$.a[0].b[1]");
    ASSERT_EQ(r.count, 1u);
    EXPECT_EQ(r.values[0], "2");
}

TEST(Streamer, SliceBudgetStopsDescent)
{
    // Elements past the slice end must be fast-forwarded (G5), even if
    // they are of the matching type.
    std::string json = R"([{"v":0},{"v":1},{"v":2},{"v":3},{"v":4}])";
    auto r = eval(json, "$[1:2].v");
    ASSERT_EQ(r.count, 1u);
    EXPECT_EQ(r.values[0], "1");
    EXPECT_GT(r.stats.get(Group::G5), 0u);
}

TEST(Streamer, MalformedInputThrowsOnTraversedPath)
{
    EXPECT_THROW(eval(R"({"a": {"b": 1)", "$.a.b.c"), ParseError);
    EXPECT_THROW(eval("", "$.a"), ParseError);
}

TEST(Streamer, CountOnlyModeMatchesCollectMode)
{
    std::string json = R"([{"v":1},{"v":2},{"w":0},{"v":3}])";
    auto collected = query(json, "$[*].v", true);
    auto counted = query(json, "$[*].v", false);
    EXPECT_EQ(collected.count, counted.count);
    EXPECT_EQ(counted.count, 3u);
    EXPECT_TRUE(counted.values.empty());
}

TEST(Streamer, Utf8PayloadsPassThrough)
{
    std::string json = "{\"name\": \"M\xc3\xbcnchen \xe4\xb8\xad\"}";
    auto r = eval(json, "$.name");
    ASSERT_EQ(r.count, 1u);
    EXPECT_EQ(r.values[0], "\"M\xc3\xbcnchen \xe4\xb8\xad\"");
}

TEST(Streamer, LongStringsSpanningBlocks)
{
    std::string big(500, 'x');
    std::string json = R"({"pad": ")" + big + R"(", "k": 1})";
    auto r = eval(json, "$.k");
    ASSERT_EQ(r.count, 1u);
    EXPECT_EQ(r.values[0], "1");
}

TEST(Streamer, StatsAreWithinInputLength)
{
    auto r = eval(kTweet, "$.place.bounding_box.pos[1:3]");
    EXPECT_LE(r.stats.total(), std::string_view(kTweet).size());
}

TEST(Streamer, IndexIntoNestedArrays)
{
    auto r = eval(kTweet, "$.place.bounding_box.pos[2]");
    ASSERT_EQ(r.count, 1u);
    EXPECT_EQ(r.values[0], "[-73.910408, 40.877483]");
}

TEST(StatsTest, RatiosClampToOne)
{
    // A record-stream accumulation can exceed the single-document
    // length handed to ratio(); the accessors clamp (stats.h contract).
    FastForwardStats stats;
    stats.add(Group::G1, 500);
    stats.add(Group::G2, 700);
    EXPECT_DOUBLE_EQ(stats.ratio(Group::G1, 100), 1.0);
    EXPECT_DOUBLE_EQ(stats.overallRatio(100), 1.0);
    EXPECT_DOUBLE_EQ(stats.overallRatio(0), 0.0);
    EXPECT_LE(stats.ratio(Group::G1, 1000), 0.5);
}

TEST(Streamer, ChunkSeamReroutesWholeBufferRuns)
{
    // The test main maps JSONSKI_TEST_CHUNK_BYTES onto the seam; the
    // library itself reads no environment variable.
    const char* env = std::getenv("JSONSKI_TEST_CHUNK_BYTES");
    size_t set = env != nullptr && *env != '\0'
                     ? static_cast<size_t>(std::strtoull(env, nullptr, 10))
                     : 0;
    EXPECT_EQ(wholeBufferChunkBytes(), set);
    std::string doc = "[";
    for (int i = 0; i < 100; ++i)
        doc += (i ? ", " : "") + std::string(R"({"a": )") +
               std::to_string(i) + "}";
    doc += "]";
    Streamer solo(parse("$[*].a"));
    MultiStreamer multi(jsonski::path::QuerySet::fromTexts({"$[*].a", "$..a"}));
    auto check = [&](size_t chunk) {
        SCOPED_TRACE("seam " + std::to_string(chunk));
        StreamResult r = solo.run(doc);
        MultiStreamer::Result m = multi.run(doc);
        EXPECT_EQ(r.matches, 100u);
        EXPECT_EQ(m.matches, (std::vector<size_t>{100, 100}));
        EXPECT_EQ(r.ingest.refills > 0, chunk != 0);
        EXPECT_EQ(m.ingest.refills > 0, chunk != 0);
        EXPECT_EQ(solo.runResident(doc).ingest.refills, 0u); // never
    };
    check(set);
    setWholeBufferChunkBytes(64);
    check(64);
    setWholeBufferChunkBytes(0);
    check(0);
    setWholeBufferChunkBytes(set);
}
