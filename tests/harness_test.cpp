/** @file Tests for the experiment harness (engines + runner). */
#include "harness/engines.h"
#include "harness/runner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "harness/report.h"
#include "json/validate.h"
#include "path/parser.h"

using namespace jsonski::harness;
using jsonski::ThreadPool;
using jsonski::gen::DatasetId;
using jsonski::path::parse;

TEST(Engines, AllFiveConstruct)
{
    auto engines = makeAllEngines();
    ASSERT_EQ(engines.size(), 5u);
    std::vector<std::string_view> names;
    for (const auto& e : engines)
        names.push_back(e->name());
    EXPECT_EQ(names, (std::vector<std::string_view>{
                         "JPStream", "RapidJSON-like", "simdjson-like",
                         "Pison-like", "JSONSki"}));
}

TEST(Engines, AgreeOnGeneratedDataset)
{
    std::string json =
        jsonski::gen::generateLarge(DatasetId::BB, 256 * 1024);
    auto q = parse("$.pd[*].cp[1:3].id");
    auto engines = makeAllEngines();
    size_t reference = engines[0]->run(json, q);
    EXPECT_GT(reference, 0u);
    for (const auto& e : engines)
        EXPECT_EQ(e->run(json, q), reference) << e->name();
}

TEST(Engines, ParallelLargeAgreesWithSerial)
{
    std::string json =
        jsonski::gen::generateLarge(DatasetId::TT, 256 * 1024);
    auto q = parse("$[*].en.urls[*].url");
    ThreadPool pool(4);
    for (const auto& e : makeAllEngines()) {
        if (!e->supportsParallelLarge())
            continue;
        EXPECT_EQ(e->runParallelLarge(json, q, pool), e->run(json, q))
            << e->name();
    }
}

TEST(Engines, PaperQueryTableIsComplete)
{
    const auto& queries = paperQueries();
    ASSERT_EQ(queries.size(), 12u);
    // Each dataset appears exactly twice.
    for (DatasetId id : jsonski::gen::kAllDatasets) {
        int count = 0;
        for (const auto& q : queries)
            count += q.dataset == id;
        EXPECT_EQ(count, 2) << jsonski::gen::datasetName(id);
    }
    // Exactly two queries are excluded from the small-record scenario
    // (NSPL1 and WP2, as in the paper).
    int excluded = 0;
    for (const auto& q : queries)
        excluded += q.small_query.empty();
    EXPECT_EQ(excluded, 2);
    // All query strings parse.
    for (const auto& q : queries) {
        EXPECT_NO_THROW(parse(q.large_query)) << q.id;
        if (!q.small_query.empty()) {
            EXPECT_NO_THROW(parse(q.small_query)) << q.id;
        }
    }
}

TEST(Engines, JsonSkiStatsInstrumentation)
{
    std::string json =
        jsonski::gen::generateLarge(DatasetId::WM, 128 * 1024);
    jsonski::ski::FastForwardStats stats;
    size_t n = runJsonSkiWithStats(json, parse("$.it[*].nm"), stats);
    EXPECT_GT(n, 0u);
    EXPECT_GT(stats.overallRatio(json.size()), 0.5);
}

TEST(Runner, TimeBestReturnsMatches)
{
    Timing t = timeBest([] { return size_t{42}; }, 2);
    EXPECT_EQ(t.matches, 42u);
    EXPECT_GE(t.seconds, 0.0);
    EXPECT_LT(t.seconds, 1.0);
}

TEST(Runner, TimeBestReportsSpread)
{
    Timing t = timeBest([] { return size_t{1}; }, 3);
    EXPECT_GE(t.runs, 3);
    // best <= median, and the spread statistics are finite and sane.
    EXPECT_LE(t.seconds, t.median);
    EXPECT_GE(t.rel_stddev, 0.0);
    EXPECT_TRUE(std::isfinite(t.rel_stddev));
}

TEST(Runner, TimeBestThrowsOnMatchDisagreement)
{
    // A workload whose result changes between repeats is a broken
    // benchmark; timeBest must fail loudly instead of reporting a
    // throughput for it.  The counter survives the warm-up runs, so
    // the timed repeats each see a distinct value.
    size_t calls = 0;
    EXPECT_THROW(timeBest([&] { return ++calls; }, 3),
                 std::runtime_error);
}

TEST(Report, EmitsValidJson)
{
    BenchReport report("unit_test", "report smoke test");
    report.inputBytes(1024);
    report.threads(2);
    report.beginRow("Q1", "JSONSki");
    Timing t = timeBest([] { return size_t{5}; }, 2);
    report.timing(t, 1024);
    report.metric("extra", static_cast<uint64_t>(7));
    report.text("note", "quoted \"value\"");
    report.beginRow("Q1", "other-engine");
    report.metric("score", 0.5);
    std::string out = report.toJson();
    auto v = jsonski::json::validate(out);
    ASSERT_TRUE(v.ok) << v.message << " at " << v.error_position << "\n"
                      << out;
    EXPECT_NE(out.find("\"schema\":\"jsonski-bench-v1\""),
              std::string::npos);
    EXPECT_NE(out.find("\"artifact\":\"unit_test\""), std::string::npos);
    EXPECT_NE(out.find("\"gbps\""), std::string::npos);
    EXPECT_NE(out.find("\"median_seconds\""), std::string::npos);
    EXPECT_NE(out.find("quoted \\\"value\\\""), std::string::npos);
}

TEST(Report, WriteCreatesAMissingJsonDir)
{
    namespace fs = std::filesystem;
    fs::path root = fs::path(::testing::TempDir()) /
                    ("jsonski_report_" + std::to_string(::getpid()));
    fs::path dir = root / "nested" / "missing";
    fs::remove_all(root);
    ASSERT_EQ(::setenv("JSONSKI_BENCH_JSON_DIR", dir.c_str(), 1), 0);
    BenchReport report("unit_test_dir", "missing output directory");
    report.beginRow("Q1", "JSONSki");
    bool ok = report.write();
    ::unsetenv("JSONSKI_BENCH_JSON_DIR");
    EXPECT_TRUE(ok);
    EXPECT_TRUE(fs::exists(dir / "BENCH_unit_test_dir.json"));
    fs::remove_all(root);
}

TEST(Report, FfStatsSectionMatchesAccounting)
{
    jsonski::ski::FastForwardStats stats;
    stats.add(jsonski::ski::Group::G1, 600);
    stats.add(jsonski::ski::Group::G4, 100);
    BenchReport report("unit_test_ff", "ff section");
    report.beginRow("Q", "JSONSki");
    report.ffStats(stats, 1000);
    std::string out = report.toJson();
    ASSERT_TRUE(jsonski::json::validate(out).ok) << out;
    EXPECT_NE(out.find("\"G1\":600"), std::string::npos) << out;
    EXPECT_NE(out.find("\"G4\":100"), std::string::npos);
    EXPECT_NE(out.find("\"overall_ratio\":0.7"), std::string::npos);
}

TEST(Runner, ComputeStats)
{
    DatasetStats s = computeStats(R"({"a":[1,{"b":2}],"c":"x"})");
    EXPECT_EQ(s.objects, 2u);
    EXPECT_EQ(s.arrays, 1u);
    EXPECT_EQ(s.attributes, 3u);
    EXPECT_EQ(s.primitives, 3u);
    EXPECT_EQ(s.max_depth, 3u);
}

TEST(Runner, SmallSerialVsParallel)
{
    auto data = jsonski::gen::generateSmall(DatasetId::WM, 256 * 1024);
    auto q = parse("$.nm");
    auto engine = makeEngine(Method::JsonSki);
    size_t serial = runSmallSerial(*engine, data, q);
    ThreadPool pool(4);
    size_t parallel = runSmallParallel(*engine, data, q, pool);
    EXPECT_EQ(serial, parallel);
    EXPECT_EQ(serial, data.count());
}

TEST(Runner, Formatting)
{
    EXPECT_EQ(fmtSeconds(1.23456), "1.2346");
    EXPECT_EQ(fmtPercent(0.9944), "99.44%");
    EXPECT_EQ(fmtMb(1024 * 1024), "1.0 MB");
}

TEST(Runner, BenchBytesDefaults)
{
    char prog[] = "bench";
    char* argv1[] = {prog, nullptr};
    unsetenv("JSONSKI_BENCH_MB");
    EXPECT_EQ(benchBytes(1, argv1, 32), 32u * 1024 * 1024);
    char arg[] = "8";
    char* argv2[] = {prog, arg, nullptr};
    EXPECT_EQ(benchBytes(2, argv2, 32), 8u * 1024 * 1024);
}
