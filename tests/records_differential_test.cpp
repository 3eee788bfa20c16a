/**
 * @file
 * Records wall: records mode of service::Plan::run (one cursor over
 * the whole stream) against the two-pass oracle of testing/records.h —
 * scanRecords, then the engine on each record, the scanner's error
 * last.  It covers the generateSmall streams of all six datasets, the
 * Table 5 small-record queries, a three-query list, a descendant and
 * two filter queries, the chunk ladder {1, 7, 64, 4096, whole}, and
 * every runnable kernel.
 *
 * A valid stream must agree exactly: values in order, per-query counts
 * and suffix work, G1–G5 bytes, record and byte counts; every (chunk,
 * kernel) pair runs.  A damaged stream must fail with the oracle's
 * ErrorCode at the oracle's position: the stream cut at every byte of
 * its last record, and a stray byte, a '}' or a scalar inserted after
 * each of its first 20 records.  The damage probes rotate through the
 * (chunk, kernel) pairs, one pair per probe, which keeps the wall
 * within a few seconds; for the same reason a GMD record (20-150 KiB)
 * is cut at every byte of its first and last 32 and at every 1999th
 * byte between.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "gen/datasets.h"
#include "kernels/kernel.h"
#include "service/plan_cache.h"
#include "testing/records.h"

using namespace jsonski;
using jsonski::testing::RecordsRun;
using jsonski::testing::recordsOracle;
using jsonski::testing::runRecords;

namespace {

/** Chunk ladder; 0 = the whole stream in one chunk. */
const std::vector<size_t> kChunks = {1, 7, 64, 4096, 0};

/** The query lists every stream runs under. */
const std::vector<std::string> kLists = {
    // Table 5, small-record form (benchmark/workloads/queries.tsv).
    "$.en.urls[*].url", "$.text", "$.cp[1:3].id", "$.vc[*].cha",
    "$.rt[*].lg[*].st[*].dt.tx", "$.atm", "$[*][2:4]", "$.bmrpr.pr",
    "$.nm", "$.cl.P150[*].ms.pty",
    // One pass for a list, with a descendant and a filter suffix.
    "$.nm,$..id,$.cp[?(@.id>1)].id",
    "$..id",
    "$.cp[?(@.id>1)].id",
    // An interior descendant: the nondeterministic driver.
    "$..cp[?(@.id>1)].id",
};

/** kLists, compiled. */
const std::vector<std::shared_ptr<const service::Plan>>&
plans()
{
    static const auto compiled = [] {
        std::vector<std::shared_ptr<const service::Plan>> out;
        for (const std::string& list : kLists)
            out.push_back(service::compilePlan(list));
        return out;
    }();
    return compiled;
}

/** The stream of one dataset: at least 21 records where records are
 *  small, one ~100 KiB record for GMD. */
gen::SmallRecords
streamOf(gen::DatasetId id)
{
    return gen::generateSmall(id, 16 * 1024);
}

/** Collects the first few disagreements of a whole sweep. */
class Wall
{
  public:
    /** Valid stream: everything observable must agree. */
    void
    same(const RecordsRun& got, const RecordsRun& want,
         const std::string& ctx)
    {
        if (want.threw)
            return fail("oracle rejected a valid stream: " + want.what, ctx);
        if (got.threw)
            return fail("threw on a valid stream: " + got.what, ctx);
        const service::RunResult& g = got.result;
        const service::RunResult& w = want.result;
        if (got.values != want.values)
            return fail("values: " + std::to_string(got.values.size()) +
                            " vs " + std::to_string(want.values.size()),
                        ctx);
        if (g.matches != w.matches)
            return fail("per-query counts", ctx);
        if (g.stats.skipped != w.stats.skipped)
            return fail("G1-G5 bytes", ctx);
        if (g.per_query.size() != w.per_query.size())
            return fail("per-query stats size", ctx);
        for (size_t qi = 0; qi < w.per_query.size(); ++qi)
            if (g.per_query[qi].skipped != w.per_query[qi].skipped)
                return fail("suffix work of query " + std::to_string(qi),
                            ctx);
        if (g.records != w.records || g.input_bytes != w.input_bytes)
            return fail("records " + std::to_string(g.records) + " vs " +
                            std::to_string(w.records) + ", bytes " +
                            std::to_string(g.input_bytes) + " vs " +
                            std::to_string(w.input_bytes),
                        ctx);
    }

    /** Damaged stream: the oracle's error, code and position. */
    void
    sameError(const RecordsRun& got, const RecordsRun& want,
              const std::string& ctx)
    {
        if (!want.threw)
            return fail("crafting error: the oracle accepted the damage",
                        ctx);
        if (!got.threw)
            return fail("accepted damage the oracle reports as " +
                            want.what,
                        ctx);
        if (got.code != want.code || got.position != want.position)
            return fail(got.what + " vs oracle " + want.what, ctx);
    }

    size_t failures() const { return failures_; }

  private:
    void
    fail(const std::string& what, const std::string& ctx)
    {
        if (++failures_ <= 10)
            ADD_FAILURE() << what << " [" << ctx << "]";
    }

    size_t failures_ = 0;
};

std::string
context(gen::DatasetId id, const std::string& list, size_t chunk,
        const std::string& what = "")
{
    return std::string(gen::datasetName(id)) + " " + list +
           " chunk=" + std::to_string(chunk) +
           " kernel=" + std::string(kernels::activeName()) +
           (what.empty() ? "" : " " + what);
}

/**
 * Damage probe number @p n: every list over @p damaged, each under the
 * next (chunk, kernel) pair in rotation.
 */
void
probe(Wall& wall, gen::DatasetId id, const std::string& damaged,
      size_t n, const std::string& what)
{
    static const std::vector<const kernels::Kernel*> kerns =
        kernels::runnable();
    for (size_t i = 0; i < kLists.size(); ++i) {
        size_t pair = n * kLists.size() + i;
        size_t chunk = kChunks[pair % kChunks.size()];
        kernels::Override guard(
            *kerns[pair / kChunks.size() % kerns.size()]);
        const service::Plan& plan = *plans()[i];
        wall.sameError(runRecords(plan, damaged, chunk),
                       recordsOracle(plan, damaged),
                       context(id, kLists[i], chunk, what));
    }
}

} // namespace

TEST(RecordsDifferential, ValidStreamsMatchTheOracle)
{
    Wall wall;
    for (gen::DatasetId id : gen::kAllDatasets) {
        std::string stream = streamOf(id).buffer;
        for (size_t i = 0; i < kLists.size(); ++i) {
            for (const kernels::Kernel* kern : kernels::runnable()) {
                kernels::Override guard(*kern);
                RecordsRun want = recordsOracle(*plans()[i], stream);
                for (size_t chunk : kChunks)
                    wall.same(runRecords(*plans()[i], stream, chunk), want,
                              context(id, kLists[i], chunk));
            }
        }
    }
    EXPECT_EQ(wall.failures(), 0u);
}

TEST(RecordsDifferential, StreamsCutInTheLastRecordFailLikeTheOracle)
{
    Wall wall;
    for (gen::DatasetId id : gen::kAllDatasets) {
        // A few records: every cut re-runs the whole prefix.
        gen::SmallRecords small = gen::generateSmall(id, 2048);
        auto [start, len] = small.spans.back();
        size_t n = 0;
        for (size_t cut = start + 1; cut < start + len; ++cut) {
            size_t into = cut - start;
            if (len > 4096 && into > 32 && len - into > 32 &&
                into % 1999 != 0)
                continue;
            probe(wall, id, small.buffer.substr(0, cut), n++,
                  "cut at " + std::to_string(cut));
        }
    }
    EXPECT_EQ(wall.failures(), 0u);
}

TEST(RecordsDifferential, BytesBetweenRecordsFailLikeTheOracle)
{
    Wall wall;
    for (gen::DatasetId id : gen::kAllDatasets) {
        gen::SmallRecords small = streamOf(id);
        size_t n = 0;
        for (size_t i = 0; i < small.count() && i < 20; ++i) {
            size_t at = small.spans[i].first + small.spans[i].second;
            for (const char* insert : {"x", "}", " 42"}) {
                std::string damaged = small.buffer;
                damaged.insert(at, insert);
                probe(wall, id, damaged, n++,
                      std::string("'") + insert + "' at " +
                          std::to_string(at));
            }
        }
    }
    EXPECT_EQ(wall.failures(), 0u);
}
