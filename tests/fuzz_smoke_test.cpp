/**
 * @file
 * Time-boxed differential fuzz smoke run, registered as a ctest so the
 * malformed-input contract is re-proven on every build (including the
 * ASan+UBSan CI job).  Ten thousand seeded mutants across every
 * generator dataset; JSONSKI_FUZZ_MUTANTS overrides the budget for
 * longer local or CI soaks.
 */
#include "testing/differential.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "json/validate.h"
#include "kernels/kernel.h"
#include "path/parser.h"
#include "testing/mutator.h"
#include "util/error.h"

using namespace jsonski;
// gtest also owns a ::testing namespace; alias ours unambiguously.
namespace jt = jsonski::testing;

namespace {

size_t
mutantBudget()
{
    if (const char* env = std::getenv("JSONSKI_FUZZ_MUTANTS")) {
        long v = std::atol(env);
        if (v > 0)
            return static_cast<size_t>(v);
    }
    return 10000;
}

} // namespace

TEST(FuzzSmoke, CorpusIsValidAndCoversEveryDataset)
{
    auto corpus = jt::defaultCorpus();
    // 6 datasets x (up to 4 small records + 1 large) + 3 handcrafted.
    EXPECT_GE(corpus.size(), 6u * 2u + 3u);
    for (const std::string& doc : corpus)
        EXPECT_TRUE(json::validate(doc)) << doc.substr(0, 120);
}

TEST(FuzzSmoke, MutatorIsDeterministic)
{
    jt::StructuredMutator a(99), b(99);
    std::string doc = R"({"k":[1,2,{"x":"y"}],"m":"z"})";
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(a.mutate(doc), b.mutate(doc));
}

TEST(FuzzSmoke, MutatorActuallyMutates)
{
    jt::StructuredMutator m(7);
    std::string doc = R"({"k":[1,2,3],"m":"z"})";
    size_t changed = 0, invalid = 0;
    for (int i = 0; i < 200; ++i) {
        std::vector<jt::Mutation> edits;
        std::string mut = m.mutate(doc, &edits);
        changed += mut != doc;
        invalid += !json::validate(mut);
        EXPECT_FALSE(edits.empty() && mut != doc);
    }
    // The corpus must be genuinely damaged most of the time.
    EXPECT_GT(changed, 150u);
    EXPECT_GT(invalid, 100u);
}

TEST(FuzzSmoke, QueryMutatorIsDeterministic)
{
    jt::QueryMutator a(31), b(31);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.wellFormed(), b.wellFormed());
        EXPECT_EQ(a.nearMiss(), b.nearMiss());
    }
}

TEST(FuzzSmoke, WellFormedQueriesAlwaysParseAndRoundTrip)
{
    jt::QueryMutator m(12021);
    size_t with_filter = 0, with_descendant = 0, non_canonical = 0;
    for (int i = 0; i < 2000; ++i) {
        std::string text = m.wellFormed();
        path::PathQuery q;
        ASSERT_NO_THROW(q = path::parse(text)) << text;
        with_filter += q.hasFilter();
        with_descendant += q.hasDescendant();
        non_canonical += q.toString() != text;
        // The canonical form is a parse fixed point (plan-cache key).
        EXPECT_EQ(path::parse(q.toString()), q) << text;
    }
    // The generator must exercise the new grammar surface, including
    // non-canonical whitespace spellings that normalize away.
    EXPECT_GT(with_filter, 400u);
    EXPECT_GT(with_descendant, 400u);
    EXPECT_GT(non_canonical, 100u);
}

TEST(FuzzSmoke, NearMissesRejectCleanlyOrParse)
{
    jt::QueryMutator m(777);
    size_t rejected = 0, accepted = 0;
    for (int i = 0; i < 2000; ++i) {
        std::string text = m.nearMiss();
        try {
            (void)path::parse(text);
            ++accepted;
        } catch (const PathError& e) {
            ++rejected;
            // Rejections must point inside the text they reject.
            if (e.position() != PathError::kNoPosition) {
                EXPECT_LE(e.position(), text.size()) << text;
            }
        }
        // Anything else (std::exception, crash) fails the test.
    }
    // Single-byte damage must usually break the grammar, but some
    // edits stay legal — both outcomes must occur.
    EXPECT_GT(rejected, 1000u);
    EXPECT_GT(accepted, 0u);
}

TEST(FuzzSmoke, TenThousandMutantsNoDivergenceNoEscape)
{
    jt::FuzzConfig config;
    config.seed = 20260805;
    config.mutants = mutantBudget();
    config.corpus = jt::defaultCorpus();
    config.queries = jt::defaultQueries();

    jt::FuzzReport report = jt::runDifferentialFuzz(config);

    EXPECT_EQ(report.executed, config.mutants);
    EXPECT_GT(report.valid_mutants, 0u);
    EXPECT_GT(report.invalid_mutants, 0u);
    // Damage must actually be detected sometimes, not just skipped.
    EXPECT_GT(report.parse_errors, 0u);
    // The seam-hunting mode must have replayed mutants through the
    // chunked path with forced seams (several per mutant on average).
    EXPECT_GT(report.seam_replays, report.executed);
    // On multi-kernel hosts every mutant must also have been replayed
    // under each alternate SIMD kernel (unless the environment pinned
    // the replay set via JSONSKI_TEST_KERNELS).
    if (kernels::runnable().size() > 1 &&
        std::getenv("JSONSKI_TEST_KERNELS") == nullptr) {
        EXPECT_GE(report.kernel_replays, report.executed / 2);
    }
    // The grammar leg must have run one generated query per mutant and
    // seen the parser reject a healthy share of the near-misses.
    EXPECT_EQ(report.grammar_runs, report.executed);
    EXPECT_GT(report.grammar_rejects, report.executed / 4);
    // The index leg must have replayed the warm path for a healthy
    // share of the mutants (only ones whose streaming run escaped are
    // skipped).
    EXPECT_GE(report.index_replays, report.executed / 2);
    // The records leg must have run every mutant as a record stream.
    EXPECT_EQ(report.records_runs, report.executed);
    // The query-set leg must have run one batched-vs-sequential pass
    // per mutant, and the near-miss-salted sets must have been
    // rejected atomically a healthy share of the time.
    EXPECT_EQ(report.set_runs, report.executed);
    EXPECT_GT(report.set_rejects, report.executed / 4);
    std::string details;
    for (const std::string& f : report.failures)
        details += "\n  " + f;
    EXPECT_TRUE(report.ok())
        << report.divergences << " divergences, " << report.escapes
        << " escapes:" << details;
}
