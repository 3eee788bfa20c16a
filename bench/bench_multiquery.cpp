/**
 * @file
 * Multi-query batching sweep: one combined pass vs N sequential
 * single-query passes at N in {1, 10, 100, 1000}, for shared-prefix
 * and disjoint query-set shapes (DESIGN.md §15; "earliest query
 * answering over streamed trees" is the theory reference).  The
 * headline number is the speedup at 1000 shared-prefix queries — the
 * standing-query fan-out workload where the sequential baseline pays
 * 1000 full scans of the same bytes.
 *
 * Emits BENCH_multiquery.json (schema jsonski-bench-v1): a sequential
 * and a batched row per (shape, N) with wall time, throughput, the
 * query count, and the batched pass's fast-forward total.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gen/datasets.h"
#include "harness/runner.h"
#include "path/parser.h"
#include "path/queryset.h"
#include "ski/multi.h"
#include "ski/streamer.h"

using namespace jsonski;
using namespace jsonski::harness;

namespace {

/**
 * N queries sharing the `$.pd[*]` prefix: a few that select real BB
 * record fields plus generated never-matching siblings — the shape a
 * tenant's standing-query list takes (everyone watches the same
 * collection, each for a different attribute).
 */
std::vector<std::string>
sharedPrefixSet(size_t n)
{
    const char* real[] = {"$.pd[*].name", "$.pd[*].price",
                          "$.pd[*].cp[0].id", "$.pd[*].vc[0].cha"};
    std::vector<std::string> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        if (i < sizeof(real) / sizeof(real[0]))
            out.emplace_back(real[i]);
        else
            out.push_back("$.pd[*].f" + std::to_string(i));
    }
    return out;
}

/** N queries with disjoint first steps: no shared trie structure. */
std::vector<std::string>
disjointSet(size_t n)
{
    std::vector<std::string> out;
    out.reserve(n);
    out.emplace_back("$.pd[0].name"); // one live query among the noise
    for (size_t i = 1; i < n; ++i)
        out.push_back("$.r" + std::to_string(i) + ".id");
    return out;
}

} // namespace

int
main(int argc, char** argv)
{
    size_t bytes = benchBytes(argc, argv, 8);
    bench::banner("multiquery",
                  "batched query-set pass vs N sequential passes", bytes);

    std::string json = gen::generateLarge(gen::DatasetId::BB, bytes);

    struct Shape
    {
        const char* name;
        std::vector<std::string> (*make)(size_t);
    };
    const Shape shapes[] = {{"shared-prefix", sharedPrefixSet},
                            {"disjoint", disjointSet}};
    const size_t counts[] = {1, 10, 100, 1000};

    BenchReport report("multiquery",
                       "batched query-set pass vs N sequential passes");
    report.inputBytes(bytes);

    printTableHeader({"Shape", "N", "sequential (s)", "batched (s)",
                      "speedup", "matches"},
                     {14, 5, 14, 14, 8, 10});
    double speedup_1000_shared = 0;
    for (const Shape& shape : shapes) {
        for (size_t n : counts) {
            std::vector<std::string> texts = shape.make(n);
            std::vector<ski::Streamer> solos;
            solos.reserve(texts.size());
            for (const std::string& t : texts)
                solos.emplace_back(path::parse(t));

            // Fewer repeats at the largest N: the sequential baseline
            // alone is ~N full scans per repeat.
            int repeats = n >= 1000 ? 2 : 3;
            Timing sequential = timeBest(
                [&] {
                    size_t total = 0;
                    for (const ski::Streamer& s : solos)
                        total += s.run(json).matches;
                    return total;
                },
                repeats);

            ski::MultiStreamer multi(path::QuerySet::fromTexts(texts));
            uint64_t ff_batched = 0;
            Timing batched = timeBest(
                [&] {
                    auto r = multi.run(json);
                    ff_batched = r.stats.total();
                    size_t total = 0;
                    for (size_t m : r.matches)
                        total += m;
                    return total;
                },
                repeats);

            if (sequential.matches != batched.matches)
                std::printf("!! match counts disagree: %s N=%zu "
                            "(sequential %zu, batched %zu)\n",
                            shape.name, n, sequential.matches,
                            batched.matches);
            double speedup = sequential.seconds / batched.seconds;
            if (n == 1000 && std::string(shape.name) == "shared-prefix")
                speedup_1000_shared = speedup;
            char spd[16];
            std::snprintf(spd, sizeof(spd), "%.2fx", speedup);
            printTableRow({shape.name, std::to_string(n),
                           fmtSeconds(sequential.seconds),
                           fmtSeconds(batched.seconds), spd,
                           std::to_string(batched.matches)},
                          {14, 5, 14, 14, 8, 10});

            std::string label =
                std::string(shape.name) + "/N=" + std::to_string(n);
            report.beginRow(label, "sequential");
            report.timing(sequential, json.size() * texts.size());
            report.metric("queries", static_cast<uint64_t>(n));
            report.beginRow(label, "batched");
            report.timing(batched, json.size());
            report.metric("queries", static_cast<uint64_t>(n));
            report.metric("ff_bytes", ff_batched);
            report.metric("trie_nodes",
                          static_cast<uint64_t>(multi.trieNodes()));
        }
    }
    report.write();

    std::printf("\nexpected: batched time tracks ONE scan while the "
                "sequential baseline scales with N; the acceptance bar "
                "is >=5x at N=1000 shared-prefix (got %.1fx).\n",
                speedup_1000_shared);
    return speedup_1000_shared >= 5.0 ? 0 : 1;
}
