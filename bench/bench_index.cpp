/**
 * @file
 * Extension experiment: the cached structural semi-index
 * (DESIGN.md §14) on the build-once / query-many workload it exists
 * for.
 *
 * Three regimes per dataset, same query, same bytes:
 *  - streaming:     the plain one-pass JSONSki run (no index anywhere);
 *  - cold-indexed:  build the semi-index AND answer the query — the
 *                   price of the *first* query against a document;
 *  - warm-indexed:  answer from an already-cached index — every query
 *                   after the first (a jsqd doc= cache hit).
 *
 * Warm < cold always holds (cold = warm + the build); the interesting
 * number is warm vs streaming — how much of the stream time the
 * precomputed colon/comma/open/close bitmaps buy back — plus the
 * in-memory footprint that residency costs (index_memory_bytes).
 */
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "gen/datasets.h"
#include "harness/runner.h"
#include "index/structural_index.h"
#include "path/parser.h"
#include "ski/streamer.h"

using namespace jsonski;
using namespace jsonski::harness;

int
main(int argc, char** argv)
{
    size_t bytes = benchBytes(argc, argv, 32);
    bench::banner("Extension: cached structural semi-index",
                  "cold build+query vs warm cache-hit query, "
                  "total time (s)",
                  bytes);

    BenchReport report("index",
                       "semi-index cold/warm vs plain streaming");

    printTableHeader({"Query", "streaming", "cold(bld+q)", "warm",
                      "warm-speedup"},
                     {7, 12, 12, 12, 13});
    for (const QuerySpec& spec : paperQueries()) {
        // One query per dataset is enough for the trend; the "1"
        // queries are the deep-descent ones where skips dominate.
        if (spec.id.back() != '1')
            continue;
        std::string json = generateLarge(spec.dataset, bytes);
        report.inputBytes(json.size());
        auto q = path::parse(std::string(spec.large_query));
        ski::Streamer streamer(q);

        Timing t_stream =
            timeBest([&] { return streamer.run(json).matches; }, 3);
        Timing t_cold = timeBest(
            [&] {
                index::StructuralIndex ix =
                    index::StructuralIndex::build(json);
                return streamer.runIndexed(json, ix).matches;
            },
            3);
        index::StructuralIndex ix = index::StructuralIndex::build(json);
        Timing t_warm = timeBest(
            [&] { return streamer.runIndexed(json, ix).matches; }, 3);

        if (t_stream.matches != t_warm.matches ||
            t_stream.matches != t_cold.matches)
            std::printf("!! regimes disagree on %s\n",
                        std::string(spec.id).c_str());

        double speedup = t_warm.seconds > 0
                             ? t_stream.seconds / t_warm.seconds
                             : 0;
        char spd[32];
        std::snprintf(spd, sizeof spd, "%.2fx", speedup);
        printTableRow({std::string(spec.id), fmtSeconds(t_stream.seconds),
                       fmtSeconds(t_cold.seconds),
                       fmtSeconds(t_warm.seconds), spd},
                      {7, 12, 12, 12, 13});

        report.beginRow(spec.id, "streaming");
        report.timing(t_stream, json.size());
        report.beginRow(spec.id, "cold-indexed");
        report.timing(t_cold, json.size());
        report.beginRow(spec.id, "warm-indexed");
        report.timing(t_warm, json.size());
        report.metric("index_memory_bytes", uint64_t(ix.memoryBytes()));
        report.metric("index_usable", uint64_t(ix.usable() ? 1 : 0));
    }
    report.write();
    std::printf("\n(cold = build + query, what the first doc= request "
                "pays; warm = query against the cached index, what "
                "every later request pays.)\n");
    return 0;
}
