/**
 * @file
 * Shared preamble for the table/figure bench binaries: prints the
 * experiment banner and environment facts that matter when comparing
 * against the paper's numbers.
 */
#ifndef JSONSKI_BENCH_BENCH_COMMON_H
#define JSONSKI_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <thread>

#include "harness/engines.h"
#include "harness/report.h"
#include "kernels/kernel.h"

namespace jsonski::bench {

/** Print the standard banner: what is reproduced and at what scale. */
inline void
banner(const char* artifact, const char* description, size_t bytes)
{
    std::printf("== %s: %s ==\n", artifact, description);
    std::printf("input scale: %.1f MB per dataset "
                "(paper: 1 GB; pass MB as argv[1] or JSONSKI_BENCH_MB)\n",
                static_cast<double>(bytes) / (1024.0 * 1024.0));
    std::printf("hardware threads: %u; SIMD kernel: %s "
                "(runtime-dispatched; JSONSKI_KERNEL overrides)\n\n",
                std::thread::hardware_concurrency(),
                std::string(kernels::activeName()).c_str());
}

/**
 * Attach the fast-forward split of one JSONSki evaluation to the
 * report's current row (one extra untimed run).
 */
inline void
addJsonSkiDetail(harness::BenchReport& report, std::string_view json,
                 const path::PathQuery& query)
{
    ski::FastForwardStats stats;
    harness::runJsonSkiWithStats(json, query, stats);
    report.ffStats(stats, json.size());
}

} // namespace jsonski::bench

#endif // JSONSKI_BENCH_BENCH_COMMON_H
