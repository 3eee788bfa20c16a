/**
 * @file
 * Machine-readable benchmark output: every bench binary builds one
 * BenchReport alongside its printed table and writes it to
 * `BENCH_<artifact>.json` (schema `jsonski-bench-v1`) so performance
 * can be tracked across commits — `scripts/split_bench_output.py
 * --diff old.json new.json` compares two such files.
 *
 * Shape:
 *
 *   {"schema": "jsonski-bench-v1",
 *    "artifact": "fig10_large_record",
 *    "description": "...", "input_bytes": N, "threads": N,
 *    "kernel": "avx2",
 *    "rows": [{"query": "BB1", "engine": "JSONSki",
 *              "seconds": s, "gbps": g, ...,
 *              "ff": {"G1": bytes, ..., "overall_ratio": r}}, ...]}
 *
 * Rows are flat name→value maps; which metrics a row carries depends
 * on the bench.  The destination directory is $JSONSKI_BENCH_JSON_DIR
 * when set, else the current working directory.
 */
#ifndef JSONSKI_HARNESS_REPORT_H
#define JSONSKI_HARNESS_REPORT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/runner.h"
#include "ski/stats.h"

namespace jsonski::harness {

/** See file comment. */
class BenchReport
{
  public:
    BenchReport(std::string_view artifact, std::string_view description)
        : artifact_(artifact), description_(description)
    {}

    void inputBytes(size_t bytes) { input_bytes_ = bytes; }
    void threads(size_t n) { threads_ = n; }

    /** Start a new row; subsequent metric calls attach to it. */
    void beginRow(std::string_view query, std::string_view engine);

    /** Attach one numeric metric to the current row. */
    void metric(std::string_view name, double value);
    void metric(std::string_view name, uint64_t value);

    /** Attach one string-valued field to the current row. */
    void text(std::string_view name, std::string_view value);

    /** seconds / median / rel_stddev / runs / matches / gbps. */
    void timing(const Timing& t, size_t bytes_processed);

    /** Per-group skipped bytes + ratios + overall ratio ("ff"). */
    void ffStats(const ski::FastForwardStats& s, size_t input_len);

    /** Whole report as a JSON document. */
    std::string toJson() const;

    /**
     * Write BENCH_<artifact>.json into $JSONSKI_BENCH_JSON_DIR (or the
     * cwd) and print the path; returns false (with a diagnostic on
     * stderr) if the file cannot be written.
     */
    bool write() const;

  private:
    struct Row
    {
        std::string query;
        std::string engine;
        /** Field name → pre-rendered JSON value, in insertion order. */
        std::vector<std::pair<std::string, std::string>> fields;
    };

    void rawField(std::string_view name, std::string json_value);

    std::string artifact_;
    std::string description_;
    size_t input_bytes_ = 0;
    size_t threads_ = 1;
    std::vector<Row> rows_;
};

} // namespace jsonski::harness

#endif // JSONSKI_HARNESS_REPORT_H
