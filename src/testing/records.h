/**
 * @file
 * Records-mode test rig: Plan::run over a record stream, and the
 * two-pass oracle it must agree with (DESIGN.md §7 rule 2).
 *
 * The oracle splits the stream with scanRecords, runs the plan's
 * engine on each record on its own (error positions rebased by the
 * record's start), and reports the scanner's error, if any, last.  On
 * a valid stream records mode must match it exactly: values in order,
 * per-query counts, G1–G5 bytes and the record count.  On damaged
 * streams they agree on the error wherever the contract says so; the
 * records wall and the fuzz harness's records leg decide which cases
 * those are.
 */
#ifndef JSONSKI_TESTING_RECORDS_H
#define JSONSKI_TESTING_RECORDS_H

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "service/plan_cache.h"
#include "util/error.h"

namespace jsonski::testing {

/** Everything observable from one records-mode run. */
struct RecordsRun
{
    bool threw = false; ///< a ParseError ended the run
    ErrorCode code = ErrorCode::Unspecified;
    size_t position = 0;
    std::string what;

    /** (distinct query, value) per match, in delivery order. */
    std::vector<std::pair<size_t, std::string>> values;

    /** Counts, stats and the record count of a run that succeeded. */
    service::RunResult result;

    /** The oracle's records: (offset, length) of each one scanRecords
     *  delimited before its error, if any. */
    std::vector<std::pair<size_t, size_t>> spans;
};

/**
 * Plan::run in records mode over @p stream, delivered by a SplitSource
 * in @p chunk-byte pieces and read with @p chunk-byte refills; 0 means
 * the whole stream in one piece.
 */
RecordsRun runRecords(const service::Plan& plan, std::string_view stream,
                      size_t chunk);

/** The oracle of the file comment. */
RecordsRun recordsOracle(const service::Plan& plan,
                         std::string_view stream);

} // namespace jsonski::testing

#endif // JSONSKI_TESTING_RECORDS_H
