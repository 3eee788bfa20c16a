/**
 * @file
 * Bit-parallel record scanner: the test oracle for records mode.
 *
 * A JSON data stream often arrives as a sequence of records
 * (concatenated or newline-delimited) *without* an offset table.  The
 * scanner recovers the record spans in a pass of its own, with the
 * same block classification the fast-forward layer uses: inside a
 * record, whole blocks are crossed with two popcounts (depth can
 * provably not reach zero); only blocks where the depth gets close to
 * zero are examined bit by bit.  Its bracket pairing ignores bracket
 * types, so it is independent of the engines' type-aware pairing.
 *
 * Records mode itself (ski/records.h) delimits records on the engine's
 * own cursor; the tests run it against this scanner followed by the
 * engine on each record.  Root-level records must be objects or
 * arrays (the unambiguous case; bare scalars at the top level are
 * rejected).
 */
#ifndef JSONSKI_TESTING_RECORD_SCANNER_H
#define JSONSKI_TESTING_RECORD_SCANNER_H

#include <cstddef>
#include <string_view>
#include <utility>
#include <vector>

namespace jsonski::testing {

/**
 * Scan @p stream and return the (offset, length) span of every
 * complete top-level record.
 *
 * @param tail_start When null, an unterminated trailing record throws.
 *        When non-null, partial input is allowed: *tail_start receives
 *        the offset where the unterminated record begins (or the
 *        position after the last complete record when only whitespace
 *        follows) — the resume point for incremental readers.
 *
 * @throws jsonski::ParseError on stray characters between records,
 *         unbalanced containers, or a scalar at the top level (at the
 *         offending byte), and on an unterminated trailing record when
 *         @p tail_start is null (at the record's opening byte).
 */
std::vector<std::pair<size_t, size_t>>
scanRecords(std::string_view stream, size_t* tail_start = nullptr);

} // namespace jsonski::testing

#endif // JSONSKI_TESTING_RECORD_SCANNER_H
