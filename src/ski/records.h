/**
 * @file
 * Records mode: a stream of top-level JSON values evaluated on one
 * cursor, the document-stream (iterate_many) design of On-Demand JSON.
 * One classification pass both finds the record boundaries and answers
 * the query; DESIGN.md §7 rule 2 is the contract.
 */
#ifndef JSONSKI_SKI_RECORDS_H
#define JSONSKI_SKI_RECORDS_H

#include <cstddef>

#include "intervals/cursor.h"
#include "ski/skipper.h"
#include "util/error.h"

namespace jsonski::ski {

/**
 * The loop between records, shared by Streamer and MultiStreamer.  It
 * skips whitespace (every byte <= 0x20), rejects a closer
 * (UnbalancedClose) or any other byte that cannot open a record
 * (StrayByte) at that byte, counts the record in @p records, and calls
 * @p value with the cursor on the record's opener.
 *
 * @p value evaluates one top-level value and leaves the cursor just
 * past it, so a record ends where the engine's own pairing closes its
 * root.  When it leaves the cursor unmoved (the query cannot enter the
 * root), the record is passed over uncharged.  An engine error counts
 * as UnterminatedRecord at the record's opening byte when the cursor
 * has seen the end of the stream, and stands at its own stream offset
 * otherwise; either way the first error in stream order wins.
 */
template <class Value>
void
forEachRecord(intervals::StreamCursor& cur, size_t& records, Value&& value)
{
    for (char c; (c = cur.skipWhitespace()) != '\0';) {
        size_t start = cur.pos();
        if (c == '}' || c == ']')
            throw ParseError(ErrorCode::UnbalancedClose, "unbalanced close",
                             start);
        if (c != '{' && c != '[')
            throw ParseError(ErrorCode::StrayByte,
                             "stray character between records", start);
        ++records;
        try {
            value();
            if (cur.pos() == start)
                Skipper(cur).overValue(Group::G2); // no stats: uncharged
        } catch (const ParseError&) {
            if (!cur.endSeen())
                throw;
            throw ParseError(ErrorCode::UnterminatedRecord,
                             "unterminated record", start);
        }
    }
}

} // namespace jsonski::ski

#endif // JSONSKI_SKI_RECORDS_H
