/**
 * @file
 * Multi-query streaming: evaluate several JSONPath expressions in one
 * pass over the data stream (DESIGN.md §15).
 *
 * The query set is normalized (canonical forms, duplicates collapsed —
 * path/queryset.h) and compiled into one automaton (path::QueryNfa):
 * queries share a state while their prefixes agree, and each has its
 * own ACCEPT state.  The driver is the one every Streamer runs — a
 * lone query is a set of one — so filter and `..` steps run inside
 * the same walk, and whatever no live query cares about is
 * fast-forwarded: G2/G4/G5 skips fire only when *no* live query can
 * match below the skipped region, and an object is abandoned (G4) once
 * every key state of the set has bound.
 *
 * This extends the paper's single-query framework the way JPStream's
 * multi-query support motivates; all fast-forward machinery is reused
 * unchanged.
 */
#ifndef JSONSKI_SKI_MULTI_H
#define JSONSKI_SKI_MULTI_H

#include <cstddef>
#include <string_view>
#include <vector>

#include "intervals/chunk_source.h"
#include "intervals/cursor.h"
#include "path/automaton.h"
#include "path/queryset.h"
#include "ski/stats.h"
#include "ski/streamer.h"

namespace jsonski::ski {

/** Receiver for matches of a multi-query run. */
class MultiSink
{
  public:
    virtual ~MultiSink() = default;

    /**
     * Called once per match.
     * @param query_index *distinct* query id (see
     *        MultiStreamer::querySet(): input positions map onto ids
     *        through QuerySet::id_of, so duplicate input queries share
     *        one match stream).
     * @param value       raw JSON text of the matched value; aliases
     *        the input buffer, valid only during the call.
     */
    virtual void onMatch(size_t query_index, std::string_view value) = 0;
};

/** Sink collecting matches per query. */
class MultiCollectSink : public MultiSink
{
  public:
    explicit MultiCollectSink(size_t queries) : values(queries) {}

    void
    onMatch(size_t query_index, std::string_view value) override
    {
        values[query_index].push_back(std::string(value));
    }

    std::vector<std::vector<std::string>> values;
};

/** See file comment. */
class MultiStreamer
{
  public:
    /**
     * Normalize @p queries (canonicalize, dedup) and compile the set
     * into one automaton.  Duplicate inputs collapse: result/sink
     * indices are *distinct* ids (querySet().id_of maps input
     * positions).
     */
    explicit MultiStreamer(std::vector<path::PathQuery> queries);

    /** Compile an already-normalized set. */
    explicit MultiStreamer(path::QuerySet set);

    /** Outcome of one pass. */
    struct Result
    {
        /** Match count per *distinct* query id. */
        std::vector<size_t> matches;

        /** Whole-pass totals: each byte is charged to one group, and a
         *  kept filter candidate's replay once more (DESIGN.md §13). */
        FastForwardStats stats;

        /** Bytes ingested (see StreamResult::input_bytes). */
        size_t input_bytes = 0;

        /** Records evaluated (records mode only). */
        size_t records = 0;

        /** Chunked-ingestion accounting; zeros for whole-buffer runs. */
        intervals::StreamCursor::IngestStats ingest;
    };

    /** Default refill granularity for chunked runs (64 KiB). */
    static constexpr size_t kDefaultChunkBytes = size_t{1} << 16;

    /**
     * Evaluate all queries over one record in a single pass.
     * setWholeBufferChunkBytes() can reroute it through the chunked
     * path (see Streamer::run).
     */
    Result run(std::string_view json, MultiSink* sink = nullptr) const;

    /**
     * Single-pass evaluation over a record delivered by a ChunkSource;
     * resident memory is bounded as for Streamer::run: @p chunk_bytes
     * plus the largest span still held for a sink or a filter verdict
     * (DESIGN.md §9, §15).
     */
    Result run(intervals::ChunkSource& source, MultiSink* sink = nullptr,
               size_t chunk_bytes = kDefaultChunkBytes) const;

    /** Records mode over a stream, one pass for the whole set (see
     *  Streamer::runRecords). */
    Result runRecords(intervals::ChunkSource& source,
                      MultiSink* sink = nullptr,
                      size_t chunk_bytes = kDefaultChunkBytes) const;

    /** The normalized set (distinct queries, id map, canonical key). */
    const path::QuerySet& querySet() const { return set_; }

    /** The distinct compiled queries (first-occurrence order). */
    const std::vector<path::PathQuery>& queries() const
    {
        return set_.distinct;
    }

    /** Distinct query count (== result/sink index range). */
    size_t queryCount() const { return set_.size(); }

    /** Automaton states; shared-prefix sets compile to fewer. */
    size_t trieNodes() const { return nfa_.size(); }

  private:
    path::QuerySet set_;
    path::QueryNfa nfa_;
};

} // namespace jsonski::ski

#endif // JSONSKI_SKI_MULTI_H
