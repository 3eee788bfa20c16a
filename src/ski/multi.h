/**
 * @file
 * Multi-query streaming: evaluate several JSONPath expressions in one
 * pass over the data stream (DESIGN.md §15).
 *
 * The query set is normalized (canonical forms, duplicates collapsed —
 * path/queryset.h) and the plain-step prefixes are compiled into a
 * prefix trie whose nodes carry per-level bitsets of the distinct
 * queries still live below them.  The driver walks the stream once
 * with a *set* of active trie nodes per level and fast-forwards
 * whatever no live query cares about: G2/G4/G5 skips fire only when
 * *no* live query can match below the skipped region.  The G4
 * optimization generalizes: an object is abandoned once every distinct
 * attribute name any active query could match has been seen.
 *
 * Queries with a filter or descendant step share the trie up to their
 * first such step; the divergent suffix is compiled into a per-query
 * single-query Streamer and replayed over the (held-resident) value
 * span at the divergence point, so the full query surface — filters,
 * descendants at any position — batches into the one pass.
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
#include "path/ast.h"
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
     * into one trie.  Duplicate inputs collapse: result/sink indices
     * are *distinct* ids (querySet().id_of maps input positions).
     */
    explicit MultiStreamer(std::vector<path::PathQuery> queries);

    /** Compile an already-normalized set. */
    explicit MultiStreamer(path::QuerySet set);

    /** Outcome of one pass. */
    struct Result
    {
        /** Match count per *distinct* query id. */
        std::vector<size_t> matches;

        /** Whole-pass totals (shared walk + every suffix replay). */
        FastForwardStats stats;

        /**
         * Fast-forward work attributable to one query alone: the
         * divergent-suffix replays of query id qi.  Zero for queries
         * answered entirely by the shared trie walk (their skips are
         * shared and live in `stats`).
         */
        std::vector<FastForwardStats> per_query;

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
     * JSONSKI_TEST_CHUNK_BYTES=N reroutes through the chunked path
     * with N-byte chunks (see Streamer::run).
     */
    Result run(std::string_view json, MultiSink* sink = nullptr) const;

    /**
     * Single-pass evaluation over a record delivered by a ChunkSource;
     * resident memory is bounded by @p chunk_bytes plus the largest
     * span still held — for a query whose suffix diverges at depth d,
     * the entire value at its divergence point (DESIGN.md §15).
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

    /** Trie size; shared-prefix sets compile to fewer nodes. */
    size_t trieNodes() const { return trie_.size(); }

    /** Queries answered by divergent-suffix replay (see file cmt). */
    size_t suffixCount() const { return suffixes_.size(); }

  private:
    friend class MultiDriver;

    /** A query's divergent tail: replayed by a single-query engine. */
    struct Suffix
    {
        size_t qi;         ///< distinct query id it reports as
        Streamer streamer; ///< compiled `$<first filter/desc step>...`
    };

    /** One trie node; an edge per distinct next plain step. */
    struct Node
    {
        /** Child per distinct attribute name. */
        std::vector<std::pair<std::string, int>> key_children;

        /** Child per distinct array step (ranges may overlap). */
        std::vector<std::pair<path::PathStep, int>> array_children;

        /** Distinct query ids accepted at this node (value = match). */
        std::vector<size_t> accepts;

        /** Indices into suffixes_ replayed over this node's value. */
        std::vector<size_t> suffixes;

        /** Per-level live bitset: ids whose path traverses this node. */
        path::QueryBits live;

        /**
         * Type summary for the G1 typed scan: every interest below
         * this node is an object attribute / an array element.
         * Computed once at compile time; sharedFilter() ANDs these
         * across the candidate children of an active set.
         */
        bool obj_only = false;
        bool ary_only = false;
    };

    void build();

    path::QuerySet set_;
    std::vector<Node> trie_;
    std::vector<Suffix> suffixes_;
};

} // namespace jsonski::ski

#endif // JSONSKI_SKI_MULTI_H
