/**
 * @file
 * Recursive-descent streaming with fast-forwarding — the JSONSki core
 * (paper Algorithm 2 integrated with the G1..G5 primitives).
 *
 * The streamer walks the input with a Skipper, descending recursively
 * only along the query's match path; everything irrelevant is
 * fast-forwarded.  Every query compiles to a path::QueryNfa, a query
 * set of one, and runs the one driver MultiStreamer runs: a plain
 * query runs the paper's loops with one automaton state per level,
 * and a filter or `..` step a set of states on the same loops
 * (DESIGN.md §13); under a `..` search it follows the data's nesting,
 * up to a typed DepthExceeded limit.
 */
#ifndef JSONSKI_SKI_STREAMER_H
#define JSONSKI_SKI_STREAMER_H

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "intervals/chunk_source.h"
#include "intervals/cursor.h"
#include "path/automaton.h"
#include "path/matches.h"
#include "ski/skipper.h"
#include "ski/stats.h"

namespace jsonski::index {
class StructuralIndex;
}

namespace jsonski::ski {

using path::CollectSink;
using path::MatchSink;

class MultiSink;

/** Outcome of one streaming pass. */
struct StreamResult
{
    size_t matches = 0;
    FastForwardStats stats;

    /** Bytes ingested: the document's size on success, or in records
     *  mode the whole stream's (the ratio denominator of stats.h). */
    size_t input_bytes = 0;

    /** Records evaluated (records mode only). */
    size_t records = 0;

    /** Chunked-ingestion accounting; zeros for whole-buffer runs. */
    intervals::StreamCursor::IngestStats ingest;
};

/**
 * Tuning/ablation knobs for the streamer; defaults reproduce the
 * paper's full design.
 */
struct StreamerOptions
{
    /** G1 on/off: skip attributes/elements by inferred value type. */
    bool type_filter = true;

    /** Batched primitive-run skipping (enhanced goOverPriAttrs). */
    bool batch_primitives = true;

    /** Use the scalar reference classifier instead of SIMD. */
    bool scalar_classifier = false;
};

/**
 * Streaming query evaluator.  Construct once per query, run on any
 * number of inputs (a run is stateless with respect to the streamer).
 */
class Streamer
{
  public:
    explicit Streamer(path::PathQuery query, StreamerOptions options = {})
        : query_(std::move(query)), options_(options), nfa_({query_})
    {}

    /** The compiled query. */
    const path::PathQuery& query() const { return query_; }

    /** Default refill granularity for chunked runs (64 KiB). */
    static constexpr size_t kDefaultChunkBytes = size_t{1} << 16;

    /**
     * Evaluate the query over one JSON record.
     *
     * @param json  The record text.
     * @param sink  Optional match receiver (null = count only).
     * @throws ParseError on malformed input along the traversed path.
     *
     * setWholeBufferChunkBytes() can reroute this overload through the
     * chunked path, which turns every whole-buffer caller into a
     * chunk-seam test.
     */
    StreamResult run(std::string_view json, MatchSink* sink = nullptr) const;

    /**
     * Evaluate the query over a record delivered incrementally by a
     * ChunkSource, without ever materializing the document: resident
     * memory is bounded by @p chunk_bytes plus the largest span still
     * held for a sink (DESIGN.md §9).  Matches, error positions, and
     * FastForwardStats are byte-identical to the whole-buffer overload.
     */
    StreamResult run(intervals::ChunkSource& source,
                     MatchSink* sink = nullptr,
                     size_t chunk_bytes = kDefaultChunkBytes) const;

    /**
     * Records mode (DESIGN.md §7 rule 2): evaluate the query over every
     * top-level object or array of a stream (NDJSON or concatenated
     * records) on one cursor, so one classification pass both delimits
     * the records and answers the query.  Resident memory is bounded
     * as for run() above; error positions are stream offsets and do
     * not depend on @p chunk_bytes.
     */
    StreamResult runRecords(intervals::ChunkSource& source,
                            MatchSink* sink = nullptr,
                            size_t chunk_bytes = kDefaultChunkBytes) const;

    /** run() and runRecords() reporting each match to @p sink as query
     *  0, as a query set of one does (service::Plan::run). */
    StreamResult run(intervals::ChunkSource& source, MultiSink& sink,
                     size_t chunk_bytes) const;
    StreamResult runRecords(intervals::ChunkSource& source, MultiSink& sink,
                            size_t chunk_bytes) const;

    /**
     * Whole-buffer evaluation that setWholeBufferChunkBytes() never
     * reroutes.  Nothing in the library calls it; tests use it as the
     * whole-buffer reference.  Everything else should call run().
     */
    StreamResult runResident(std::string_view json,
                             MatchSink* sink = nullptr) const;

    /**
     * Evaluate the query with a pre-built structural semi-index
     * (DESIGN.md §14) bound to the pass's skipper: G4/G5 container-end
     * targets and primitive-run stops are answered from the index's
     * level bitmaps and the cursor teleports to them, instead of
     * scanning the skipped bytes.  Matches, error positions, and match
     * counts are bit-identical to run(); only the work to produce them
     * changes.
     *
     * The caller owns the identity check: @p idx must have been built
     * from exactly these bytes (StructuralIndex::describes()) — this
     * method does not re-hash the input.  A !usable() index (the
     * document is structurally unclean) falls back to plain run(); a
     * *wrong* index for the document surfaces as
     * ParseError(ErrorCode::IndexMismatch), never as wrong output.
     *
     * setWholeBufferChunkBytes() reroutes this overload through the
     * chunked variant exactly as it does run(); the bytes stay
     * resident, so a defensive IndexMismatch before any match reached
     * the sink still replays plain, as here.
     */
    StreamResult runIndexed(std::string_view json,
                            const index::StructuralIndex& idx,
                            MatchSink* sink = nullptr) const;

    /** Chunked counterpart of runIndexed(); the warp over a skipped
     *  span ingests and recycles the window as it goes, so residency
     *  bounds match the chunked run() overload. */
    StreamResult runIndexed(intervals::ChunkSource& source,
                            const index::StructuralIndex& idx,
                            MatchSink* sink = nullptr,
                            size_t chunk_bytes = kDefaultChunkBytes) const;

  private:
    path::PathQuery query_;
    StreamerOptions options_;
    path::QueryNfa nfa_;
};

/**
 * Test seam: a nonzero @p chunk_bytes reroutes every whole-buffer run
 * (Streamer::run, Streamer::runIndexed and MultiStreamer::run over a
 * string_view) through the chunked path in @p chunk_bytes chunks, so
 * each whole-buffer test doubles as a chunk-seam test (DESIGN.md §9).
 * Only a test main sets it; 0, the default, turns it off.  Set it
 * before any run starts.
 */
void setWholeBufferChunkBytes(size_t chunk_bytes);

/** The chunk size set by setWholeBufferChunkBytes(), or 0. */
size_t wholeBufferChunkBytes();

/**
 * One-call convenience API: evaluate @p path_text against @p json.
 *
 * @param collect  When true the matched values are copied out.
 */
struct QueryResult
{
    size_t count = 0;
    std::vector<std::string> values;
    FastForwardStats stats;
};

QueryResult query(std::string_view json, std::string_view path_text,
                  bool collect = false);

} // namespace jsonski::ski

#endif // JSONSKI_SKI_STREAMER_H
