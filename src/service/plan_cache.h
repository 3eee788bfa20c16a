/**
 * @file
 * Compiled query plans, the one run path over them, and a shard-locked
 * LRU cache of plans.
 *
 * Plan::run is how both front ends evaluate a query list: jsq over a
 * file or stdin, jsqd over a request body.  It owns the choice between
 * the single- and multi-query engines and between one document and a
 * record stream, so the two cannot drift.
 *
 * Parsing a JSONPath list and building the streamer (single-query) or
 * the multi-query trie is pure per-query-text work; under serving
 * traffic the same handful of queries arrive over and over from many
 * connections.  The cache keys on the canonical normalized query *set*
 * (split on top-level commas with the same quote-aware splitter jsq's
 * CLI uses, each query parsed and reprinted in its toString() normal
 * form, then sorted and deduplicated — path::QuerySet::key()), so
 * `$.a, $.b` / `$.b,$.a,$.a` / `$['a'],$.b` and every whitespace
 * spelling of a filter predicate share one entry, and hands out
 * shared_ptr<const Plan> so an entry can be evicted while requests
 * still run on it.  A request's positions are mapped onto the plan's
 * distinct queries with Plan::mapRequest() (see PlanCache::get).
 *
 * Sharding, locking, and eviction are util::ShardedLru (shared with
 * the document index cache): the compile runs under the shard lock,
 * which serializes concurrent first-misses of the *same* query into
 * one compile (the counters stay deterministic: N concurrent requests
 * for a fresh query are exactly 1 miss + N-1 hits).
 */
#ifndef JSONSKI_SERVICE_PLAN_CACHE_H
#define JSONSKI_SERVICE_PLAN_CACHE_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "intervals/chunk_source.h"
#include "path/queryset.h"
#include "ski/multi.h"
#include "ski/streamer.h"
#include "util/sharded_lru.h"

namespace jsonski::service {

/** What one Plan::run pass observed. */
struct RunResult
{
    /** Matches delivered per *distinct* plan query. */
    std::vector<size_t> matches;

    /** Whole-run totals: every record, every suffix replay. */
    ski::FastForwardStats stats;

    /** Divergent-suffix replay work per distinct query (multi plans;
     *  see MultiStreamer::Result::per_query). */
    std::vector<ski::FastForwardStats> per_query;

    /** Bytes ingested: the document, or in records mode the whole
     *  stream (separators included). */
    size_t input_bytes = 0;

    /** Records evaluated (records mode only). */
    size_t records = 0;

    /** Chunked-ingestion accounting of the run. */
    intervals::StreamCursor::IngestStats ingest;

    /** Matches across every query. */
    size_t total() const;
};

/**
 * How a request's query positions map onto a plan's distinct queries.
 * A cached plan is compiled from the sorted set key, so its order need
 * not match the request's, and duplicates share one distinct query.
 */
struct RequestMap
{
    /** Request position -> distinct plan index. */
    std::vector<size_t> plan_id;

    /** Distinct plan index -> its representative request position (the
     *  first one asking for it), which tags its match lines. */
    std::vector<size_t> tag;

    /** Per request position, its distinct query's entry of @p counts
     *  (duplicates repeat it). */
    std::vector<size_t> perPosition(const std::vector<size_t>& counts) const;
};

/**
 * A compiled, immutable, shareable evaluation plan for one query set.
 * A single *distinct* query carries a Streamer; larger sets a
 * MultiStreamer (both are stateless across run() calls, so one plan
 * serves any number of concurrent requests).  Duplicates in the
 * compiled list collapse, so `$.a,$.a` compiles to a single-query
 * plan; callers map request positions onto the distinct queries with
 * mapRequest().
 */
struct Plan
{
    /** Canonical query-set key this plan was compiled for. */
    std::string key;

    /** The *distinct* canonical query texts, in compile order. */
    std::vector<std::string> query_texts;

    /** Exactly one of these is set. */
    std::optional<ski::Streamer> single;
    std::optional<ski::MultiStreamer> multi;

    /** Distinct query count (match-frame / per-distinct index range). */
    size_t queryCount() const { return query_texts.size(); }

    /**
     * The one way jsq and jsqd evaluate a plan.  Streams @p src through
     * the engine in @p chunk_bytes chunks — one document, or with
     * @p records a stream of top-level records evaluated on the same
     * cursor (Streamer::runRecords, DESIGN.md §7 rule 2) — and hands
     * every match to @p sink with its distinct plan index (0 for a
     * single-query plan).
     *
     * The sink owns the match limit: throwing ski::StopStreaming ends
     * the whole run, records mode included, with a valid partial
     * result.  Error positions are stream offsets in both modes.
     *
     * @throws ParseError on malformed input, and whatever @p sink
     *         throws, unchanged.
     */
    RunResult run(intervals::ChunkSource& src, ski::MultiSink& sink,
                  size_t chunk_bytes, bool records) const;

    /**
     * Map @p request (a normalized request list) onto this plan.
     * @throws PathError when the plan does not serve the request's set.
     */
    RequestMap mapRequest(const path::QuerySet& request) const;
};

/**
 * Compile @p query_list into a Plan (no cache involved), keeping the
 * list's first-occurrence order.  The plan cache and jsq both build
 * plans here, so the CLI and the service always agree on query-list
 * syntax.
 *
 * @throws PathError on a malformed query.
 */
std::shared_ptr<const Plan> compilePlan(std::string_view query_list);

/**
 * Counter snapshot of one PlanCache — summable, so a server holding
 * one cache partition per event-loop shard can report fleet totals.
 */
struct PlanCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t size = 0;

    PlanCacheStats&
    operator+=(const PlanCacheStats& o)
    {
        hits += o.hits;
        misses += o.misses;
        evictions += o.evictions;
        size += o.size;
        return *this;
    }
};

/** See file comment. */
class PlanCache
{
  public:
    static constexpr size_t kShards =
        util::ShardedLru<std::string, Plan>::kShards;

    /**
     * @param capacity Total cached plans across all shards (rounded up
     *                 to at least one per shard).
     */
    explicit PlanCache(size_t capacity = 64) : lru_(capacity) {}

    /**
     * Look up @p query_list, compiling and inserting on a miss.  The
     * key is the order-insensitive set normal form, so `$.a,$.b` and
     * `$.b,$.a,$.a` share one entry.
     *
     * @param was_hit     Out: true when the plan came from the cache.
     * @param request_set Out: the request's normalized QuerySet —
     *        `plan->mapRequest(*request_set)` yields the
     *        request-position -> distinct-plan-index map the caller
     *        needs to tag frames and fill per-position counts.
     * @throws PathError on a malformed query (nothing is inserted).
     */
    std::shared_ptr<const Plan>
    get(std::string_view query_list, bool* was_hit = nullptr,
        path::QuerySet* request_set = nullptr);

    uint64_t hits() const { return lru_.hits(); }
    uint64_t misses() const { return lru_.misses(); }
    uint64_t evictions() const { return lru_.evictions(); }

    /** Plans currently resident across all shards. */
    size_t size() const { return lru_.entries(); }

    /** All four counters in one summable snapshot. */
    PlanCacheStats
    statsSnapshot() const
    {
        util::LruStats st = lru_.statsSnapshot();
        return PlanCacheStats{st.hits, st.misses, st.evictions,
                              st.entries};
    }

  private:
    util::ShardedLru<std::string, Plan> lru_;
};

} // namespace jsonski::service

#endif // JSONSKI_SERVICE_PLAN_CACHE_H
