#include "service/plan_cache.h"

#include <functional>

#include "path/parser.h"
#include "path/queryset.h"
#include "service/protocol.h"
#include "ski/record_reader.h"
#include "ski/sinks.h"
#include "util/error.h"

namespace jsonski::service {

namespace {

/**
 * Puts both engines behind the caller's MultiSink (a single-query plan
 * reports as index 0) and notes how the sink ended a pass: a stop must
 * end the records loop too, and an error the sink threw is not the
 * record's, so it must not be rebased.
 */
class RunSink final : public path::MatchSink, public ski::MultiSink
{
  public:
    explicit RunSink(ski::MultiSink& sink) : sink_(sink) {}

    void
    onMatch(std::string_view value) override
    {
        onMatch(0, value);
    }

    void
    onMatch(size_t qi, std::string_view value) override
    {
        try {
            sink_.onMatch(qi, value);
        } catch (const ski::StopStreaming&) {
            stopped = true;
            throw;
        } catch (...) {
            failed = true;
            throw;
        }
    }

    bool stopped = false;
    bool failed = false;

  private:
    ski::MultiSink& sink_;
};

void
fold(RunResult& out, const ski::StreamResult& r)
{
    out.matches[0] += r.matches;
    out.stats.merge(r.stats);
    out.input_bytes += r.input_bytes;
    out.ingest = r.ingest;
}

void
fold(RunResult& out, const ski::MultiStreamer::Result& r)
{
    for (size_t qi = 0; qi < r.matches.size(); ++qi) {
        out.matches[qi] += r.matches[qi];
        out.per_query[qi].merge(r.per_query[qi]);
    }
    out.stats.merge(r.stats);
    out.input_bytes += r.input_bytes;
    out.ingest = r.ingest;
}

} // namespace

size_t
RunResult::total() const
{
    size_t n = 0;
    for (size_t m : matches)
        n += m;
    return n;
}

std::vector<size_t>
RequestMap::perPosition(const std::vector<size_t>& counts) const
{
    std::vector<size_t> out(plan_id.size());
    for (size_t i = 0; i < plan_id.size(); ++i)
        out[i] = counts[plan_id[i]];
    return out;
}

RunResult
Plan::run(intervals::ChunkSource& src, ski::MultiSink& sink,
          size_t chunk_bytes, bool records) const
{
    RunResult out;
    out.matches.assign(queryCount(), 0);
    out.per_query.assign(queryCount(), ski::FastForwardStats{});
    RunSink bridge(sink);
    if (!records) {
        if (single)
            fold(out, single->run(src, &bridge, chunk_bytes));
        else
            fold(out, multi->run(src, &bridge, chunk_bytes));
        return out;
    }
    ski::RecordReader reader(src, chunk_bytes);
    std::string_view record;
    while (!bridge.stopped && reader.next(record)) {
        try {
            if (single)
                fold(out, single->run(record, &bridge));
            else
                fold(out, multi->run(record, &bridge));
        } catch (const ParseError& e) {
            if (bridge.failed)
                throw;
            throw e.shifted(reader.offset());
        }
    }
    out.input_bytes = reader.bytesRead();
    out.records = reader.recordsRead();
    return out;
}

RequestMap
Plan::mapRequest(const path::QuerySet& request) const
{
    RequestMap map;
    map.plan_id = request.mapOnto(query_texts);
    map.tag.assign(queryCount(), 0);
    for (size_t i = map.plan_id.size(); i-- > 0;)
        map.tag[map.plan_id[i]] = i;
    return map;
}

std::shared_ptr<const Plan>
compilePlan(std::string_view query_list)
{
    auto plan = std::make_shared<Plan>();
    // Normalize into the distinct set (canonical toString() forms,
    // stable dedup): duplicate spellings of one query share one match
    // stream, and `$.a,$.a` compiles to a single-query plan.
    path::QuerySet set =
        path::QuerySet::fromTexts(splitQueries(query_list));
    plan->query_texts = set.canonical;
    plan->key = set.key();
    if (set.size() == 1)
        plan->single.emplace(std::move(set.distinct[0]));
    else
        plan->multi.emplace(std::move(set));
    return plan;
}

std::shared_ptr<const Plan>
PlanCache::get(std::string_view query_list, bool* was_hit,
               path::QuerySet* request_set)
{
    // Normalize to the order-insensitive set normal form before
    // hashing, so every spelling and ordering of the same set maps to
    // one shard and entry.  A malformed query throws here, before
    // anything is counted or inserted.  Compiling under the shard lock
    // keeps hit/miss counts exact for concurrent first requests (see
    // header); a PathError escapes before anything is inserted.
    path::QuerySet set =
        path::QuerySet::fromTexts(splitQueries(query_list));
    std::string key = set.key();
    if (request_set != nullptr)
        *request_set = std::move(set);
    return lru_.getOrBuild(
        key, [&key] { return compilePlan(key); }, was_hit);
}

} // namespace jsonski::service
