#include "service/plan_cache.h"

#include <functional>

#include "path/parser.h"
#include "path/queryset.h"
#include "service/protocol.h"
#include "util/error.h"

namespace jsonski::service {

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
    auto take = [&out](const auto& r) {
        out.stats = r.stats;
        out.input_bytes = r.input_bytes;
        out.records = r.records;
        out.ingest = r.ingest;
    };
    if (single) {
        ski::StreamResult r = records
                                  ? single->runRecords(src, sink, chunk_bytes)
                                  : single->run(src, sink, chunk_bytes);
        take(r);
        out.matches = {r.matches};
    } else {
        ski::MultiStreamer::Result r =
            records ? multi->runRecords(src, &sink, chunk_bytes)
                    : multi->run(src, &sink, chunk_bytes);
        take(r);
        out.matches = std::move(r.matches);
    }
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
