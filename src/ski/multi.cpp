#include "ski/multi.h"

#include <algorithm>

#include "intervals/cursor.h"
#include "json/text.h"
#include "ski/chunk_override.h"
#include "ski/records.h"
#include "ski/sinks.h"
#include "ski/skipper.h"
#include "util/error.h"

namespace jsonski::ski {

using path::PathQuery;
using path::PathStep;

namespace {

/** Is @p kind compiled into the shared trie (vs a divergent suffix)? */
bool
isPlainStep(PathStep::Kind kind)
{
    return kind == PathStep::Kind::Key ||
           kind == PathStep::Kind::Index ||
           kind == PathStep::Kind::Slice ||
           kind == PathStep::Kind::Wildcard;
}

} // namespace

MultiStreamer::MultiStreamer(std::vector<PathQuery> queries)
    : set_(path::QuerySet::normalize(std::move(queries)))
{
    build();
}

MultiStreamer::MultiStreamer(path::QuerySet set) : set_(std::move(set))
{
    build();
}

void
MultiStreamer::build()
{
    trie_.emplace_back(); // root
    trie_[0].live = path::QueryBits(set_.size());
    for (size_t qi = 0; qi < set_.size(); ++qi) {
        const PathQuery& q = set_.distinct[qi];
        int node = 0;
        trie_[0].live.set(qi);
        size_t k = 0;
        for (; k < q.steps.size(); ++k) {
            const PathStep& step = q.steps[k];
            if (!isPlainStep(step.kind))
                break; // filter/descendant: the suffix diverges here
            int next = -1;
            if (step.kind == PathStep::Kind::Key) {
                for (auto& [key, child] : trie_[node].key_children) {
                    if (key == step.key) {
                        next = child;
                        break;
                    }
                }
                if (next < 0) {
                    next = static_cast<int>(trie_.size());
                    trie_[node].key_children.emplace_back(step.key, next);
                    trie_.emplace_back();
                    trie_.back().live = path::QueryBits(set_.size());
                }
            } else {
                for (auto& [s, child] : trie_[node].array_children) {
                    if (s == step) {
                        next = child;
                        break;
                    }
                }
                if (next < 0) {
                    next = static_cast<int>(trie_.size());
                    trie_[node].array_children.emplace_back(step, next);
                    trie_.emplace_back();
                    trie_.back().live = path::QueryBits(set_.size());
                }
            }
            node = next;
            trie_[node].live.set(qi);
        }
        if (k < q.steps.size()) {
            // Divergent suffix: `$` + the remaining steps, compiled
            // into a single-query engine replayed over the value at
            // this node.  Filter-first suffixes see the array they
            // select from; descendant-first suffixes search the value.
            PathQuery suffix;
            suffix.steps.assign(q.steps.begin() +
                                    static_cast<std::ptrdiff_t>(k),
                                q.steps.end());
            trie_[node].suffixes.push_back(suffixes_.size());
            suffixes_.push_back(Suffix{qi, Streamer(std::move(suffix))});
        } else {
            trie_[node].accepts.push_back(qi);
        }
    }

    // Type summary per node, for the G1 typed attribute scan.
    for (Node& n : trie_) {
        bool wants_obj = !n.key_children.empty();
        bool wants_ary = !n.array_children.empty();
        bool wants_any = !n.accepts.empty();
        for (size_t si : n.suffixes) {
            const PathStep& first =
                suffixes_[si].streamer.query().steps.front();
            if (first.kind == PathStep::Kind::Filter)
                wants_ary = true;
            else
                wants_any = true; // descendant: any container type
        }
        n.obj_only = wants_obj && !wants_ary && !wants_any;
        n.ary_only = wants_ary && !wants_obj && !wants_any;
    }
}

namespace {

using NodeSet = std::vector<int>;

/**
 * MatchSink adapter for a divergent-suffix replay: forwards each match
 * to the multi sink under the suffix's distinct query id, and records
 * whether the outer sink asked the *whole pass* to stop (the nested
 * Streamer::runResident catches StopStreaming itself, so the driver
 * must re-throw it to abort the shared walk).
 */
class SuffixSink final : public path::MatchSink
{
  public:
    SuffixSink(MultiSink* sink, size_t qi) : sink_(sink), qi_(qi) {}

    void
    onMatch(std::string_view value) override
    {
        if (sink_ == nullptr)
            return;
        try {
            sink_->onMatch(qi_, value);
        } catch (const StopStreaming&) {
            stopped = true;
            throw;
        }
    }

    bool stopped = false;

  private:
    MultiSink* sink_;
    size_t qi_;
};

} // namespace

/** One multi-query pass over a single record. */
class MultiDriver
{
  public:
    MultiDriver(const MultiStreamer& ms, std::string_view json,
                MultiSink* sink, MultiStreamer::Result& result)
        : ms_(ms),
          trie_(ms.trie_),
          cur_(json),
          skip_(cur_, &result.stats),
          sink_(sink),
          result_(result),
          emit_bits_(ms.queryCount())
    {}

    MultiDriver(const MultiStreamer& ms, intervals::ChunkSource& source,
                size_t chunk_bytes, MultiSink* sink,
                MultiStreamer::Result& result)
        : ms_(ms),
          trie_(ms.trie_),
          cur_(source, chunk_bytes),
          skip_(cur_, &result.stats),
          sink_(sink),
          result_(result),
          emit_bits_(ms.queryCount())
    {}

    /** Record ingestion totals once the pass is over. */
    void
    finish()
    {
        result_.input_bytes = cur_.size();
        result_.ingest = cur_.ingestStats();
    }

    void
    run()
    {
        if (cur_.skipWhitespace() == '\0')
            throw ParseError(ErrorCode::UnexpectedEnd, "empty input", 0);
        runValue(root_, /*top=*/true);
    }

    /** Records mode: every top-level value of the stream in turn. */
    void
    runRecords()
    {
        forEachRecord(cur_, result_.records,
                      [this] { runValue(root_, /*top=*/true); });
    }

  private:
    const MultiStreamer::Node& node(int i) const { return trie_[i]; }

    void
    emitTo(const NodeSet& active, size_t begin, size_t end)
    {
        telemetry::PhaseScope phase(telemetry::Phase::Emit);
        while (end > begin && json::isWhitespace(cur_.at(end - 1)))
            --end;
        // Collect acceptors into a bitset first: one frame per
        // distinct query per value, by construction, in ascending-id
        // order regardless of active-set order.
        emit_bits_.clear();
        for (int n : active) {
            for (size_t qi : node(n).accepts)
                emit_bits_.set(qi);
        }
        emit_bits_.forEach([&](size_t qi) {
            ++result_.matches[qi];
            if (sink_)
                sink_->onMatch(qi, cur_.slice(begin, end));
        });
    }

    /**
     * Replay every divergent suffix registered on the active set over
     * the value span [begin, end): each suffix is a full single-query
     * engine (filters, descendants) running on the held-resident
     * bytes, reporting under its distinct query id.  Error positions
     * translate by the span offset, so malformed input surfaces at the
     * same absolute byte a solo run of the full query reports.
     */
    void
    replaySuffixes(const NodeSet& active, size_t begin, size_t end)
    {
        while (end > begin && json::isWhitespace(cur_.at(end - 1)))
            --end;
        std::string_view span = cur_.slice(begin, end);
        for (int n : active) {
            for (size_t si : node(n).suffixes) {
                const MultiStreamer::Suffix& suf = ms_.suffixes_[si];
                SuffixSink fwd(sink_, suf.qi);
                StreamResult r;
                try {
                    r = suf.streamer.runResident(span, &fwd);
                } catch (const ParseError& e) {
                    throw ParseError(e.code(),
                                     "in multi-query suffix",
                                     begin + e.position());
                }
                result_.matches[suf.qi] += r.matches;
                result_.stats.merge(r.stats);
                result_.per_query[suf.qi].merge(r.stats);
                if (fwd.stopped)
                    throw StopStreaming{};
            }
        }
    }

    /**
     * Process one value against the active node set.  @p top marks the
     * root value: on a root type mismatch (no live branch fits the
     * container, nothing accepts and no suffix wants the bytes) the
     * pass stops without ingesting the value, exactly like the
     * single-query engine — the scan is a prefix read, not a
     * validator, so the batched pass never pulls more chunks than the
     * slowest solo pass would.
     */
    void
    runValue(const NodeSet& active, bool top = false)
    {
        // Trace tag: representative trie node of the active set.
        skip_.setTraceState(static_cast<uint16_t>(active[0]));
        bool want_obj = false;
        bool want_ary = false;
        bool accepts = false;
        bool suffix = false;
        for (int n : active) {
            want_obj = want_obj || !node(n).key_children.empty();
            want_ary = want_ary || !node(n).array_children.empty();
            accepts = accepts || !node(n).accepts.empty();
            suffix = suffix || !node(n).suffixes.empty();
        }

        char c = cur_.skipWhitespace();
        if (c == '\0')
            throw ParseError(ErrorCode::UnexpectedEnd,
                             "unexpected end of input", cur_.pos());
        size_t start = cur_.pos();
        size_t saved = intervals::StreamCursor::kNoHold;
        if (accepts || suffix) {
            // The value is reported whole (or replayed against the
            // divergent suffixes) once consumed: keep its span
            // resident across any chunk seams it straddles.
            saved = cur_.hold();
            cur_.setHold(std::min(saved, start));
        }
        if (c == '{' && want_obj) {
            cur_.advance(1);
            runObject(active);
        } else if (c == '[' && want_ary) {
            cur_.advance(1);
            runArray(active);
        } else if (top && !accepts && !suffix) {
            return; // root type mismatch: no live query can match
        } else {
            // Nothing deeper in the trie can match: fast-forward the
            // whole value (still resident when a suffix replays it).
            skip_.overValue((accepts || suffix) ? Group::G3 : Group::G2);
        }
        if (accepts)
            emitTo(active, start, cur_.pos());
        if (suffix)
            replaySuffixes(active, start, cur_.pos());
        if (accepts || suffix)
            cur_.setHold(saved);
    }

    /** Count of distinct attribute names the active set can match. */
    size_t
    distinctKeyCount(const NodeSet& active)
    {
        if (active.size() == 1)
            return node(active[0]).key_children.size();
        scratch_keys_.clear();
        for (int n : active) {
            for (const auto& [key, child] : node(n).key_children) {
                if (std::find(scratch_keys_.begin(), scratch_keys_.end(),
                              key) == scratch_keys_.end()) {
                    scratch_keys_.push_back(key);
                }
            }
        }
        return scratch_keys_.size();
    }

    /** Entry: position just past '{'.  Exit: just past the '}'. */
    void
    runObject(const NodeSet& active)
    {
        size_t remaining = distinctKeyCount(active);

        // A shared type filter is sound only when every candidate
        // attribute needs the same container type.
        Skipper::TypeFilter filter = sharedFilter(active);

        NodeSet targets;
        targets.reserve(4);
        for (;;) {
            Skipper::AttrResult attr = skip_.toAttr(filter, Group::G1);
            if (!attr.found)
                return;
            std::string_view key =
                cur_.slice(attr.key_begin, attr.key_end);
            targets.clear();
            for (int n : active) {
                for (const auto& [k, child] : node(n).key_children) {
                    if (k == key)
                        targets.push_back(child);
                }
            }
            if (targets.empty()) {
                skip_.overValue(Group::G2);
                continue;
            }
            runValue(targets);
            skip_.setTraceState(static_cast<uint16_t>(active[0]));
            // Generalized G4: abandon the object once every candidate
            // name has been seen (names are unique per object).
            if (--remaining == 0) {
                skip_.toObjEnd(Group::G4);
                return;
            }
        }
    }

    /** Entry: position just past '['.  Exit: just past the ']'. */
    void
    runArray(const NodeSet& active)
    {
        // Local copy: recursion below may reuse the scratch space.
        std::vector<std::pair<const PathStep*, int>> steps;
        steps.reserve(4);
        for (int n : active) {
            for (const auto& [step, child] : node(n).array_children)
                steps.emplace_back(&step, child);
        }
        size_t lo_min = SIZE_MAX;
        size_t hi_max = 0;
        for (auto& [step, child] : steps) {
            lo_min = std::min(lo_min, step->lo);
            hi_max = std::max(hi_max, step->hi);
        }

        size_t idx = 0;
        char c = cur_.skipWhitespace();
        if (c == ']') {
            cur_.advance(1);
            return;
        }
        if (lo_min > 0 &&
            skip_.overElems(lo_min, idx, Group::G5) ==
                Skipper::ElemStop::End) {
            return;
        }
        NodeSet covering;
        for (;;) {
            if (idx >= hi_max) {
                skip_.toAryEnd(Group::G5);
                return;
            }
            c = cur_.skipWhitespace();
            if (c == ']') {
                cur_.advance(1);
                return;
            }
            covering.clear();
            for (auto& [step, child] : steps) {
                if (step->coversIndex(idx))
                    covering.push_back(child);
            }
            if (covering.empty()) {
                skip_.overValue(Group::G5); // a gap between ranges
            } else {
                runValue(covering);
                skip_.setTraceState(static_cast<uint16_t>(active[0]));
            }
            c = cur_.skipWhitespace();
            if (c == ',') {
                cur_.advance(1);
                ++idx;
                continue;
            }
            if (c == ']') {
                cur_.advance(1);
                return;
            }
            throw ParseError(ErrorCode::ExpectedPunctuation,
                             "expected ',' or ']'", cur_.pos());
        }
    }

    /** Object filter usable for *all* candidate attributes, or Any. */
    Skipper::TypeFilter
    sharedFilter(const NodeSet& active) const
    {
        bool all_obj = true;
        bool all_ary = true;
        for (int n : active) {
            for (const auto& [key, child] : node(n).key_children) {
                const MultiStreamer::Node& t = node(child);
                all_obj = all_obj && t.obj_only;
                all_ary = all_ary && t.ary_only;
            }
        }
        if (all_obj)
            return Skipper::TypeFilter::Object;
        if (all_ary)
            return Skipper::TypeFilter::Array;
        return Skipper::TypeFilter::Any;
    }

    const MultiStreamer& ms_;
    const std::vector<MultiStreamer::Node>& trie_;
    const NodeSet root_{0}; ///< the active set at a top-level value
    std::vector<std::string_view> scratch_keys_;
    intervals::StreamCursor cur_;
    Skipper skip_;
    MultiSink* sink_;
    MultiStreamer::Result& result_;
    path::QueryBits emit_bits_;
};

namespace {

/**
 * One pass of a fresh MultiDriver over @p input (a buffer, or a
 * ChunkSource and its chunk size): one value, or with @p records every
 * record of the stream.  A sink's StopStreaming ends the pass early
 * with a valid partial result.
 */
template <class... Input>
MultiStreamer::Result
pass(const MultiStreamer& ms, MultiSink* sink, bool records,
     Input&... input)
{
    MultiStreamer::Result result;
    result.matches.assign(ms.queryCount(), 0);
    result.per_query.assign(ms.queryCount(), FastForwardStats{});
    MultiDriver driver(ms, input..., sink, result);
    try {
        if (records)
            driver.runRecords();
        else
            driver.run();
    } catch (const StopStreaming&) {
    }
    driver.finish();
    return result;
}

} // namespace

MultiStreamer::Result
MultiStreamer::run(std::string_view json, MultiSink* sink) const
{
    if (size_t chunk = testChunkBytesOverride()) {
        intervals::ViewSource source(json);
        return run(source, sink, chunk);
    }
    return pass(*this, sink, false, json);
}

MultiStreamer::Result
MultiStreamer::run(intervals::ChunkSource& source, MultiSink* sink,
                   size_t chunk_bytes) const
{
    return pass(*this, sink, false, source, chunk_bytes);
}

MultiStreamer::Result
MultiStreamer::runRecords(intervals::ChunkSource& source, MultiSink* sink,
                          size_t chunk_bytes) const
{
    return pass(*this, sink, true, source, chunk_bytes);
}

} // namespace jsonski::ski
