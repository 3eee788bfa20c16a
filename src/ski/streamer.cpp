#include "ski/streamer.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>
#include <utility>

#include "index/structural_index.h"
#include "intervals/cursor.h"
#include "json/text.h"
#include "path/filter.h"
#include "path/parser.h"
#include "ski/chunk_override.h"
#include "ski/records.h"
#include "ski/sinks.h"
#include "util/error.h"

namespace jsonski::ski {
namespace {

using intervals::StreamCursor;
using path::PathQuery;
using path::PathStep;

/**
 * Container-depth bookkeeping for the linear driver: one unclosed
 * opener consumed per scope.  The skipper derives the structural-index
 * bitmap level from the bound counter, so the count must be exact at
 * every skipper call — RAII keeps it so across every return path.
 */
class DepthScope
{
  public:
    explicit DepthScope(int& depth) : depth_(depth) { ++depth_; }
    ~DepthScope() { --depth_; }
    DepthScope(const DepthScope&) = delete;
    DepthScope& operator=(const DepthScope&) = delete;

  private:
    int& depth_;
};

/** One streaming pass over a single record. */
class Driver
{
  public:
    Driver(const PathQuery& query, const StreamerOptions& options,
           std::string_view json, MatchSink* sink, StreamResult& result)
        : q_(query),
          options_(options),
          cur_(json, options.scalar_classifier),
          skip_(cur_, &result.stats),
          sink_(sink),
          result_(result)
    {
        skip_.setBatchPrimitives(options.batch_primitives);
    }

    Driver(const PathQuery& query, const StreamerOptions& options,
           intervals::ChunkSource& source, size_t chunk_bytes,
           MatchSink* sink, StreamResult& result)
        : q_(query),
          options_(options),
          cur_(source, chunk_bytes, options.scalar_classifier),
          skip_(cur_, &result.stats),
          sink_(sink),
          result_(result)
    {
        skip_.setBatchPrimitives(options.batch_primitives);
    }

    /** Record ingestion totals once the pass is over. */
    void
    finish()
    {
        result_.input_bytes = cur_.size();
        result_.ingest = cur_.ingestStats();
    }

    /**
     * Bind a structural semi-index (built from exactly this input) to
     * the pass's skipper.  Only the top-level driver is ever bound:
     * nested continuation drivers run over slices whose positions are
     * slice-relative, which the document-absolute index cannot serve.
     */
    void
    bindIndex(const index::StructuralIndex* idx)
    {
        skip_.bindIndex(idx, &depth_);
    }

    void
    run()
    {
        if (cur_.skipWhitespace() == '\0')
            throw ParseError(ErrorCode::UnexpectedEnd, "empty input", 0);
        root();
    }

    /** Records mode: every top-level value of the stream in turn. */
    void
    runRecords()
    {
        forEachRecord(cur_, result_.records, [this] { root(); });
    }

  private:
    /** Evaluate the query over the top-level value at the cursor. */
    void
    root()
    {
        char c = cur_.current();
        if (q_.empty()) {
            // `$` selects the whole record.
            emitValue();
            return;
        }
        if (q_[0].kind == PathStep::Kind::Descendant) {
            if (c == '{') {
                cur_.advance(1);
                runDescObject();
            } else if (c == '[') {
                cur_.advance(1);
                runDescArray();
            }
        } else if (q_[0].isArrayStep()) {
            if (c != '[')
                return; // root type mismatch: no match possible
            cur_.advance(1);
            runArray(0);
        } else {
            if (c != '{')
                return;
            cur_.advance(1);
            runObject(0);
        }
        flushDescendantMatches();
    }

    /** ACCEPT: fast-forward over the value and report it (G3). */
    void
    emitValue()
    {
        size_t start = cur_.pos();
        // The whole value span must stay resident until it is handed
        // to the sink, however many chunk seams it crosses.
        size_t saved = cur_.hold();
        cur_.setHold(std::min(saved, start));
        skip_.overValue(Group::G3);
        size_t end = cur_.pos();
        // Trim trailing whitespace a primitive skip may have crossed.
        while (end > start && json::isWhitespace(cur_.at(end - 1)))
            --end;
        ++result_.matches;
        if (sink_)
            sink_->onMatch(cur_.slice(start, end));
        cur_.setHold(saved);
    }

    /**
     * Process an object whose attributes are matched against step
     * @p state.  Entry: position just past '{'.  Exit: position just
     * past the matching '}'.
     */
    void
    runObject(size_t state)
    {
        DepthScope depth(depth_);
        const PathStep& st = q_[state];
        bool accept_child = (state + 1 == q_.size());
        bool desc_child =
            !accept_child &&
            q_[state + 1].kind == PathStep::Kind::Descendant;
        Skipper::TypeFilter filter =
            accept_child || desc_child || !options_.type_filter
                ? Skipper::TypeFilter::Any
            : q_[state + 1].isArrayStep() ? Skipper::TypeFilter::Array
                                          : Skipper::TypeFilter::Object;
        for (;;) {
            Skipper::AttrResult attr = skip_.toAttr(filter, Group::G1);
            if (!attr.found)
                return; // object consumed; includes G4-less exhaustion
            if (cur_.slice(attr.key_begin, attr.key_end) != st.key) {
                // G2: unmatched attribute — skip its value wholesale.
                skip_.overValue(Group::G2);
                continue;
            }
            if (accept_child) {
                emitValue(); // G3
            } else if (desc_child) {
                char c = cur_.current();
                if (c == '{') {
                    cur_.advance(1);
                    runDescObject();
                } else if (c == '[') {
                    cur_.advance(1);
                    runDescArray();
                } else {
                    skip_.overValue(Group::G2); // primitives: no match
                }
            } else {
                char want = q_[state + 1].isArrayStep() ? '[' : '{';
                if (cur_.current() != want) {
                    // Type mismatch at runtime (only reachable with the
                    // G1 filter disabled): the subtree cannot match.
                    skip_.overValue(Group::G2);
                    skip_.toObjEnd(Group::G4);
                    return;
                }
                cur_.advance(1); // consume '{' or '['
                if (want == '{')
                    runObject(state + 1);
                else
                    runArray(state + 1);
            }
            // G4: attribute names are unique per object — nothing else
            // in this object can match; fast-forward past its '}'.
            skip_.toObjEnd(Group::G4);
            return;
        }
    }

    /**
     * Process an array whose elements are matched against step
     * @p state.  Entry: position just past '['.  Exit: just past ']'.
     */
    void
    runArray(size_t state)
    {
        if (q_[state].kind == PathStep::Kind::Filter) {
            runFilterArray(state);
            return;
        }
        DepthScope depth(depth_);
        const PathStep& st = q_[state];
        bool accept_child = (state + 1 == q_.size());
        size_t idx = 0;
        char c = cur_.skipWhitespace();
        if (c == ']') {
            cur_.advance(1);
            return;
        }
        // G5: skip the prefix below the range start without matching.
        if (st.lo > 0 &&
            skip_.overElems(st.lo, idx, Group::G5) == Skipper::ElemStop::End)
            return;
        for (;;) {
            if (idx >= st.hi) {
                // G5: the range is exhausted; nothing further can match.
                skip_.toAryEnd(Group::G5);
                return;
            }
            c = cur_.skipWhitespace();
            if (c == ']') {
                cur_.advance(1);
                return;
            }
            if (accept_child) {
                emitValue(); // G3: every in-range element is a match
            } else if (q_[state + 1].kind == PathStep::Kind::Descendant) {
                if (c == '{') {
                    cur_.advance(1);
                    runDescObject();
                } else if (c == '[') {
                    cur_.advance(1);
                    runDescArray();
                } else {
                    skip_.overValue(Group::G2);
                }
            } else {
                char want = q_[state + 1].isArrayStep() ? '[' : '{';
                if (options_.type_filter) {
                    // G1: only elements of the expected container type
                    // can extend the match.
                    Skipper::ElemStop stop =
                        skip_.toTypedElem(want, idx, st.hi, Group::G1);
                    if (stop == Skipper::ElemStop::End)
                        return;
                    if (idx >= st.hi)
                        continue; // budget reached; loop skips out
                } else if (cur_.current() != want) {
                    skip_.overValue(Group::G2);
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
                cur_.advance(1); // consume '{' or '['
                if (want == '{')
                    runObject(state + 1);
                else
                    runArray(state + 1);
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

    /**
     * Process an array whose elements are screened by filter step
     * @p state (DESIGN.md §13).  Only object elements can carry the
     * predicate field, so non-objects are G1 type-skips.  For each
     * candidate a probe scan locates the predicate field lazily; the
     * verdict then decides whether the rest of the candidate is kept
     * (G3: emitted, or replayed against the suffix query) or skipped
     * wholesale (G2) — the filter counterpart of the paper's
     * skip-what-cannot-match discipline.
     *
     * Entry: position just past '['.  Exit: just past ']'.
     */
    void
    runFilterArray(size_t state)
    {
        DepthScope depth(depth_);
        const PathStep& st = q_[state];
        bool accept_child = (state + 1 == q_.size());
        size_t idx = 0;
        char c = cur_.skipWhitespace();
        if (c == ']') {
            cur_.advance(1);
            return;
        }
        for (;;) {
            // G1: only an object element can satisfy `@.field`.
            if (skip_.toTypedElem('{', idx,
                                  std::numeric_limits<size_t>::max(),
                                  Group::G1) == Skipper::ElemStop::End)
                return;
            size_t start = cur_.pos();
            // The candidate must stay resident through the verdict and
            // any suffix replay, whatever chunk seams it crosses.
            size_t saved = cur_.hold();
            cur_.setHold(std::min(saved, start));
            cur_.advance(1);
            if (filterVerdict(st)) {
                size_t end = cur_.pos();
                if (accept_child) {
                    ++result_.matches;
                    if (sink_)
                        sink_->onMatch(cur_.slice(start, end));
                } else {
                    runContinuation(state + 1, start, end);
                }
            }
            cur_.setHold(saved);
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

    /**
     * Probe one candidate object for @p st's predicate field and
     * decide the verdict.  The first member with the field's name wins
     * (duplicate-key contract); members before it are G2-skipped, the
     * field's own scalar lexeme is scan work (G1), and everything
     * after the verdict is fast-forwarded to the '}' in one go —
     * charged G3 when the candidate is kept, G2 when it is dropped.
     *
     * Entry: position just past '{'.  Exit: just past the '}'.
     */
    bool
    filterVerdict(const PathStep& st)
    {
        // The caller has consumed the candidate's '{'.
        DepthScope depth(depth_);
        for (;;) {
            Skipper::AttrResult attr =
                skip_.toAttr(Skipper::TypeFilter::Any, Group::G1);
            if (!attr.found)
                return path::evalPredicate(st, false, {});
            if (cur_.slice(attr.key_begin, attr.key_end) != st.key) {
                skip_.overValue(Group::G2);
                continue;
            }
            char c = cur_.current();
            size_t vs = cur_.pos();
            bool verdict;
            if (c == '{' || c == '[') {
                // Containers never satisfy a comparison; the operator
                // dispatch needs only the first byte.
                verdict =
                    path::evalPredicate(st, true, cur_.slice(vs, vs + 1));
                skip_.overValue(Group::G2);
            } else {
                skip_.overPrimitive(Group::G1);
                size_t ve = cur_.pos();
                while (ve > vs && json::isWhitespace(cur_.at(ve - 1)))
                    --ve;
                verdict =
                    path::evalPredicate(st, true, cur_.slice(vs, ve));
            }
            skip_.toObjEnd(verdict ? Group::G3 : Group::G2);
            return verdict;
        }
    }

    /**
     * A kept filter candidate with steps after it: replay the suffix
     * query over the (held, resident) candidate span with a nested
     * driver sharing this pass's result, so matches and stats
     * accumulate in document order.  Suffix queries are cached per
     * step; nesting is bounded by the query length because each
     * suffix is strictly shorter.
     */
    void
    runContinuation(size_t state, size_t start, size_t end)
    {
        if (cont_.empty())
            cont_.resize(q_.size());
        if (!cont_[state]) {
            auto sub = std::make_unique<PathQuery>();
            sub->steps.assign(q_.steps.begin() +
                                  static_cast<std::ptrdiff_t>(state),
                              q_.steps.end());
            cont_[state] = std::move(sub);
        }
        Driver sub(*cont_[state], options_, cur_.slice(start, end),
                   sink_, result_);
        try {
            sub.run();
        } catch (const ParseError& e) {
            // Translate slice-relative positions back to the record.
            throw ParseError(e.code(), "in filter candidate",
                             start + e.position());
        }
    }

    /**
     * Descendant traversal (terminal `..name` step, an extension over
     * the paper): every attribute at any depth whose name matches is
     * a result.  Matches may nest, so container spans are recorded as
     * placeholder slots (end = kInFlight) patched once their end is
     * known; slot order is document pre-order.  Completed slots are
     * flushed to the sink as soon as no earlier slot is still open
     * (maybeFlushDesc), so chunked-mode retention is bounded by the
     * deepest *nested-match* chain, not by the document.  Only
     * primitive runs can still be fast-forwarded — the type-inference
     * limitation the paper predicts for `..`.
     *
     * Entry: position just past '{'.  Exit: just past the '}'.
     */
    void
    runDescObject()
    {
        DepthScope depth(depth_);
        if (++desc_depth_ > kMaxDescDepth)
            throw ParseError(ErrorCode::DepthExceeded,
                             "nesting too deep for descendant traversal",
                             cur_.pos());
        const std::string& k = q_.steps.back().key;
        for (;;) {
            Skipper::AttrResult attr =
                skip_.toAttr(Skipper::TypeFilter::Any, Group::G1);
            if (!attr.found) {
                --desc_depth_;
                return;
            }
            bool matched =
                cur_.slice(attr.key_begin, attr.key_end) == k;
            char c = cur_.current();
            if (c == '{' || c == '[') {
                size_t slot = SIZE_MAX;
                if (matched) {
                    slot = desc_pending_.size();
                    desc_pending_.emplace_back(cur_.pos(), kInFlight);
                    maybeFlushDesc(); // pins the span before any refill
                }
                cur_.advance(1);
                if (c == '{')
                    runDescObject();
                else
                    runDescArray();
                if (matched) {
                    desc_pending_[slot].second = cur_.pos();
                    maybeFlushDesc();
                }
            } else if (matched) {
                size_t start = cur_.pos();
                size_t saved = cur_.hold();
                cur_.setHold(std::min(saved, start));
                skip_.overPrimitive(Group::G3);
                size_t end = cur_.pos();
                while (end > start &&
                       json::isWhitespace(cur_.at(end - 1)))
                    --end;
                cur_.setHold(saved);
                desc_pending_.emplace_back(start, end);
                maybeFlushDesc();
            } else {
                skip_.overPrimitive(Group::G2);
            }
        }
    }

    /** Entry: position just past '['.  Exit: just past the ']'. */
    void
    runDescArray()
    {
        DepthScope depth(depth_);
        if (++desc_depth_ > kMaxDescDepth)
            throw ParseError(ErrorCode::DepthExceeded,
                             "nesting too deep for descendant traversal",
                             cur_.pos());
        for (;;) {
            // Primitive elements cannot match a name: batch-skip them.
            if (skip_.toContainerElem(Group::G1) ==
                Skipper::ElemStop::End) {
                --desc_depth_;
                return;
            }
            char c = cur_.current();
            cur_.advance(1);
            if (c == '{')
                runDescObject();
            else
                runDescArray();
            c = cur_.skipWhitespace();
            if (c == ',') {
                cur_.advance(1);
                continue;
            }
            if (c == ']') {
                cur_.advance(1);
                --desc_depth_;
                return;
            }
            throw ParseError(ErrorCode::ExpectedPunctuation,
                             "expected ',' or ']'", cur_.pos());
        }
    }

    /**
     * Deliver every completed slot not blocked by an earlier in-flight
     * one (pre-order is preserved because slots are recorded in
     * pre-order), then retarget the consumer hold at the earliest slot
     * still unflushed — or drop it when none remain.
     */
    void
    maybeFlushDesc()
    {
        while (desc_flushed_ < desc_pending_.size() &&
               desc_pending_[desc_flushed_].second != kInFlight) {
            auto [start, end] = desc_pending_[desc_flushed_];
            ++result_.matches;
            if (sink_)
                sink_->onMatch(cur_.slice(start, end));
            ++desc_flushed_;
        }
        if (desc_flushed_ == desc_pending_.size()) {
            // Fully drained: indices held on the stack are only live
            // while their slot is in-flight, so resetting is safe.
            desc_pending_.clear();
            desc_flushed_ = 0;
            cur_.setHold(StreamCursor::kNoHold);
        } else {
            cur_.setHold(desc_pending_[desc_flushed_].first);
        }
    }

    /** End-of-pass safety net; incremental flushing empties the list. */
    void
    flushDescendantMatches()
    {
        maybeFlushDesc();
        assert(desc_pending_.empty() && "descendant slot left in flight");
    }

    static constexpr int kMaxDescDepth = 20000;
    static constexpr size_t kInFlight = SIZE_MAX;

    const PathQuery& q_;
    const StreamerOptions& options_;
    StreamCursor cur_;
    Skipper skip_;
    MatchSink* sink_;
    StreamResult& result_;
    std::vector<std::pair<size_t, size_t>> desc_pending_;
    size_t desc_flushed_ = 0; ///< slots already delivered to the sink
    int desc_depth_ = 0;
    /** Containers entered and not yet closed (index level source). */
    int depth_ = 0;
    /** Cached suffix queries for filter continuations, by start step. */
    std::vector<std::unique_ptr<PathQuery>> cont_;
};

/**
 * Sink that turns a nested driver's slice-relative matches back into
 * absolute pending slots of the enclosing NfaDriver.  The slots are
 * already complete (both ends known), so appending preserves the
 * outer pre-order.
 */
class TranslatingSink : public MatchSink
{
  public:
    TranslatingSink(std::vector<std::pair<size_t, size_t>>& pending,
                    const char* base, size_t offset)
        : pending_(pending), base_(base), offset_(offset)
    {}

    void
    onMatch(std::string_view value) override
    {
        size_t start =
            offset_ + static_cast<size_t>(value.data() - base_);
        pending_.emplace_back(start, start + value.size());
    }

  private:
    std::vector<std::pair<size_t, size_t>>& pending_;
    const char* base_;
    size_t offset_;
};

/**
 * Streaming pass for the nondeterministic query surface — interior
 * descendant steps, alone or combined with filters (DESIGN.md §13).
 * Carries a multiset of NFA states (path::NfaSet) down the recursion
 * instead of the linear driver's single step index: a descendant step
 * keeps its search state co-resident with every continuation it
 * spawns, so `$..a[2].b` and `$..a[?(@.b)]..c` traverse the document
 * once.  Values are emitted once per accepting path, pre-order, via
 * the same pending-slot protocol the linear driver uses for terminal
 * descendants.  Fast-forwarding degrades gracefully: G4/G5 apply only
 * when no descendant state is live at the container, G1/G2 still
 * apply everywhere, and filter candidates keep the G3-or-G2 verdict
 * protocol of the linear driver.
 */
class NfaDriver
{
  public:
    NfaDriver(const PathQuery& query, const StreamerOptions& options,
              std::string_view json, MatchSink* sink,
              StreamResult& result)
        : q_(query),
          options_(options),
          cur_(json, options.scalar_classifier),
          skip_(cur_, &result.stats),
          sink_(sink),
          result_(result)
    {
        skip_.setBatchPrimitives(options.batch_primitives);
    }

    NfaDriver(const PathQuery& query, const StreamerOptions& options,
              intervals::ChunkSource& source, size_t chunk_bytes,
              MatchSink* sink, StreamResult& result)
        : q_(query),
          options_(options),
          cur_(source, chunk_bytes, options.scalar_classifier),
          skip_(cur_, &result.stats),
          sink_(sink),
          result_(result)
    {
        skip_.setBatchPrimitives(options.batch_primitives);
    }

    /** Record ingestion totals once the pass is over. */
    void
    finish()
    {
        result_.input_bytes = cur_.size();
        result_.ingest = cur_.ingestStats();
    }

    /**
     * Bind a structural semi-index built from exactly this input.
     * Top-level drivers only — interior replays (runInterior) run over
     * slices with slice-relative positions the index cannot serve.
     */
    void
    bindIndex(const index::StructuralIndex* idx)
    {
        skip_.bindIndex(idx, &depth_);
    }

    void
    run()
    {
        if (cur_.skipWhitespace() == '\0')
            throw ParseError(ErrorCode::UnexpectedEnd, "empty input", 0);
        root();
    }

    /** Records mode: every top-level value of the stream in turn. */
    void
    runRecords()
    {
        forEachRecord(cur_, result_.records, [this] { root(); });
    }

  private:
    /** Evaluate the query over the top-level value at the cursor. */
    void
    root()
    {
        path::NfaSet start;
        start.add(0, 1);
        value(start);
        maybeFlush();
        assert(pending_.empty() && "nfa slot left in flight");
    }

    /**
     * Nested entry point for filter-candidate interiors: evaluate the
     * candidate (this driver's whole input) against state set
     * @p initial.  Counting is left to the enclosing driver — the
     * nested pass only forwards spans through its TranslatingSink.
     */
    void
    runFrom(const path::NfaSet& initial, int depth_base)
    {
        depth_ = depth_base;
        count_matches_ = false;
        value(initial);
        maybeFlush();
    }

    /**
     * Process one value against state set @p a.  Entry: position at
     * the value's first byte (whitespace allowed before it).  Exit:
     * position just past the value.
     */
    void
    value(const path::NfaSet& a)
    {
        char c = cur_.skipWhitespace();
        if (c == '\0')
            throw ParseError(ErrorCode::UnexpectedEnd,
                             "unexpected end of input", cur_.pos());
        uint64_t acc = a.acceptCount(q_);
        size_t start = cur_.pos();
        size_t slot_base = pending_.size();
        if (acc > 0) {
            for (uint64_t i = 0; i < acc; ++i)
                pending_.emplace_back(start, kInFlight);
            maybeFlush(); // pins the span before any refill
        }
        if (c == '{' && path::nfaWantsObject(q_, a)) {
            cur_.advance(1);
            object(a);
        } else if (c == '[' && path::nfaWantsArray(q_, a)) {
            cur_.advance(1);
            array(a);
        } else {
            // No state can advance into this value: G3 when it is
            // itself accepted, G2 otherwise.
            skip_.overValue(acc > 0 ? Group::G3 : Group::G2);
        }
        if (acc > 0) {
            size_t end = cur_.pos();
            while (end > start && json::isWhitespace(cur_.at(end - 1)))
                --end;
            for (uint64_t i = 0; i < acc; ++i)
                pending_[slot_base + i].second = end;
            maybeFlush();
        }
    }

    /** Entry: position just past '{'.  Exit: just past the '}'. */
    void
    object(const path::NfaSet& a)
    {
        if (++depth_ > kMaxDepth)
            throw ParseError(ErrorCode::DepthExceeded,
                             "nesting too deep for descendant traversal",
                             cur_.pos());
        bool has_desc = path::nfaHasDescendant(q_, a);
        // Key states bind to the first member with their name only
        // (duplicate-key contract, mirrors the linear driver's G4).
        std::vector<char> consumed(a.states.size(), 0);
        for (;;) {
            Skipper::AttrResult attr =
                skip_.toAttr(Skipper::TypeFilter::Any, Group::G1);
            if (!attr.found) {
                --depth_;
                return;
            }
            path::NfaSet b = path::nfaOnKey(
                q_, a, cur_.slice(attr.key_begin, attr.key_end),
                &consumed);
            if (b.empty())
                skip_.overValue(Group::G2);
            else
                value(b);
            if (!has_desc) {
                // G4: once every Key state has bound, nothing else in
                // this object can match.
                bool live = false;
                for (size_t i = 0; i < a.states.size(); ++i) {
                    auto [s, c] = a.states[i];
                    (void)c;
                    if (s < q_.size() &&
                        q_[s].kind == PathStep::Kind::Key &&
                        !consumed[i]) {
                        live = true;
                        break;
                    }
                }
                if (!live) {
                    skip_.toObjEnd(Group::G4);
                    --depth_;
                    return;
                }
            }
        }
    }

    /** Entry: position just past '['.  Exit: just past the ']'. */
    void
    array(const path::NfaSet& a)
    {
        if (++depth_ > kMaxDepth)
            throw ParseError(ErrorCode::DepthExceeded,
                             "nesting too deep for descendant traversal",
                             cur_.pos());
        bool has_desc = path::nfaHasDescendant(q_, a);
        bool has_filter = false;
        size_t lo_min = std::numeric_limits<size_t>::max();
        size_t hi_max = 0;
        for (const auto& [s, c] : a.states) {
            (void)c;
            if (s >= q_.size())
                continue;
            const PathStep& st = q_[s];
            if (st.kind == PathStep::Kind::Filter)
                has_filter = true;
            else if (st.isArrayStep()) {
                lo_min = std::min(lo_min, st.lo);
                hi_max = std::max(hi_max, st.hi);
            }
        }
        // G5 range skipping is sound only when every live state is a
        // plain index/slice step.
        bool bounded = !has_desc && !has_filter &&
                       lo_min != std::numeric_limits<size_t>::max();
        size_t idx = 0;
        char c = cur_.skipWhitespace();
        if (c == ']') {
            cur_.advance(1);
            --depth_;
            return;
        }
        if (bounded && lo_min > 0 &&
            skip_.overElems(lo_min, idx, Group::G5) ==
                Skipper::ElemStop::End) {
            --depth_;
            return;
        }
        std::vector<std::pair<size_t, uint64_t>> fs;
        for (;;) {
            if (bounded && idx >= hi_max) {
                skip_.toAryEnd(Group::G5);
                --depth_;
                return;
            }
            c = cur_.skipWhitespace();
            if (c == ']') {
                cur_.advance(1);
                --depth_;
                return;
            }
            fs.clear();
            path::NfaSet b = path::nfaOnElement(q_, a, idx, &fs);
            if (!fs.empty() && c == '{') {
                elementWithFilters(b, fs);
            } else if (b.empty()) {
                // Gap element: outside every index range (G5), or
                // wanted only by filters and not an object (G1).
                skip_.overValue(fs.empty() ? Group::G5 : Group::G1);
            } else {
                value(b);
            }
            c = cur_.skipWhitespace();
            if (c == ',') {
                cur_.advance(1);
                ++idx;
                continue;
            }
            if (c == ']') {
                cur_.advance(1);
                --depth_;
                return;
            }
            throw ParseError(ErrorCode::ExpectedPunctuation,
                             "expected ',' or ']'", cur_.pos());
        }
    }

    /**
     * An object element wanted by at least one filter state: probe for
     * every distinct predicate field in a single scan, resolve the
     * verdicts, then fast-forward the remainder — G3 when any state
     * survives into the candidate, G2 when none does.  Survivor states
     * (filter advances merged into @p b) replay the held candidate
     * span through a nested NfaDriver whose matches are translated
     * back into this driver's pending queue.
     *
     * Entry: position at the element's '{'.  Exit: just past its '}'.
     */
    void
    elementWithFilters(path::NfaSet b,
                       std::vector<std::pair<size_t, uint64_t>>& fs)
    {
        size_t start = cur_.pos();
        size_t saved_pin = pin_;
        pin_ = std::min(pin_, start);
        maybeFlush(); // re-anchor the hold at the candidate
        cur_.advance(1);
        // The probe scan runs inside the candidate object; the depth
        // counter must say so for the skipper's index level to match.
        ++depth_;

        struct Probe
        {
            const std::string* field;
            bool present = false;
            size_t vs = 0, ve = 0;
        };
        std::vector<Probe> probes;
        for (const auto& [s, c] : fs) {
            (void)c;
            const std::string& f = q_[s].key;
            bool dup = false;
            for (const auto& p : probes) {
                if (*p.field == f) {
                    dup = true;
                    break;
                }
            }
            if (!dup)
                probes.push_back({&f, false, 0, 0});
        }
        size_t remaining = probes.size();
        bool consumed_whole = false;
        for (;;) {
            Skipper::AttrResult attr =
                skip_.toAttr(Skipper::TypeFilter::Any, Group::G1);
            if (!attr.found) {
                consumed_whole = true;
                break;
            }
            std::string_view key =
                cur_.slice(attr.key_begin, attr.key_end);
            Probe* hit = nullptr;
            for (auto& p : probes) {
                if (!p.present && *p.field == key) {
                    hit = &p;
                    break;
                }
            }
            if (hit == nullptr) {
                skip_.overValue(Group::G2);
                continue;
            }
            hit->present = true;
            hit->vs = cur_.pos();
            char vc = cur_.current();
            if (vc == '{' || vc == '[') {
                hit->ve = hit->vs + 1; // operator dispatch needs 1 byte
                skip_.overValue(Group::G2);
            } else {
                skip_.overPrimitive(Group::G1);
                size_t ve = cur_.pos();
                while (ve > hit->vs &&
                       json::isWhitespace(cur_.at(ve - 1)))
                    --ve;
                hit->ve = ve;
            }
            if (--remaining == 0)
                break;
        }
        for (const auto& [s, c] : fs) {
            const PathStep& st = q_[s];
            const Probe* p = nullptr;
            for (const auto& pr : probes) {
                if (*pr.field == st.key) {
                    p = &pr;
                    break;
                }
            }
            bool verdict =
                p->present
                    ? path::evalPredicate(st, true,
                                          cur_.slice(p->vs, p->ve))
                    : path::evalPredicate(st, false, {});
            if (verdict)
                b.add(s + 1, c);
        }
        if (!consumed_whole)
            skip_.toObjEnd(b.empty() ? Group::G2 : Group::G3);
        --depth_;
        size_t end = cur_.pos();
        uint64_t acc = b.acceptCount(q_);
        for (uint64_t i = 0; i < acc; ++i)
            pending_.emplace_back(start, end); // pre-order: value first
        if (acc > 0)
            maybeFlush();
        path::NfaSet rest = b.withoutAccept(q_);
        if (!rest.empty())
            runInterior(rest, start, end);
        pin_ = saved_pin;
        maybeFlush();
    }

    /**
     * Replay a kept candidate's interior against surviving state set
     * @p set with a nested NfaDriver over the resident span.  Stats
     * accumulate into the shared FastForwardStats (the candidate's
     * bytes are charged once by the probe scan and again by the
     * replay — deterministic, and an honest account of the extra
     * pass); matches flow through the TranslatingSink so only this
     * driver counts and delivers them.
     */
    void
    runInterior(const path::NfaSet& set, size_t start, size_t end)
    {
        std::string_view span = cur_.slice(start, end);
        TranslatingSink tsink(pending_, span.data(), start);
        NfaDriver sub(q_, options_, span, &tsink, result_);
        try {
            sub.runFrom(set, depth_);
        } catch (const ParseError& e) {
            throw ParseError(e.code(), "in filter candidate",
                             start + e.position());
        }
    }

    /**
     * Deliver every completed slot not blocked by an earlier in-flight
     * one, then retarget the consumer hold at the earliest unflushed
     * slot or the active candidate pin, whichever is lower.
     */
    void
    maybeFlush()
    {
        while (flushed_ < pending_.size() &&
               pending_[flushed_].second != kInFlight) {
            auto [start, end] = pending_[flushed_];
            if (count_matches_)
                ++result_.matches;
            if (sink_)
                sink_->onMatch(cur_.slice(start, end));
            ++flushed_;
        }
        size_t hold = pin_;
        if (flushed_ == pending_.size()) {
            pending_.clear();
            flushed_ = 0;
        } else {
            hold = std::min(hold, pending_[flushed_].first);
        }
        cur_.setHold(hold);
    }

    static constexpr int kMaxDepth = 20000;
    static constexpr size_t kInFlight = SIZE_MAX;

    const PathQuery& q_;
    const StreamerOptions& options_;
    StreamCursor cur_;
    Skipper skip_;
    MatchSink* sink_;
    StreamResult& result_;
    std::vector<std::pair<size_t, size_t>> pending_;
    size_t flushed_ = 0;   ///< slots already delivered to the sink
    size_t pin_ = StreamCursor::kNoHold; ///< active candidate hold
    bool count_matches_ = true; ///< false in nested candidate replays
    int depth_ = 0;
};

/**
 * One pass of a fresh driver over @p input (a buffer, or a ChunkSource
 * and its chunk size): NfaDriver for the nondeterministic query
 * surface (DESIGN.md §13), the linear Driver for everything else, so
 * plain queries keep its exact traversal, byte charges and emissions.
 * @p go runs the driver; a sink's StopStreaming ends the pass early
 * with a valid partial result.
 */
template <class Go, class... Input>
StreamResult
pass(const PathQuery& q, const StreamerOptions& options, MatchSink* sink,
     Go go, Input&... input)
{
    StreamResult result;
    auto drive = [&](auto& driver) {
        try {
            go(driver);
        } catch (const StopStreaming&) {
        }
        driver.finish();
    };
    if (q.hasInteriorDescendant()) {
        NfaDriver driver(q, options, input..., sink, result);
        drive(driver);
    } else {
        Driver driver(q, options, input..., sink, result);
        drive(driver);
    }
    return result;
}

constexpr auto kOneValue = [](auto& driver) { driver.run(); };

/**
 * Forwards matches to the caller's sink while counting what got
 * through, so the indexed run can tell whether a defensive
 * IndexMismatch arrived before anything reached the caller — replaying
 * from scratch is only sound when nothing did.
 */
class ForwardingCountSink : public MatchSink
{
  public:
    explicit ForwardingCountSink(MatchSink* inner) : inner_(inner) {}

    void
    onMatch(std::string_view value) override
    {
        ++forwarded_;
        inner_->onMatch(value);
    }

    size_t forwarded() const { return forwarded_; }

  private:
    MatchSink* inner_;
    size_t forwarded_ = 0;
};

} // namespace

StreamResult
Streamer::run(std::string_view json, MatchSink* sink) const
{
    if (size_t chunk = testChunkBytesOverride()) {
        intervals::ViewSource source(json);
        return run(source, sink, chunk);
    }
    return runResident(json, sink);
}

StreamResult
Streamer::runResident(std::string_view json, MatchSink* sink) const
{
    return pass(query_, options_, sink, kOneValue, json);
}

StreamResult
Streamer::run(intervals::ChunkSource& source, MatchSink* sink,
              size_t chunk_bytes) const
{
    return pass(query_, options_, sink, kOneValue, source, chunk_bytes);
}

StreamResult
Streamer::runRecords(intervals::ChunkSource& source, MatchSink* sink,
                     size_t chunk_bytes) const
{
    return pass(
        query_, options_, sink, [](auto& driver) { driver.runRecords(); },
        source, chunk_bytes);
}

StreamResult
Streamer::runIndexed(std::string_view json,
                     const index::StructuralIndex& idx,
                     MatchSink* sink) const
{
    if (size_t chunk = testChunkBytesOverride()) {
        intervals::ViewSource source(json);
        return runIndexed(source, idx, sink, chunk);
    }
    if (!idx.usable() || idx.levels() == 0)
        return runResident(json, sink); // unclean document: stream
    ForwardingCountSink counted(sink);
    MatchSink* inner = sink ? static_cast<MatchSink*>(&counted) : nullptr;
    try {
        return pass(
            query_, options_, inner,
            [&idx](auto& driver) {
                driver.bindIndex(&idx);
                driver.run();
            },
            json);
    } catch (const ParseError& e) {
        // A self-built index only contradicts the driver on
        // grammatically invalid (though structurally clean) documents,
        // where the driver's lenient skip rules desynchronize its
        // depth from the classifier's — e.g. a backslash spliced in
        // front of a string's closing quote.  The bytes are resident
        // and nothing reached the sink yet, so replay plain: warm
        // output stays identical to streaming even on junk.  After an
        // emission the replay would duplicate matches, so the typed
        // mismatch propagates (fail closed, never wrong output).
        if (e.code() != ErrorCode::IndexMismatch ||
            counted.forwarded() != 0)
            throw;
        return runResident(json, sink);
    }
}

StreamResult
Streamer::runIndexed(intervals::ChunkSource& source,
                     const index::StructuralIndex& idx, MatchSink* sink,
                     size_t chunk_bytes) const
{
    // Unlike the resident overload, a defensive IndexMismatch cannot
    // fall back to a plain replay here: the source is forward-only and
    // the warm skips have already consumed it.  It propagates typed
    // (fail closed) — reachable only for grammatically invalid
    // documents or a caller-contract-violating foreign index.
    if (!idx.usable() || idx.levels() == 0)
        return run(source, sink, chunk_bytes);
    return pass(
        query_, options_, sink,
        [&idx](auto& driver) {
            driver.bindIndex(&idx);
            driver.run();
        },
        source, chunk_bytes);
}

QueryResult
query(std::string_view json, std::string_view path_text, bool collect)
{
    Streamer streamer(path::parse(path_text));
    QueryResult out;
    if (collect) {
        CollectSink sink;
        StreamResult r = streamer.run(json, &sink);
        out.count = r.matches;
        out.stats = r.stats;
        out.values = std::move(sink.values);
    } else {
        StreamResult r = streamer.run(json);
        out.count = r.matches;
        out.stats = r.stats;
    }
    return out;
}

} // namespace jsonski::ski
