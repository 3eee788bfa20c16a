/**
 * @file
 * The two streaming drivers behind Streamer: the linear Driver runs
 * the paper's Algorithm 2 over key, index, slice and wildcard steps
 * with one automaton state per level, and NfaDriver runs every query
 * with a filter or descendant step over a set of states (DESIGN.md
 * §13).  pass() picks one per run.
 */
#include "ski/streamer.h"

#include <algorithm>
#include <cassert>
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
using path::NfaSet;
using path::PathQuery;
using path::PathStep;

/**
 * Container-depth bookkeeping: one unclosed opener consumed per scope.
 * The skipper derives the structural-index bitmap level from the bound
 * counter, so the count must be exact at every skipper call — RAII
 * keeps it so across every return path.
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

/**
 * What both drivers share: one pass's cursor, skipper and result, and
 * the paper's Algorithm 2 loops over key, index, slice and wildcard
 * steps (PathStep::isPlain).  A loop hands each value its step selects
 * to Host::child(state, n) with the cursor on the value's first byte;
 * n is the NFA path count the linear driver keeps at 1.
 */
template <class Host>
class PlainSteps
{
  public:
    PlainSteps(const PathQuery& query, const StreamerOptions& options,
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

    PlainSteps(const PathQuery& query, const StreamerOptions& options,
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
     * Top-level passes only — filter candidate replays run over slices
     * with slice-relative positions the index cannot serve.
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
        host().root();
    }

    /** Records mode: every top-level value of the stream in turn. */
    void
    runRecords()
    {
        forEachRecord(cur_, result_.records, [this] { host().root(); });
    }

  protected:
    Host& host() { return static_cast<Host&>(*this); }

    /**
     * The value at the cursor for state @p state, which needs @p want
     * ('{' or '[', and the value starts with it) when that is a plain
     * step; every other state goes to the host.
     */
    void
    next(size_t state, char want, bool plain, uint64_t n)
    {
        if (!plain) {
            host().child(state, n);
            return;
        }
        cur_.advance(1); // consume '{' or '['
        if (want == '{')
            runObject(state, n);
        else
            runArray(state, n);
    }

    /** True when state @p state is a plain step (not ACCEPT). */
    bool
    plainAt(size_t state) const
    {
        return state < q_.size() && q_[state].isPlain();
    }

    /**
     * Process an object whose attributes are matched against key step
     * @p state.  Entry: position just past '{'.  Exit: position just
     * past the matching '}'.
     *
     * runObject and runArray stay out of line: GCC otherwise folds
     * both into next(), and that one recursive function ran the
     * Table 5 queries 2-6% slower.
     */
    [[gnu::noinline]] void
    runObject(size_t state, uint64_t n)
    {
        DepthScope depth(depth_);
        const PathStep& st = q_[state];
        char want = path::nfaNeeds(q_, state + 1);
        bool plain = plainAt(state + 1);
        Skipper::TypeFilter filter =
            want == 0 || !options_.type_filter ? Skipper::TypeFilter::Any
            : want == '['                      ? Skipper::TypeFilter::Array
                                               : Skipper::TypeFilter::Object;
        for (;;) {
            Skipper::AttrResult attr = skip_.toAttr(filter, Group::G1);
            if (!attr.found)
                return; // object consumed; includes G4-less exhaustion
            if (cur_.slice(attr.key_begin, attr.key_end) != st.key ||
                (want != 0 && cur_.current() != want)) {
                // G2: another name, or (reachable only with the G1
                // filter off) a value the next step cannot use — the
                // step binds the first member with its name whose
                // value it can use (path::nfaNeeds).
                skip_.overValue(Group::G2);
                continue;
            }
            next(state + 1, want, plain, n);
            // G4: the step has bound — nothing else in this object can
            // match; fast-forward past its '}'.
            skip_.toObjEnd(Group::G4);
            return;
        }
    }

    /**
     * Process an array whose elements are matched against index,
     * slice or wildcard step @p state.  Entry: position just past '['.
     * Exit: just past ']'.
     */
    [[gnu::noinline]] void
    runArray(size_t state, uint64_t n)
    {
        DepthScope depth(depth_);
        const PathStep& st = q_[state];
        char want = path::nfaNeeds(q_, state + 1);
        bool plain = plainAt(state + 1);
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
            if (want != 0 && options_.type_filter) {
                // G1: only elements of the expected container type
                // can extend the match.
                Skipper::ElemStop stop =
                    skip_.toTypedElem(want, idx, st.hi, Group::G1);
                if (stop == Skipper::ElemStop::End)
                    return;
                if (idx >= st.hi)
                    continue; // budget reached; loop skips out
                next(state + 1, want, plain, n);
            } else if (want != 0 && c != want) {
                skip_.overValue(Group::G2);
            } else {
                next(state + 1, want, plain, n); // G3 when it accepts
            }
            if (!moreElements())
                return;
            ++idx;
        }
    }

    /** After an element: true past a ',', false past the array's ']'. */
    bool
    moreElements()
    {
        char c = cur_.skipWhitespace();
        if (c != ',' && c != ']')
            throw ParseError(ErrorCode::ExpectedPunctuation,
                             "expected ',' or ']'", cur_.pos());
        cur_.advance(1);
        return c == ',';
    }

    /** End of the value that began at @p start, trailing space cut. */
    size_t
    trimmedEnd(size_t start) const
    {
        size_t end = cur_.pos();
        while (end > start && json::isWhitespace(cur_.at(end - 1)))
            --end;
        return end;
    }

    const PathQuery& q_;
    const StreamerOptions& options_;
    StreamCursor cur_;
    Skipper skip_;
    MatchSink* sink_;
    StreamResult& result_;
    /** Containers entered and not yet closed (index level source). */
    int depth_ = 0;
};

/**
 * One streaming pass over a single record for a query made of key,
 * index, slice and wildcard steps only: the paper's Algorithm 2, one
 * automaton state per level, kept implicitly in the call stack.
 */
class Driver : public PlainSteps<Driver>
{
  public:
    using PlainSteps::PlainSteps;

  private:
    friend class PlainSteps<Driver>;

    /** Evaluate the query over the top-level value at the cursor. */
    void
    root()
    {
        if (q_.empty()) {
            emitValue(); // `$` selects the whole record
            return;
        }
        // Root type mismatch: no match possible, and nothing is read.
        char want = q_[0].isArrayStep() ? '[' : '{';
        if (cur_.current() == want)
            next(0, want, true, 1);
    }

    /** Only ACCEPT reaches here: every other state is a plain step. */
    void child(size_t, uint64_t) { emitValue(); }

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
        size_t end = trimmedEnd(start);
        ++result_.matches;
        if (sink_)
            sink_->onMatch(cur_.slice(start, end));
        cur_.setHold(saved);
    }
};

/**
 * Streaming pass for every query with a filter or descendant step
 * (DESIGN.md §13).  Carries a multiset of NFA states (path::NfaSet)
 * down the recursion instead of the linear driver's single step index:
 * a descendant step keeps its search state co-resident with every
 * continuation it spawns, so `$..a[2].b` and `$..a[?(@.b)]..c`
 * traverse the document once.  Values are emitted once per accepting
 * path, in pre-order, through pending slots patched once their end is
 * known.
 *
 * Fast-forwarding follows the live states of each container:
 *  - one plain state (every set is one state until a `..` search
 *    forks it): the linear driver's loops, with their G1 type scans,
 *    G4 and G5;
 *  - `..` searches only: primitive elements batch-skip to the next
 *    container (G1), members no search names keep the set as it is,
 *    and a matched primitive is reported directly (G3);
 *  - filters only: toTypedElem('{') reaches each candidate (G1), whose
 *    predicate fields are probed in one scan, and the rest is
 *    fast-forwarded — G3 when a state survives, G2 when none does.
 *    Survivors replay the held candidate span with a nested driver;
 *  - anything else examines every member and element.
 */
class NfaDriver : public PlainSteps<NfaDriver>
{
  public:
    NfaDriver(const PathQuery& query, const StreamerOptions& options,
              std::string_view json, MatchSink* sink,
              StreamResult& result)
        : PlainSteps(query, options, json, sink, result)
    {}

    NfaDriver(const PathQuery& query, const StreamerOptions& options,
              intervals::ChunkSource& source, size_t chunk_bytes,
              MatchSink* sink, StreamResult& result)
        : PlainSteps(query, options, source, chunk_bytes, sink, result)
    {}

  private:
    friend class PlainSteps<NfaDriver>;

    /** A filter state live at an array, and its predicate field. */
    struct Filter
    {
        size_t state;
        uint64_t count;
        size_t field; ///< index into Frame::fields
    };

    /**
     * Per-depth scratch, reused by every container at that depth, so
     * no state set, consumed mask or filter list is allocated per
     * member, element or candidate.
     */
    struct Frame
    {
        NfaSet next;   ///< the set the current member/element starts in
        NfaSet search; ///< the `..` states of a mixed set (searches)
        std::vector<char> consumed; ///< Key states bound in this object
        std::vector<Filter> filters; ///< this array's filter states
        std::vector<const std::string*> fields; ///< distinct, probed
        std::vector<char> found; ///< fields the candidate has shown
    };

    /** State a pass and its candidate replays share. */
    struct Scratch
    {
        /** Match slots in document pre-order; end == kInFlight while
         *  the value is still being read.  Positions are the
         *  top-level pass's. */
        std::vector<std::pair<size_t, size_t>> pending;
        std::vector<std::unique_ptr<Frame>> frames; ///< by depth
    };

    /**
     * A replay of a kept filter candidate: @p span is the candidate,
     * resident in @p outer's window at @p outer_pos.  It shares the
     * outer pass's stats, frames and pending slots and never flushes;
     * the outer pass delivers its matches once the replay returns.
     */
    NfaDriver(NfaDriver& outer, std::string_view span, size_t outer_pos)
        : PlainSteps(outer.q_, outer.options_, span, nullptr,
                     outer.result_),
          scratch_(outer.scratch_),
          offset_(outer.offset_ + outer_pos),
          nested_(true)
    {
        depth_ = outer.depth_;
    }

    void
    root()
    {
        static const NfaSet kStart{{{0, 1}}};
        root(kStart);
    }

    /**
     * Evaluate from state set @p a over the value at the cursor.  A
     * value the set can neither enter nor accept is not read at all —
     * the scan is a prefix read, not a validator, as in the linear
     * driver and MultiStreamer.
     */
    void
    root(const NfaSet& a)
    {
        char c = cur_.skipWhitespace();
        if ((c == '{' && path::nfaWantsObject(q_, a)) ||
            (c == '[' && path::nfaWantsArray(q_, a)) ||
            a.acceptCount(q_) > 0)
            value(a);
        maybeFlush();
        assert((nested_ || scratch_->pending.empty()) &&
               "nfa slot left in flight");
    }

    /** The value a plain step selected for ACCEPT, a filter or `..`. */
    void
    child(size_t state, uint64_t n)
    {
        if (state == q_.size()) {
            accept(n);
            return;
        }
        Frame& f = frame();
        f.next.clear();
        f.next.add(state, n);
        value(f.next);
    }

    /**
     * Report the value at the cursor @p n times when no state can
     * enter it: fast-forward it (G3) and complete its slots at once.
     */
    void
    accept(uint64_t n)
    {
        size_t start = cur_.pos();
        cur_.setHold(std::min(cur_.hold(), start)); // resident until sent
        skip_.overValue(Group::G3);
        report(start, trimmedEnd(start), n);
        maybeFlush();
    }

    /**
     * Process one value against state set @p a.  Entry: position at
     * the value's first byte (whitespace allowed before it).  Exit:
     * position just past the value.
     */
    void
    value(const NfaSet& a)
    {
        char c = cur_.skipWhitespace();
        if (c == '\0')
            throw ParseError(ErrorCode::UnexpectedEnd,
                             "unexpected end of input", cur_.pos());
        uint64_t acc = a.acceptCount(q_);
        size_t start = cur_.pos();
        auto& pending = scratch_->pending;
        size_t slot = pending.size();
        if (acc > 0) {
            pending.insert(pending.end(), acc, {offset_ + start, kInFlight});
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
            size_t end = offset_ + trimmedEnd(start);
            for (uint64_t i = 0; i < acc; ++i)
                pending[slot + i].second = end;
            maybeFlush();
        }
    }

    /** Entry: position just past '{'.  Exit: just past the '}'. */
    void
    object(const NfaSet& a)
    {
        auto [s0, n0] = a.states.front();
        if (a.states.size() == 1 && q_[s0].kind == PathStep::Kind::Key) {
            runObject(s0, n0);
            return;
        }
        enter();
        bool keys = false;
        for (const auto& [s, c] : a.states) {
            (void)c;
            keys = keys || (s < q_.size() && q_[s].kind == PathStep::Kind::Key);
        }
        if (!keys) {
            searchObject(searches(a));
            return;
        }
        // Key states beside a `..` search: every member is examined,
        // so neither G1 type skipping nor G4 applies.
        Frame& f = frame();
        f.consumed.assign(a.states.size(), 0);
        for (;;) {
            Skipper::AttrResult attr =
                skip_.toAttr(Skipper::TypeFilter::Any, Group::G1);
            if (!attr.found) {
                --depth_;
                return;
            }
            path::nfaOnKey(q_, a, cur_.slice(attr.key_begin, attr.key_end),
                           cur_.current(), f.consumed, f.next);
            if (f.next.empty())
                skip_.overValue(Group::G2);
            else
                value(f.next);
        }
    }

    /**
     * An object where every live state of @p a is a `..` search: every
     * member is examined, so neither G1 type skipping nor G4 applies.
     * A container whose name no search matches is searched with the
     * same set, and a matched primitive is reported directly (G3).
     *
     * Entry: position just past '{', depth entered.  Exit: past '}'.
     */
    void
    searchObject(const NfaSet& a)
    {
        // Most searches look for one name: compare it directly.
        const std::string* one =
            a.states.size() == 1 ? &q_[a.states[0].first].key : nullptr;
        auto named = [&](size_t s, std::string_view key) {
            return q_[s].key == key;
        };
        for (;;) {
            Skipper::AttrResult attr =
                skip_.toAttr(Skipper::TypeFilter::Any, Group::G1);
            if (!attr.found) {
                --depth_;
                return;
            }
            std::string_view key = cur_.slice(attr.key_begin, attr.key_end);
            bool hit = one != nullptr
                           ? *one == key
                           : std::any_of(a.states.begin(), a.states.end(),
                                         [&](const auto& sc) {
                                             return named(sc.first, key);
                                         });
            char c = cur_.current();
            bool container = c == '{' || c == '[';
            if (!hit && !container) {
                skip_.overPrimitive(Group::G2);
            } else if (!hit) {
                cur_.advance(1);
                enter();
                if (c == '{')
                    searchObject(a);
                else
                    searchArray(a);
            } else if (container) {
                Frame& f = frame();
                f.next = a;
                for (const auto& [s, n] : a.states) {
                    if (named(s, key))
                        f.next.add(s + 1, n);
                }
                value(f.next);
            } else {
                uint64_t acc = 0;
                for (const auto& [s, n] : a.states) {
                    if (s + 1 == q_.size() && named(s, key))
                        acc += n;
                }
                if (acc > 0)
                    accept(acc);
                else
                    skip_.overPrimitive(Group::G2);
            }
        }
    }

    /**
     * An array where every live state of @p a is a `..` search:
     * primitive elements cannot feed it, so they are batch-skipped to
     * the next container (G1), which is searched with the same set.
     *
     * Entry: position just past '[', depth entered.  Exit: past ']'.
     */
    void
    searchArray(const NfaSet& a)
    {
        while (skip_.toContainerElem(Group::G1) == Skipper::ElemStop::Found) {
            char c = cur_.current();
            cur_.advance(1);
            enter();
            if (c == '{')
                searchObject(a);
            else
                searchArray(a);
            if (!moreElements())
                break;
        }
        --depth_;
    }

    /** The `..` states of @p a: the set itself when it has no other. */
    const NfaSet&
    searches(const NfaSet& a)
    {
        bool only = std::all_of(
            a.states.begin(), a.states.end(), [&](const auto& sc) {
                return sc.first < q_.size() &&
                       q_[sc.first].kind == PathStep::Kind::Descendant;
            });
        if (only)
            return a;
        Frame& f = frame();
        f.search.clear();
        for (const auto& [s, c] : a.states) {
            if (s < q_.size() && q_[s].kind == PathStep::Kind::Descendant)
                f.search.add(s, c);
        }
        return f.search;
    }

    /** Entry: position just past '['.  Exit: just past the ']'. */
    void
    array(const NfaSet& a)
    {
        auto [s0, n0] = a.states.front();
        if (a.states.size() == 1 && q_[s0].isPlain()) {
            runArray(s0, n0);
            return;
        }
        enter();
        bool filter = false;
        bool steps = false; // index, slice or wildcard
        for (const auto& [s, c] : a.states) {
            (void)c;
            if (s >= q_.size())
                continue;
            filter = filter || q_[s].kind == PathStep::Kind::Filter;
            steps = steps || (q_[s].isPlain() && q_[s].isArrayStep());
        }
        if (!filter && !steps) {
            searchArray(searches(a));
            return;
        }
        if (a.states.size() == 1) { // a lone filter state
            filterArray(s0, n0);
            return;
        }
        // The filter states, and their distinct predicate fields, are
        // the same for every element.
        Frame& f = frame();
        f.filters.clear();
        f.fields.clear();
        for (const auto& [s, c] : a.states) {
            if (s >= q_.size() || q_[s].kind != PathStep::Kind::Filter)
                continue;
            const std::string& field = q_[s].key;
            auto it = std::find_if(
                f.fields.begin(), f.fields.end(),
                [&](const std::string* g) { return *g == field; });
            f.filters.push_back(
                {s, c, static_cast<size_t>(it - f.fields.begin())});
            if (it == f.fields.end())
                f.fields.push_back(&field);
        }
        for (size_t idx = 0;; ++idx) {
            char c = cur_.skipWhitespace();
            if (c == ']') {
                cur_.advance(1);
                break;
            }
            path::nfaOnElement(q_, a, idx, f.next, nullptr);
            if (!f.filters.empty() && c == '{') {
                candidate(f);
            } else if (f.next.empty()) {
                // Gap element: outside every index range (G5), or
                // wanted only by filters and not an object (G1).
                skip_.overValue(f.filters.empty() ? Group::G5 : Group::G1);
            } else {
                value(f.next);
            }
            if (!moreElements())
                break;
        }
        --depth_;
    }

    /**
     * An array under a lone filter state @p s (@p n paths), the shape
     * of every filter until a `..` search forks the set: G1 to each
     * `{`-opening candidate (a non-object cannot satisfy `@.field`),
     * probe its predicate field, then fast-forward the rest — G3 when
     * the candidate is kept, G2 when it is dropped.  A kept candidate
     * is reported, or replays its held span for the steps after the
     * filter.
     *
     * Entry: position just past '[', depth entered.  Exit: past ']'.
     */
    void
    filterArray(size_t s, uint64_t n)
    {
        const PathStep& st = q_[s];
        auto field = [&](std::string_view key) {
            return key == st.key ? 0 : kNone;
        };
        size_t idx = 0;
        while (skip_.toTypedElem('{', idx, SIZE_MAX, Group::G1) ==
               Skipper::ElemStop::Found) {
            size_t start = cur_.pos();
            // Resident through the verdict and the replay: the cursor
            // does not move between the scan's end and the replay's.
            cur_.setHold(std::min(cur_.hold(), start));
            cur_.advance(1);
            ++depth_; // the probe runs inside the candidate
            size_t vs = 0;
            size_t ve = 0;
            bool present = probe(field, vs, ve) != kNone;
            bool keep = path::evalPredicate(
                st, present,
                present ? cur_.slice(vs, ve) : std::string_view{});
            if (present)
                skip_.toObjEnd(keep ? Group::G3 : Group::G2);
            --depth_;
            if (keep && s + 1 == q_.size()) {
                report(start, cur_.pos(), n);
            } else if (keep) {
                Frame& f = frame();
                f.next.clear();
                f.next.add(s + 1, n);
                interior(f.next, start, cur_.pos());
            }
            maybeFlush();
            if (!moreElements())
                break;
        }
        --depth_;
    }

    /**
     * An object element wanted by the filter states in @p f.filters,
     * beside other states (a set a `..` search forked): probe every
     * distinct predicate field in one scan (the first member with its
     * name), decide each filter as its field shows up, then
     * fast-forward the remainder — G3 when any state survives into the
     * candidate, G2 when none does.  Accepting survivors report the
     * candidate; the others, gathered in @p f.next with the element's
     * own states, replay its held span.
     *
     * Entry: position at the element's '{'.  Exit: just past its '}'.
     */
    void
    candidate(Frame& f)
    {
        uint64_t acc = 0;
        auto decide = [&](const Filter& flt, bool present,
                          std::string_view lexeme) {
            if (!path::evalPredicate(q_[flt.state], present, lexeme))
                return;
            if (flt.state + 1 == q_.size())
                acc += flt.count;
            else
                f.next.add(flt.state + 1, flt.count);
        };
        size_t start = cur_.pos();
        cur_.setHold(std::min(cur_.hold(), start));
        cur_.advance(1);
        ++depth_; // the probe runs inside the candidate
        f.found.assign(f.fields.size(), 0);
        bool closed = false;
        for (size_t remaining = f.fields.size(); remaining > 0;
             --remaining) {
            size_t vs = 0;
            size_t ve = 0;
            size_t i = probe(
                [&](std::string_view key) {
                    for (size_t j = 0; j < f.fields.size(); ++j) {
                        if (!f.found[j] && *f.fields[j] == key)
                            return j;
                    }
                    return kNone;
                },
                vs, ve);
            if (i == kNone) {
                closed = true;
                break;
            }
            f.found[i] = 1;
            for (const Filter& flt : f.filters) {
                if (flt.field == i)
                    decide(flt, true, cur_.slice(vs, ve));
            }
        }
        for (const Filter& flt : f.filters) {
            if (!f.found[flt.field])
                decide(flt, false, {});
        }
        if (!closed)
            skip_.toObjEnd(acc > 0 || !f.next.empty() ? Group::G3
                                                      : Group::G2);
        --depth_;
        size_t end = cur_.pos();
        if (acc > 0)
            report(start, end, acc); // pre-order: before its interior
        if (!f.next.empty())
            interior(f.next, start, end);
        maybeFlush();
    }

    /**
     * Scan the candidate's members for one whose name @p match maps
     * to a field index: G2 over the others, G1 over a primitive value
     * of its own.  @return the index, with the value's lexeme in
     * [vs, ve) — a container's first byte only, as containers never
     * satisfy a comparison — or kNone when the object ends first (its
     * '}' consumed).
     */
    template <class Match>
    size_t
    probe(Match match, size_t& vs, size_t& ve)
    {
        for (;;) {
            Skipper::AttrResult attr =
                skip_.toAttr(Skipper::TypeFilter::Any, Group::G1);
            if (!attr.found)
                return kNone;
            size_t i = match(cur_.slice(attr.key_begin, attr.key_end));
            if (i == kNone) {
                skip_.overValue(Group::G2);
                continue;
            }
            vs = cur_.pos();
            char c = cur_.current();
            if (c == '{' || c == '[') {
                ve = vs + 1;
                skip_.overValue(Group::G2);
            } else {
                skip_.overPrimitive(Group::G1);
                ve = trimmedEnd(vs);
            }
            return i;
        }
    }

    /**
     * Replay a kept candidate [start, end) against its surviving
     * states @p set with a nested driver over the resident span.  The
     * candidate's bytes are charged once by the probe scan and again
     * by the replay — deterministic, and an honest account of the
     * extra pass.
     */
    void
    interior(const NfaSet& set, size_t start, size_t end)
    {
        NfaDriver sub(*this, cur_.slice(start, end), start);
        try {
            sub.root(set);
        } catch (const ParseError& e) {
            throw ParseError(e.code(), "in filter candidate",
                             start + e.position());
        }
    }

    /** Enter a container (its opener is consumed): the depth guard. */
    void
    enter()
    {
        if (++depth_ > kMaxDepth)
            throw ParseError(ErrorCode::DepthExceeded,
                             "nesting too deep for descendant traversal",
                             cur_.pos());
    }

    /** The scratch of the container at the current depth. */
    Frame&
    frame()
    {
        auto& frames = scratch_->frames;
        while (frames.size() <= static_cast<size_t>(depth_))
            frames.push_back(std::make_unique<Frame>());
        return *frames[static_cast<size_t>(depth_)];
    }

    /**
     * Report [start, end) @p n times, after every earlier slot: at once
     * when nothing earlier is still in flight, else as completed slots
     * for the next maybeFlush().
     */
    void
    report(size_t start, size_t end, uint64_t n)
    {
        auto& pending = scratch_->pending;
        if (!nested_ && pending.empty()) {
            result_.matches += n;
            for (uint64_t i = 0; sink_ != nullptr && i < n; ++i)
                sink_->onMatch(cur_.slice(start, end));
        } else {
            pending.insert(pending.end(), n,
                           {offset_ + start, offset_ + end});
        }
    }

    /**
     * Deliver every completed slot not blocked by an earlier in-flight
     * one, then retarget the consumer hold at the earliest unflushed
     * slot, or drop it.  A replay leaves delivery to the pass that
     * started it.
     */
    void
    maybeFlush()
    {
        if (nested_)
            return;
        if (scratch_->pending.empty())
            cur_.setHold(StreamCursor::kNoHold);
        else
            flush();
    }

    void
    flush()
    {
        auto& pending = scratch_->pending;
        while (flushed_ < pending.size() &&
               pending[flushed_].second != kInFlight) {
            auto [start, end] = pending[flushed_];
            ++result_.matches;
            if (sink_)
                sink_->onMatch(cur_.slice(start, end));
            ++flushed_;
        }
        size_t hold = StreamCursor::kNoHold;
        if (flushed_ == pending.size()) {
            // Fully drained: indices held on the stack are only live
            // while their slot is in flight, so resetting is safe.
            pending.clear();
            flushed_ = 0;
        } else {
            hold = std::min(hold, pending[flushed_].first);
        }
        cur_.setHold(hold);
    }

    static constexpr int kMaxDepth = 20000;
    static constexpr size_t kInFlight = SIZE_MAX;
    static constexpr size_t kNone = SIZE_MAX;

    Scratch own_;
    Scratch* scratch_ = &own_; ///< own_, or the outer pass's in a replay
    size_t offset_ = 0;      ///< this cursor's 0 in top-level positions
    bool nested_ = false;    ///< a candidate replay
    size_t flushed_ = 0;     ///< slots already delivered to the sink
};

/**
 * One pass of a fresh driver over @p input (a buffer, or a ChunkSource
 * and its chunk size): NfaDriver for every query with a filter or
 * descendant step (DESIGN.md §13), the linear Driver for the paper's
 * key, index, slice and wildcard steps.  @p go runs the driver; a
 * sink's StopStreaming ends the pass early with a valid partial
 * result.
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
    if (q.hasFilter() || q.hasDescendant()) {
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
    if (!idx.usable() || idx.levels() == 0)
        return run(json, sink); // unclean document: stream
    ForwardingCountSink counted(sink);
    MatchSink* inner = sink ? static_cast<MatchSink*>(&counted) : nullptr;
    try {
        if (size_t chunk = testChunkBytesOverride()) {
            intervals::ViewSource source(json);
            return runIndexed(source, idx, inner, chunk);
        }
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
        // (also when JSONSKI_TEST_CHUNK_BYTES feeds them through the
        // chunked overload) and nothing reached the sink yet, so
        // replay plain: warm output stays identical to streaming even
        // on junk.  After an emission the replay would duplicate
        // matches, so the typed mismatch propagates (fail closed,
        // never wrong output).
        if (e.code() != ErrorCode::IndexMismatch ||
            counted.forwarded() != 0)
            throw;
        return run(json, sink);
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
