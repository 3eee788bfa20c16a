/**
 * @file
 * The streaming driver behind Streamer and MultiStreamer: NfaDriver
 * runs a compiled query set (path::QueryNfa; a lone query is a set of
 * one) over the paper's Algorithm 2 loops, and pass() runs it once per
 * input (DESIGN.md §13, §15).
 */
#include "ski/streamer.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <memory>
#include <span>
#include <utility>

#include "index/structural_index.h"
#include "intervals/cursor.h"
#include "json/text.h"
#include "path/filter.h"
#include "path/parser.h"
#include "ski/multi.h"
#include "ski/records.h"
#include "ski/sinks.h"
#include "util/error.h"

namespace jsonski::ski {
namespace {

using intervals::StreamCursor;
using path::NfaSet;
using path::PathStep;
using path::QueryNfa;

std::atomic<size_t> g_whole_buffer_chunk_bytes{0};

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
 * One pass's cursor, skipper and result, and the paper's Algorithm 2
 * loops over one key, index, slice or wildcard state
 * (PathStep::isPlain).  A loop descends straight into a state's one
 * plain successor, and hands every other value its state selects to
 * Host::child(state, n) with the cursor on the value's first byte; n
 * is the number of automaton paths that reach the state.
 */
template <class Host>
class PlainSteps
{
  public:
    PlainSteps(const QueryNfa& nfa, const StreamerOptions& options,
               std::string_view json, MultiSink* sink,
               MultiStreamer::Result& result)
        : nfa_(nfa),
          options_(options),
          cur_(json, options.scalar_classifier),
          skip_(cur_, &result.stats),
          sink_(sink),
          result_(result)
    {
        skip_.setBatchPrimitives(options.batch_primitives);
    }

    PlainSteps(const QueryNfa& nfa, const StreamerOptions& options,
               intervals::ChunkSource& source, size_t chunk_bytes,
               MultiSink* sink, MultiStreamer::Result& result)
        : nfa_(nfa),
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
     * The value at the cursor, selected by state @p state: its one
     * plain successor @p single (QueryNfa::State::single) is entered
     * here — the value starts with @p want — and every other
     * successor set goes to the host.
     */
    void
    next(size_t state, size_t single, char want, uint64_t n)
    {
        if (single == QueryNfa::kNone) {
            host().child(state, n);
            return;
        }
        cur_.advance(1); // consume '{' or '['
        if (want == '{')
            runObject(single, n);
        else
            runArray(single, n);
    }

    /**
     * Process an object whose attributes are matched against key state
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
        const QueryNfa::State& st = nfa_[state];
        char want = st.need;
        size_t single = st.single;
        Skipper::TypeFilter filter = typeFilter(want);
        for (;;) {
            Skipper::AttrResult attr = skip_.toAttr(filter, Group::G1);
            if (!attr.found)
                return; // object consumed; includes G4-less exhaustion
            if (cur_.slice(attr.key_begin, attr.key_end) != st.step.key ||
                (want != 0 && cur_.current() != want)) {
                // G2: another name, or (reachable only with the G1
                // filter off) a value the next step cannot use — the
                // step binds the first member with its name whose
                // value it can use (path::nfaNeeds).
                skip_.overValue(Group::G2);
                continue;
            }
            next(state, single, want, n);
            // G4: the step has bound — nothing else in this object can
            // match; fast-forward past its '}'.
            skip_.toObjEnd(Group::G4);
            return;
        }
    }

    /**
     * Process an array whose elements are matched against index,
     * slice or wildcard state @p state.  Entry: position just past
     * '['.  Exit: just past ']'.
     */
    [[gnu::noinline]] void
    runArray(size_t state, uint64_t n)
    {
        DepthScope depth(depth_);
        const PathStep& st = nfa_[state].step;
        char want = nfa_[state].need;
        size_t single = nfa_[state].single;
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
                next(state, single, want, n);
            } else if (want != 0 && c != want) {
                skip_.overValue(Group::G2);
            } else {
                next(state, single, want, n); // G3 when it accepts
            }
            if (!moreElements())
                return;
            ++idx;
        }
    }

    /** The G1 attribute scan for members whose value must start with
     *  @p want (0: any value). */
    Skipper::TypeFilter
    typeFilter(char want) const
    {
        return want == 0 || !options_.type_filter ? Skipper::TypeFilter::Any
               : want == '['                      ? Skipper::TypeFilter::Array
                                                  : Skipper::TypeFilter::Object;
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

    const QueryNfa& nfa_;
    const StreamerOptions& options_;
    StreamCursor cur_;
    Skipper skip_;
    MultiSink* sink_;
    MultiStreamer::Result& result_;
    /** Containers entered and not yet closed (index level source). */
    int depth_ = 0;
};

/**
 * The streaming pass for every query and every query set (DESIGN.md
 * §13, §15).  Carries a multiset of automaton states (path::NfaSet)
 * down the recursion: a descendant state stays co-resident with every
 * continuation it spawns, so `$..a[2].b` and `$..a[?(@.b)]..c`
 * traverse the document once, and the queries of a set walk it
 * together.  Each ACCEPT reports under its query id, once per
 * accepting path, in pre-order, through pending slots patched once
 * their end is known.
 *
 * Fast-forwarding follows the live states of each container:
 *  - one plain state (a lone plain query, or a set's state once the
 *    others have died): the Algorithm 2 loops, with their G1 type
 *    scans, G4 and G5;
 *  - key states only: the same loop over several names — one G1 typed
 *    scan when they need the same container, G4 once all have bound;
 *  - index, slice and wildcard states only: the union of their ranges,
 *    with G5 below, between and above them;
 *  - `..` searches only: primitive elements batch-skip to the next
 *    container (G1), members no search names keep the set as it is,
 *    and a matched primitive is reported directly (G3);
 *  - a lone filter: toTypedElem('{') reaches each candidate (G1),
 *    whose predicate field is probed, and the rest is fast-forwarded —
 *    G3 when a state survives, G2 when none does.  Survivors with
 *    further steps replay the held candidate span with a nested
 *    driver;
 *  - anything else examines every member and element.
 */
class NfaDriver : public PlainSteps<NfaDriver>
{
  public:
    using PlainSteps::PlainSteps;

  private:
    friend class PlainSteps<NfaDriver>;

    /** A filter state live at an array, and its predicate field. */
    struct Filter
    {
        size_t state;
        uint64_t count;
        size_t field; ///< index into Frame::fields
    };

    /** A key state live at an object and not yet bound. */
    struct KeyProbe
    {
        QueryNfa::Name name;
        size_t entry; ///< its index in the object's set
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
        std::vector<KeyProbe> keys;  ///< this object's key states
        std::vector<Filter> filters; ///< this array's filter states
        std::vector<const std::string*> fields; ///< distinct, probed
        std::vector<char> found; ///< fields the candidate has shown
    };

    /** A match of @p query over [start, end) in top-level positions;
     *  end == kInFlight while the value is still being read. */
    struct Slot
    {
        size_t start;
        size_t end;
        size_t query;
    };

    /** State a pass and its candidate replays share. */
    struct Scratch
    {
        std::vector<Slot> pending; ///< in document pre-order
        std::vector<std::unique_ptr<Frame>> frames; ///< by depth
    };

    /**
     * A replay of a kept filter candidate: @p span is the candidate,
     * resident in @p outer's window at @p outer_pos.  It shares the
     * outer pass's stats, frames and pending slots and never flushes;
     * the outer pass delivers its matches once the replay returns.
     */
    NfaDriver(NfaDriver& outer, std::string_view span, size_t outer_pos)
        : PlainSteps(outer.nfa_, outer.options_, span, nullptr,
                     outer.result_),
          scratch_(outer.scratch_),
          offset_(outer.offset_ + outer_pos),
          nested_(true)
    {
        depth_ = outer.depth_;
    }

    /** Evaluate the query set over the top-level value at the cursor. */
    void
    root()
    {
        size_t s = nfa_.start().front();
        if (nfa_.start().size() == 1 && !nfa_.isAccept(s) &&
            nfa_[s].step.isPlain()) {
            // A lone plain query: Algorithm 2's root.  A value of the
            // other container type cannot match and is not read.
            char want = nfa_[s].step.isArrayStep() ? '[' : '{';
            if (cur_.current() == want) {
                cur_.advance(1);
                if (want == '{')
                    runObject(s, 1);
                else
                    runArray(s, 1);
            }
            return;
        }
        if (start_.empty())
            start_.merge(nfa_.start(), 1);
        root(start_);
    }

    /**
     * Evaluate from state set @p a over the value at the cursor.  A
     * value the set can neither enter nor accept is not read at all —
     * the scan is a prefix read, not a validator.
     */
    void
    root(const NfaSet& a)
    {
        char c = cur_.skipWhitespace();
        if ((c == '{' && nfa_.wantsObject(a)) ||
            (c == '[' && nfa_.wantsArray(a)) ||
            nfa_.live(a) < a.states.size())
            value(a);
        maybeFlush();
        assert((nested_ || scratch_->pending.empty()) &&
               "nfa slot left in flight");
    }

    /** The value a plain state selected for its successors. */
    void
    child(size_t state, uint64_t n)
    {
        const std::vector<size_t>& succ = nfa_[state].next;
        if (succ.size() == 1 && nfa_.isAccept(succ.front())) {
            NfaSet::Entry acc{succ.front(), n};
            accept({&acc, 1});
            return;
        }
        successors(succ, n);
    }

    /**
     * The value at the cursor against the set @p succ, reached by @p n
     * paths.  Out of line, like pend() and flush(): inlined, the three
     * doubled the plain loops' code and ran the Table 5 queries 1-4%
     * slower, though a lone plain query never takes them.
     */
    [[gnu::noinline]] void
    successors(const std::vector<size_t>& succ, uint64_t n)
    {
        Frame& f = frame();
        f.next.clear();
        f.next.merge(succ, n);
        value(f.next);
    }

    /**
     * Report the value at the cursor for each ACCEPT of @p acc, once
     * per path, when no state can enter it: fast-forward it (G3) and
     * complete its slots at once.
     *
     * Inlined into the plain loops: called out of line, it ran the
     * match-heavy Table 5 queries up to 2% slower.
     */
    [[gnu::always_inline]] void
    accept(std::span<const NfaSet::Entry> acc)
    {
        size_t start = cur_.pos();
        cur_.setHold(std::min(cur_.hold(), start)); // resident until sent
        skip_.overValue(Group::G3);
        size_t end = trimmedEnd(start);
        for (const auto& [s, n] : acc)
            report(start, end, nfa_.queryOf(s), n);
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
        size_t live = nfa_.live(a);
        if (live == 0) {
            accept(a.states);
            return;
        }
        size_t start = cur_.pos();
        auto& pending = scratch_->pending;
        size_t slot = pending.size();
        for (size_t i = live; i < a.states.size(); ++i) {
            auto [s, n] = a.states[i];
            pending.insert(pending.end(), n,
                           {offset_ + start, kInFlight, nfa_.queryOf(s)});
        }
        size_t slots = pending.size() - slot;
        if (slots > 0)
            maybeFlush(); // pins the span before any refill
        if (c == '{' && nfa_.wantsObject(a)) {
            cur_.advance(1);
            object(a);
        } else if (c == '[' && nfa_.wantsArray(a)) {
            cur_.advance(1);
            array(a);
        } else {
            // No state can advance into this value: G3 when it is
            // itself accepted, G2 otherwise.
            skip_.overValue(slots > 0 ? Group::G3 : Group::G2);
        }
        if (slots > 0) {
            size_t end = offset_ + trimmedEnd(start);
            for (size_t i = 0; i < slots; ++i)
                pending[slot + i].end = end;
            maybeFlush();
        }
    }

    /** Entry: position just past '{'.  Exit: just past the '}'. */
    void
    object(const NfaSet& a)
    {
        size_t live = nfa_.live(a);
        auto [s0, n0] = a.states.front();
        if (live == 1 && nfa_[s0].step.kind == PathStep::Kind::Key) {
            runObject(s0, n0);
            return;
        }
        enter();
        Frame& f = frame();
        f.keys.clear();
        bool search = false;
        for (size_t i = 0; i < live; ++i) {
            const QueryNfa::Name& name = nfa_.name(a.states[i].first);
            if (name.kind == PathStep::Kind::Key)
                f.keys.push_back({name, i});
            search = search || name.kind == PathStep::Kind::Descendant;
        }
        if (f.keys.empty()) {
            searchObject(searches(a));
            return;
        }
        if (!search) {
            keyObject(a, f);
            return;
        }
        // Key states beside a `..` search: every member is examined,
        // so neither G1 type skipping nor G4 applies.
        f.consumed.assign(live, 0);
        for (;;) {
            Skipper::AttrResult attr =
                skip_.toAttr(Skipper::TypeFilter::Any, Group::G1);
            if (!attr.found) {
                --depth_;
                return;
            }
            nfa_.onKey(a, cur_.slice(attr.key_begin, attr.key_end),
                       cur_.current(), f.consumed, f.next);
            if (f.next.empty())
                skip_.overValue(Group::G2);
            else
                value(f.next);
        }
    }

    /**
     * An object where the key states of @p a, listed in @p f.keys, are
     * its only live states that can enter one: runObject's loop over
     * several names.  Each state binds once, by runObject's rule; one
     * G1 typed scan serves them when they all need the same container,
     * and G4 fires once every one has bound.
     *
     * Entry: position just past '{', depth entered.  Exit: past '}'.
     */
    void
    keyObject(const NfaSet& a, Frame& f)
    {
        char want = f.keys.front().name.need;
        bool same = std::all_of(
            f.keys.begin(), f.keys.end(),
            [&](const KeyProbe& k) { return k.name.need == want; });
        Skipper::TypeFilter filter = typeFilter(same ? want : 0);
        for (;;) {
            Skipper::AttrResult attr = skip_.toAttr(filter, Group::G1);
            if (!attr.found)
                break;
            std::string_view key = cur_.slice(attr.key_begin, attr.key_end);
            uint64_t h = QueryNfa::head(key);
            auto named = [&](const KeyProbe& k) {
                return k.name.len == key.size() && k.name.head == h;
            };
            char c = cur_.current();
            f.next.clear();
            // A tight scan on length and first 8 bytes, so a set of a
            // thousand names stays cheap per member; a hit checks the rest.
            auto k = f.keys.begin();
            while ((k = std::find_if(k, f.keys.end(), named)) !=
                   f.keys.end()) {
                const auto& [s, n] = a.states[k->entry];
                if ((k->name.need != 0 && k->name.need != c) ||
                    (key.size() > sizeof h && nfa_[s].step.key != key)) {
                    ++k;
                    continue;
                }
                f.next.merge(nfa_[s].next, n);
                *k = f.keys.back(); // bound: drop it
                f.keys.pop_back();
            }
            if (f.next.empty()) {
                skip_.overValue(Group::G2);
                continue;
            }
            value(f.next);
            if (f.keys.empty()) {
                // G4: every key state has bound.
                skip_.toObjEnd(Group::G4);
                break;
            }
        }
        --depth_;
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
            a.states.size() == 1 ? &nfa_[a.states[0].first].step.key
                                 : nullptr;
        auto named = [&](size_t s, std::string_view key) {
            return nfa_[s].step.key == key;
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
                continue;
            }
            if (!hit) {
                cur_.advance(1);
                enter();
                if (c == '{')
                    searchObject(a);
                else
                    searchArray(a);
                continue;
            }
            // The searches stay beside what they matched, in a
            // container; a primitive can only be accepted.
            Frame& f = frame();
            if (container)
                f.next = a;
            else
                f.next.clear();
            for (const auto& [s, n] : a.states) {
                if (named(s, key))
                    f.next.merge(nfa_[s].next, n);
            }
            size_t live = nfa_.live(f.next);
            if (container)
                value(f.next);
            else if (live < f.next.states.size())
                accept(std::span(f.next.states).subspan(live));
            else
                skip_.overPrimitive(Group::G2);
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
        auto search = [&](const NfaSet::Entry& e) {
            return !nfa_.isAccept(e.first) &&
                   nfa_[e.first].step.kind == PathStep::Kind::Descendant;
        };
        if (std::all_of(a.states.begin(), a.states.end(), search))
            return a;
        Frame& f = frame();
        f.search.clear();
        std::copy_if(a.states.begin(), a.states.end(),
                     std::back_inserter(f.search.states), search);
        return f.search;
    }

    /** Entry: position just past '['.  Exit: just past the ']'. */
    void
    array(const NfaSet& a)
    {
        size_t live = nfa_.live(a);
        auto [s0, n0] = a.states.front();
        if (live == 1 && nfa_[s0].step.isPlain()) {
            runArray(s0, n0);
            return;
        }
        enter();
        bool filter = false;
        bool steps = false; // index, slice or wildcard
        bool search = false;
        for (size_t i = 0; i < live; ++i) {
            const PathStep& st = nfa_[a.states[i].first].step;
            filter = filter || st.kind == PathStep::Kind::Filter;
            steps = steps || (st.isPlain() && st.isArrayStep());
            search = search || st.kind == PathStep::Kind::Descendant;
        }
        if (!filter && !steps) {
            searchArray(searches(a));
            return;
        }
        if (live == 1) { // a lone filter state
            filterArray(s0, n0);
            return;
        }
        if (!filter && !search) {
            rangeArray(a, live);
            return;
        }
        // The filter states, and their distinct predicate fields, are
        // the same for every element.
        Frame& f = frame();
        f.filters.clear();
        f.fields.clear();
        for (size_t i = 0; i < live; ++i) {
            auto [s, c] = a.states[i];
            if (nfa_[s].step.kind != PathStep::Kind::Filter)
                continue;
            const std::string& field = nfa_[s].step.key;
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
            nfa_.onElement(a, idx, f.next);
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
     * An array where the index, slice and wildcard states of @p a are
     * its only live states that can enter one: the union of their
     * ranges.  G5 skips below the lowest start, past the highest end
     * and over gap elements no range covers; an element enters the
     * successors of every state covering it.
     *
     * Entry: position just past '[', depth entered.  Exit: past ']'.
     */
    void
    rangeArray(const NfaSet& a, size_t live)
    {
        size_t lo = SIZE_MAX;
        size_t hi = 0;
        for (size_t i = 0; i < live; ++i) {
            const PathStep& st = nfa_[a.states[i].first].step;
            if (st.isArrayStep()) {
                lo = std::min(lo, st.lo);
                hi = std::max(hi, st.hi);
            }
        }
        size_t idx = 0;
        char c = cur_.skipWhitespace();
        if (c == ']') {
            cur_.advance(1);
        } else if (lo == 0 || skip_.overElems(lo, idx, Group::G5) ==
                                  Skipper::ElemStop::Found) {
            Frame& f = frame();
            for (;; ++idx) {
                if (idx >= hi) {
                    skip_.toAryEnd(Group::G5);
                    break;
                }
                if (cur_.skipWhitespace() == ']') {
                    cur_.advance(1);
                    break;
                }
                f.next.clear();
                for (size_t i = 0; i < live; ++i) {
                    auto [s, n] = a.states[i];
                    const PathStep& st = nfa_[s].step;
                    if (st.isArrayStep() && st.coversIndex(idx))
                        f.next.merge(nfa_[s].next, n);
                }
                if (f.next.empty())
                    skip_.overValue(Group::G5); // a gap between ranges
                else
                    value(f.next);
                if (!moreElements())
                    break;
            }
        }
        --depth_;
    }

    /**
     * An array under a lone filter state @p s (@p n paths): G1 to each
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
        const PathStep& st = nfa_[s].step;
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
            if (keep) {
                Frame& f = frame();
                f.next.clear();
                f.next.merge(nfa_[s].next, n);
                kept(f.next, start, cur_.pos());
            }
            maybeFlush();
            if (!moreElements())
                break;
        }
        --depth_;
    }

    /**
     * An object element wanted by the filter states in @p f.filters,
     * beside other states: probe every distinct predicate field in one
     * scan (the first member with its name), decide each filter as its
     * field shows up, then fast-forward the remainder — G3 when any
     * state survives into the candidate, G2 when none does.  The
     * survivors, gathered in @p f.next with the element's own states,
     * settle the candidate (kept()).
     *
     * Entry: position at the element's '{'.  Exit: just past its '}'.
     */
    void
    candidate(Frame& f)
    {
        auto decide = [&](const Filter& flt, bool present,
                          std::string_view lexeme) {
            if (path::evalPredicate(nfa_[flt.state].step, present, lexeme))
                f.next.merge(nfa_[flt.state].next, flt.count);
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
            skip_.toObjEnd(f.next.empty() ? Group::G2 : Group::G3);
        --depth_;
        kept(f.next, start, cur_.pos());
        maybeFlush();
    }

    /**
     * Settle a candidate [start, end) that the states of @p set
     * survived into: report it for each ACCEPT of the set, then — its
     * interior after it, in pre-order — replay it for the others.
     */
    void
    kept(NfaSet& set, size_t start, size_t end)
    {
        size_t live = nfa_.live(set);
        for (size_t i = live; i < set.states.size(); ++i)
            report(start, end, nfa_.queryOf(set.states[i].first),
                   set.states[i].second);
        set.states.resize(live);
        if (live > 0)
            interior(set, start, end);
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
     * Report [start, end) @p n times for @p query, after every earlier
     * slot: at once when nothing earlier is still in flight, else as
     * completed slots for the next maybeFlush().
     */
    void
    report(size_t start, size_t end, size_t query, uint64_t n)
    {
        if (!nested_ && scratch_->pending.empty()) {
            result_.matches[query] += n;
            for (uint64_t i = 0; sink_ != nullptr && i < n; ++i)
                sink_->onMatch(query, cur_.slice(start, end));
        } else {
            pend(start, end, query, n);
        }
    }

    /** report() behind an earlier slot: queue @p n completed slots. */
    [[gnu::noinline]] void
    pend(size_t start, size_t end, size_t query, uint64_t n)
    {
        scratch_->pending.insert(scratch_->pending.end(), n,
                                 {offset_ + start, offset_ + end, query});
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

    [[gnu::noinline]] void
    flush()
    {
        auto& pending = scratch_->pending;
        while (flushed_ < pending.size() &&
               pending[flushed_].end != kInFlight) {
            const Slot& m = pending[flushed_];
            ++result_.matches[m.query];
            if (sink_)
                sink_->onMatch(m.query, cur_.slice(m.start, m.end));
            ++flushed_;
        }
        size_t hold = StreamCursor::kNoHold;
        if (flushed_ == pending.size()) {
            // Fully drained: indices held on the stack are only live
            // while their slot is in flight, so resetting is safe.
            pending.clear();
            flushed_ = 0;
        } else {
            hold = std::min(hold, pending[flushed_].start);
        }
        cur_.setHold(hold);
    }

    static constexpr int kMaxDepth = 20000;
    static constexpr size_t kInFlight = SIZE_MAX;
    static constexpr size_t kNone = SIZE_MAX;

    NfaSet start_;             ///< the start states, once per pass
    Scratch own_;
    Scratch* scratch_ = &own_; ///< own_, or the outer pass's in a replay
    size_t offset_ = 0;      ///< this cursor's 0 in top-level positions
    bool nested_ = false;    ///< a candidate replay
    size_t flushed_ = 0;     ///< slots already delivered to the sink
};

/**
 * One pass of a fresh driver for @p nfa over @p input (a buffer, or a
 * ChunkSource and its chunk size).  @p go runs the driver; a sink's
 * StopStreaming ends the pass early with a valid partial result.
 */
template <class Go, class... Input>
MultiStreamer::Result
pass(const QueryNfa& nfa, const StreamerOptions& options, MultiSink* sink,
     Go go, Input&... input)
{
    MultiStreamer::Result result;
    result.matches.assign(nfa.queryCount(), 0);
    NfaDriver driver(nfa, options, input..., sink, result);
    try {
        go(driver);
    } catch (const StopStreaming&) {
    }
    driver.finish();
    return result;
}

/**
 * pass() over a whole buffer, or — when the test seam is set
 * (setWholeBufferChunkBytes) — over the same bytes in chunks: the one
 * place a whole-buffer run is rerouted.
 */
template <class Go>
MultiStreamer::Result
passBuffer(const QueryNfa& nfa, const StreamerOptions& options,
           MultiSink* sink, Go go, std::string_view json)
{
    if (size_t chunk = wholeBufferChunkBytes()) {
        intervals::ViewSource source(json);
        return pass(nfa, options, sink, go, source, chunk);
    }
    return pass(nfa, options, sink, go, json);
}

constexpr auto kOneValue = [](auto& driver) { driver.run(); };
constexpr auto kRecords = [](auto& driver) { driver.runRecords(); };

/** A lone query's MatchSink behind the driver's MultiSink. */
class QuerySink final : public MultiSink
{
  public:
    explicit QuerySink(MatchSink* sink) : sink_(sink) {}

    /** What the driver reports to: null when the caller only counts. */
    MultiSink* get() { return sink_ != nullptr ? this : nullptr; }

    void
    onMatch(size_t, std::string_view value) override
    {
        sink_->onMatch(value);
    }

  private:
    MatchSink* sink_;
};

/** A lone query's view of a pass. */
StreamResult
solo(MultiStreamer::Result r)
{
    StreamResult out;
    out.matches = r.matches.front();
    out.stats = r.stats;
    out.input_bytes = r.input_bytes;
    out.records = r.records;
    out.ingest = r.ingest;
    return out;
}

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

void
setWholeBufferChunkBytes(size_t chunk_bytes)
{
    g_whole_buffer_chunk_bytes.store(chunk_bytes, std::memory_order_relaxed);
}

size_t
wholeBufferChunkBytes()
{
    return g_whole_buffer_chunk_bytes.load(std::memory_order_relaxed);
}

StreamResult
Streamer::run(std::string_view json, MatchSink* sink) const
{
    QuerySink one(sink);
    return solo(passBuffer(nfa_, options_, one.get(), kOneValue, json));
}

StreamResult
Streamer::runResident(std::string_view json, MatchSink* sink) const
{
    QuerySink one(sink);
    return solo(pass(nfa_, options_, one.get(), kOneValue, json));
}

StreamResult
Streamer::run(intervals::ChunkSource& source, MatchSink* sink,
              size_t chunk_bytes) const
{
    QuerySink one(sink);
    return solo(
        pass(nfa_, options_, one.get(), kOneValue, source, chunk_bytes));
}

StreamResult
Streamer::runRecords(intervals::ChunkSource& source, MatchSink* sink,
                     size_t chunk_bytes) const
{
    QuerySink one(sink);
    return solo(
        pass(nfa_, options_, one.get(), kRecords, source, chunk_bytes));
}

StreamResult
Streamer::run(intervals::ChunkSource& source, MultiSink& sink,
              size_t chunk_bytes) const
{
    return solo(pass(nfa_, options_, &sink, kOneValue, source, chunk_bytes));
}

StreamResult
Streamer::runRecords(intervals::ChunkSource& source, MultiSink& sink,
                     size_t chunk_bytes) const
{
    return solo(pass(nfa_, options_, &sink, kRecords, source, chunk_bytes));
}

StreamResult
Streamer::runIndexed(std::string_view json,
                     const index::StructuralIndex& idx,
                     MatchSink* sink) const
{
    if (!idx.usable() || idx.levels() == 0)
        return run(json, sink); // unclean document: stream
    ForwardingCountSink counted(sink);
    QuerySink one(sink ? &counted : nullptr);
    try {
        return solo(passBuffer(
            nfa_, options_, one.get(),
            [&idx](auto& driver) {
                driver.bindIndex(&idx);
                driver.run();
            },
            json));
    } catch (const ParseError& e) {
        // A self-built index only contradicts the driver on
        // grammatically invalid (though structurally clean) documents,
        // where the driver's lenient skip rules desynchronize its
        // depth from the classifier's — e.g. a backslash spliced in
        // front of a string's closing quote.  The bytes are resident
        // (also when the test seam feeds them through chunks) and
        // nothing reached the sink yet, so replay plain: warm output
        // stays identical to streaming even on junk.  After an
        // emission the replay would duplicate matches, so the typed
        // mismatch propagates (fail closed, never wrong output).
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
    QuerySink one(sink);
    return solo(pass(
        nfa_, options_, one.get(),
        [&idx](auto& driver) {
            driver.bindIndex(&idx);
            driver.run();
        },
        source, chunk_bytes));
}

MultiStreamer::MultiStreamer(std::vector<path::PathQuery> queries)
    : MultiStreamer(path::QuerySet::normalize(std::move(queries)))
{}

MultiStreamer::MultiStreamer(path::QuerySet set)
    : set_(std::move(set)), nfa_(set_.distinct)
{}

MultiStreamer::Result
MultiStreamer::run(std::string_view json, MultiSink* sink) const
{
    return passBuffer(nfa_, {}, sink, kOneValue, json);
}

MultiStreamer::Result
MultiStreamer::run(intervals::ChunkSource& source, MultiSink* sink,
                   size_t chunk_bytes) const
{
    return pass(nfa_, {}, sink, kOneValue, source, chunk_bytes);
}

MultiStreamer::Result
MultiStreamer::runRecords(intervals::ChunkSource& source, MultiSink* sink,
                          size_t chunk_bytes) const
{
    return pass(nfa_, {}, sink, kRecords, source, chunk_bytes);
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
