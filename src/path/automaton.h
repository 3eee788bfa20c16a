/**
 * @file
 * Query automata compiled from path expressions (paper Figure 5).
 *
 * A path with n steps yields states 0..n: state i means "the first i
 * steps have been matched on the path from the root to the current
 * value".  State n is ACCEPT.  Three forms share that numbering:
 *  - QueryAutomaton, the deterministic automaton of one plain query,
 *    whose per-level stack the JPStream-style baseline keeps;
 *  - NfaSet and the nfa* transitions, the multiset semantics of one
 *    query with filter and descendant steps, which the DOM oracle
 *    walks (DESIGN.md §13);
 *  - QueryNfa, a query set compiled into one automaton, which the
 *    streaming engine runs for every query and every set (§15).
 */
#ifndef JSONSKI_PATH_AUTOMATON_H
#define JSONSKI_PATH_AUTOMATON_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "path/ast.h"

namespace jsonski::path {

/** See file comment. */
class QueryAutomaton
{
  public:
    /** Sentinel state for "matching failed at this level". */
    static constexpr int kUnmatched = -1;

    explicit QueryAutomaton(PathQuery query) : query_(std::move(query)) {}

    /** The compiled query. */
    const PathQuery& query() const { return query_; }

    /** Initial state (root value reached, nothing matched yet). */
    int start() const { return 0; }

    /** Accepting state (every step matched). */
    int accept() const { return static_cast<int>(query_.size()); }

    /** True when @p state is the accepting state. */
    bool isAccept(int state) const { return state == accept(); }

    /**
     * [Key] transition: object attribute @p key consumed while the
     * current level's state is @p state.
     */
    int
    onKey(int state, std::string_view key) const
    {
        if (state < 0)
            return kUnmatched;
        if (isAccept(state)) {
            // Values inside an accepted subtree only stay live under a
            // terminal descendant step, which keeps searching: a
            // matching name re-accepts, anything else resumes the
            // search state.
            if (query_.hasTerminalDescendant()) {
                const PathStep& d = query_[query_.size() - 1];
                return d.key == key ? state : state - 1;
            }
            return kUnmatched;
        }
        const PathStep& s = query_[static_cast<size_t>(state)];
        if (s.kind == PathStep::Kind::Key && s.key == key)
            return state + 1;
        if (s.kind == PathStep::Kind::Descendant)
            return s.key == key ? state + 1 : state; // stay at any depth
        return kUnmatched;
    }

    /**
     * Array-element transition: element at position @p idx of an array
     * whose own state is @p state.
     */
    int
    onElement(int state, size_t idx) const
    {
        if (state < 0)
            return kUnmatched;
        if (isAccept(state)) {
            // Inside an accepted array under a terminal descendant
            // step, elements keep the search alive but never match.
            return query_.hasTerminalDescendant() ? state - 1
                                                  : kUnmatched;
        }
        const PathStep& s = query_[static_cast<size_t>(state)];
        if (s.isArrayStep() && s.coversIndex(idx))
            return state + 1;
        if (s.kind == PathStep::Kind::Descendant)
            return state; // stay at any depth
        return kUnmatched;
    }

    /**
     * Container type the value at @p state must have for matching to
     * continue (paper §3.2 type inference).  Accepting values may be of
     * any type.
     */
    ExpectedType
    containerAt(int state) const
    {
        if (state < 0 || isAccept(state))
            return ExpectedType::Any;
        const PathStep& s = query_[static_cast<size_t>(state)];
        if (s.kind == PathStep::Kind::Descendant)
            return ExpectedType::Any;
        return s.isArrayStep() ? ExpectedType::Array
                               : ExpectedType::Object;
    }

    /**
     * For array steps: the half-open index range [lo, hi) the step
     * selects.  @pre containerAt(state) == ExpectedType::Array
     */
    void
    indexRange(int state, size_t& lo, size_t& hi) const
    {
        const PathStep& s = query_[static_cast<size_t>(state)];
        lo = s.lo;
        hi = s.hi;
    }

  private:
    PathQuery query_;
};

/**
 * Multiset of NFA states for the nondeterministic query surface
 * (descendants and filters; DESIGN.md §13).  State i means "the first
 * i steps matched along some root-to-here path"; the count is the
 * number of distinct such paths, and a value is emitted once per
 * accepting path.  Kept sorted by state; tiny (bounded by query
 * length), so linear operations are fine.
 */
struct NfaSet
{
    /** A state and the number of paths that reach it. */
    using Entry = std::pair<size_t, uint64_t>;

    std::vector<Entry> states;

    bool empty() const { return states.empty(); }

    void clear() { states.clear(); }

    void
    add(size_t state, uint64_t count)
    {
        for (auto& [s, c] : states) {
            if (s == state) {
                c += count;
                return;
            }
        }
        states.emplace_back(state, count);
        for (size_t i = states.size(); i > 1; --i) {
            if (states[i - 1].first < states[i - 2].first)
                std::swap(states[i - 1], states[i - 2]);
            else
                break;
        }
    }

    /**
     * Add every state of the ascending list @p next with @p count paths,
     * in one merge: O(size() + next.size()), however long the list.
     */
    void
    merge(const std::vector<size_t>& next, uint64_t count)
    {
        if (states.empty()) {
            for (size_t s : next)
                states.emplace_back(s, count);
            return;
        }
        size_t i = states.size();
        size_t j = next.size();
        states.resize(i + j);
        size_t out = states.size();
        while (j > 0) {
            if (i > 0 && states[i - 1].first > next[j - 1]) {
                states[--out] = states[--i];
            } else if (i > 0 && states[i - 1].first == next[j - 1]) {
                states[--out] = {next[--j], states[--i].second + count};
            } else {
                states[--out] = {next[--j], count};
            }
        }
        // [0, i) is in place; a shared state left a gap of out - i.
        states.erase(states.begin() + static_cast<std::ptrdiff_t>(i),
                     states.begin() + static_cast<std::ptrdiff_t>(out));
    }

    /** Accepting-path multiplicity (state == q.size()). */
    uint64_t
    acceptCount(const PathQuery& q) const
    {
        // Sorted: the accepting state, when present, is the last.
        return !states.empty() && states.back().first == q.size()
                   ? states.back().second
                   : 0;
    }
};

/**
 * First byte a value must start with to feed state @p next: '{' before
 * a Key step, '[' before an index, slice, wildcard or filter step, and
 * 0 (any value) before `..` or at ACCEPT.
 *
 * This is the key-binding rule every engine shares: a Key step binds
 * the first member with its name whose value the next step can use.
 * It is the rule the G1 typed attribute scan forces, since a batched
 * primitive run never reads the names it skips.
 */
inline char
nfaNeeds(const PathQuery& q, size_t next)
{
    if (next >= q.size() || q[next].kind == PathStep::Kind::Descendant)
        return 0;
    return q[next].isArrayStep() ? '[' : '{';
}

/**
 * [Key] transition over the multiset into @p out, for a member named
 * @p key whose value starts with @p first.  Accepting states are
 * dropped: whenever state n is produced by a descendant step, the
 * searching state that produced it stays co-resident in the set, so
 * the continued search the deterministic automaton emulates with its
 * "state - 1" trick is already represented.
 *
 * @p consumed (parallel to in.states, carried across the members of
 * ONE object) pins the duplicate-key semantics: a Key step binds once,
 * to the first member whose value nfaNeeds() admits, while a
 * Descendant step keeps examining every member, duplicates included.
 * Entries are marked here when a Key state advances.
 */
inline void
nfaOnKey(const PathQuery& q, const NfaSet& in, std::string_view key,
         char first, std::vector<char>& consumed, NfaSet& out)
{
    out.clear();
    for (size_t i = 0; i < in.states.size(); ++i) {
        auto [s, c] = in.states[i];
        if (s >= q.size())
            continue;
        const PathStep& step = q[s];
        if (step.kind == PathStep::Kind::Key) {
            if (consumed[i] || step.key != key)
                continue;
            char need = nfaNeeds(q, s + 1);
            if (need == 0 || need == first) {
                out.add(s + 1, c);
                consumed[i] = 1;
            }
        } else if (step.kind == PathStep::Kind::Descendant) {
            out.add(s, c); // keep searching at any depth
            if (step.key == key)
                out.add(s + 1, c);
        }
    }
}

/**
 * Array-element transition over the multiset into @p out.  Filter
 * steps cannot be resolved from the index alone: their (state, count)
 * pairs are appended to @p pending_filters, when given, and the caller
 * adds (state + 1, count) for each verdict that comes back true.
 */
inline void
nfaOnElement(const PathQuery& q, const NfaSet& in, size_t idx, NfaSet& out,
             std::vector<std::pair<size_t, uint64_t>>* pending_filters)
{
    out.clear();
    for (const auto& [s, c] : in.states) {
        if (s >= q.size())
            continue;
        const PathStep& step = q[s];
        if (step.kind == PathStep::Kind::Filter) {
            if (pending_filters)
                pending_filters->emplace_back(s, c);
        } else if (step.isArrayStep()) {
            if (step.coversIndex(idx))
                out.add(s + 1, c);
        } else if (step.kind == PathStep::Kind::Descendant) {
            out.add(s, c);
        }
    }
}

/** Can entering an object make progress from @p set? */
inline bool
nfaWantsObject(const PathQuery& q, const NfaSet& set)
{
    for (const auto& [s, c] : set.states) {
        (void)c;
        if (s >= q.size())
            continue;
        if (q[s].kind == PathStep::Kind::Key ||
            q[s].kind == PathStep::Kind::Descendant)
            return true;
    }
    return false;
}

/** Can entering an array make progress from @p set? */
inline bool
nfaWantsArray(const PathQuery& q, const NfaSet& set)
{
    for (const auto& [s, c] : set.states) {
        (void)c;
        if (s >= q.size())
            continue;
        if (q[s].isArrayStep() ||
            q[s].kind == PathStep::Kind::Descendant)
            return true;
    }
    return false;
}

/**
 * A query set compiled into one automaton, the streaming engine's form
 * of every query: a lone query is a set of one (DESIGN.md §15).
 *
 * States are the steps of a trie over the queries, so queries share a
 * state while their prefixes agree.  A key state is also split by what
 * its successors need (nfaNeeds), so each keeps the key-binding rule
 * with one consumed flag: `$.a` and `$.a.b` get two `a` states, while
 * `$..a` and `$..a.b` share `..a`.  Every query has its own ACCEPT
 * state, numbered after all step states in query order, so a sorted
 * NfaSet lists its accepting states last, in plan order.  A lone query
 * of n steps compiles to the chain 0..n, where state n accepts.
 */
class QueryNfa
{
  public:
    static constexpr size_t kNone = SIZE_MAX;

    struct State
    {
        /**
         * First byte every successor needs ('{' before a key step, '['
         * before an array or filter step), or 0 when they differ or take
         * any value: a key state's binding rule, an array state's G1
         * element type.
         */
        char need = 0;

        /** The one successor when it is a plain step, else kNone. */
        size_t single = kNone;

        std::vector<size_t> next; ///< successors, ascending
        PathStep step;            ///< the step it matches (none at ACCEPT)
    };

    /**
     * What a member loop compares of a state, in one contiguous table:
     * the name's length and first 8 bytes, zero-padded.  Scanning the
     * key states of a large set then reads 16 bytes a state.
     */
    struct Name
    {
        uint64_t head = 0;
        uint32_t len = 0;
        PathStep::Kind kind = PathStep::Kind::Key;
        char need = 0;
    };

    /** A name's first 8 bytes, zero-padded (Name::head). */
    static uint64_t
    head(std::string_view name)
    {
        uint64_t h = 0;
        std::memcpy(&h, name.data(), std::min(name.size(), sizeof h));
        return h;
    }

    /** Compile @p queries; query i reports as id i. */
    explicit QueryNfa(const std::vector<PathQuery>& queries);

    size_t size() const { return states_.size(); }

    const State& operator[](size_t s) const { return states_[s]; }

    /** The Name of step state @p s. */
    const Name& name(size_t s) const { return names_[s]; }

    /** The states a top-level value starts in, ascending. */
    const std::vector<size_t>& start() const { return start_; }

    size_t queryCount() const { return states_.size() - accept_; }

    bool isAccept(size_t s) const { return s >= accept_; }

    /** The distinct query ACCEPT state @p s reports. */
    size_t queryOf(size_t s) const { return s - accept_; }

    /** Entries of @p set before its accepting states. */
    size_t
    live(const NfaSet& set) const
    {
        size_t n = set.states.size();
        while (n > 0 && isAccept(set.states[n - 1].first))
            --n;
        return n;
    }

    /** Can entering an object make progress from @p set? */
    bool wantsObject(const NfaSet& set) const;

    /** Can entering an array make progress from @p set? */
    bool wantsArray(const NfaSet& set) const;

    /**
     * [Key] transition of @p in into @p out for a member named @p key
     * whose value starts with @p first — nfaOnKey over the compiled
     * states, with @p consumed parallel to the live entries of @p in.
     * A primitive value keeps no search: nothing can search it.
     */
    void onKey(const NfaSet& in, std::string_view key, char first,
               std::vector<char>& consumed, NfaSet& out) const;

    /**
     * Array-element transition of @p in into @p out for position
     * @p idx.  Filter states are left to the caller's probe.
     */
    void onElement(const NfaSet& in, size_t idx, NfaSet& out) const;

  private:
    std::vector<State> states_;
    std::vector<Name> names_; ///< per step state
    std::vector<size_t> start_;
    size_t accept_ = 0; ///< the first ACCEPT state
};

} // namespace jsonski::path

#endif // JSONSKI_PATH_AUTOMATON_H
