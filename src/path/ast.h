/**
 * @file
 * JSONPath abstract syntax shared by every engine.
 *
 * The supported dialect matches the paper (§5.1): root `$`, child
 * (`.name` / `['name']`), array index `[n]`, index range `[m:n]`
 * (half-open, so `[2:4]` selects the 3rd and 4th elements), and the
 * array wildcard `[*]`.  Going beyond the paper's implementation (it
 * names `..` as future work), the descendant operator `..name` is
 * supported at *any* step position (`$..a[2].b`, `$..a..b`): it
 * selects every attribute called `name` at any depth under the
 * current value, and the remaining steps continue from each such
 * value.  Filter predicates `[?(@.field op literal)]` select the
 * object elements of an array whose attribute `field` satisfies the
 * predicate (ops ==, !=, <, <=, >, >=, plus bare `[?(@.field)]`
 * existence); see filter.h for the comparison semantics.
 *
 * Evaluation semantics for the combined surface (DESIGN.md §13): a
 * query denotes a nondeterministic automaton over path steps; a value
 * is emitted once per accepting automaton path (so `$..a..b` can
 * report one value several times), and results are produced in
 * document pre-order — a value is reported before any matches nested
 * inside it, duplicates consecutively.
 */
#ifndef JSONSKI_PATH_AST_H
#define JSONSKI_PATH_AST_H

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace jsonski::path {

/** The JSON container type a path step can only apply to. */
enum class ExpectedType : uint8_t {
    Object, ///< next step is a key: the value must be an object
    Array,  ///< next step is an index/slice/wildcard: must be an array
    Any,    ///< no next step: the value is the output, any type
};

/** Comparison operator of a filter predicate. */
enum class FilterOp : uint8_t {
    Exists, ///< `[?(@.f)]` — the attribute is present (any value)
    Eq,     ///< ==
    Ne,     ///< !=
    Lt,     ///< <
    Le,     ///< <=
    Gt,     ///< >
    Ge,     ///< >=
};

/** Literal operand of a filter comparison. */
struct FilterLiteral
{
    enum class Kind : uint8_t { Null, Bool, Number, String };

    Kind kind = Kind::Null;
    bool b = false;    ///< Kind::Bool
    double num = 0;    ///< Kind::Number
    std::string str;   ///< Kind::String (escapes decoded)

    static FilterLiteral
    makeNull()
    {
        return FilterLiteral{};
    }

    static FilterLiteral
    makeBool(bool v)
    {
        FilterLiteral l;
        l.kind = Kind::Bool;
        l.b = v;
        return l;
    }

    static FilterLiteral
    makeNumber(double v)
    {
        FilterLiteral l;
        l.kind = Kind::Number;
        l.num = v;
        return l;
    }

    static FilterLiteral
    makeString(std::string v)
    {
        FilterLiteral l;
        l.kind = Kind::String;
        l.str = std::move(v);
        return l;
    }

    bool operator==(const FilterLiteral&) const = default;
};

/** One step of a path expression. */
struct PathStep
{
    enum class Kind : uint8_t {
        Key,        ///< `.name` — match an object attribute name
        Index,      ///< `[n]` — match exactly one array position
        Slice,      ///< `[m:n]` — match array positions in [m, n)
        Wildcard,   ///< `[*]` — match every array position
        Descendant, ///< `..name` — match the attribute at any depth
        Filter,     ///< `[?(@.f op lit)]` — predicate on array elements
    };

    Kind kind = Kind::Key;
    std::string key;   ///< attribute name (Key/Descendant/Filter field)
    size_t lo = 0;     ///< first index (Index/Slice)
    size_t hi = 0;     ///< one past last index (Index/Slice)
    FilterOp op = FilterOp::Exists; ///< Kind::Filter only
    FilterLiteral literal;          ///< Kind::Filter comparison operand

    static PathStep
    makeKey(std::string name)
    {
        PathStep s;
        s.kind = Kind::Key;
        s.key = std::move(name);
        return s;
    }

    static PathStep
    makeIndex(size_t n)
    {
        PathStep s;
        s.kind = Kind::Index;
        s.lo = n;
        s.hi = n + 1;
        return s;
    }

    static PathStep
    makeSlice(size_t m, size_t n)
    {
        PathStep s;
        s.kind = Kind::Slice;
        s.lo = m;
        s.hi = n;
        return s;
    }

    static PathStep
    makeWildcard()
    {
        PathStep s;
        s.kind = Kind::Wildcard;
        s.lo = 0;
        s.hi = std::numeric_limits<size_t>::max();
        return s;
    }

    static PathStep
    makeDescendant(std::string name)
    {
        PathStep s;
        s.kind = Kind::Descendant;
        s.key = std::move(name);
        return s;
    }

    static PathStep
    makeFilter(std::string field, FilterOp op, FilterLiteral literal)
    {
        PathStep s;
        s.kind = Kind::Filter;
        s.key = std::move(field);
        s.op = op;
        s.literal = std::move(literal);
        // A filter examines every element: cover the full index range
        // so generic array-step range logic treats it conservatively.
        s.lo = 0;
        s.hi = std::numeric_limits<size_t>::max();
        return s;
    }

    /** True for the array-selecting step kinds (filters included). */
    bool
    isArrayStep() const
    {
        return kind == Kind::Index || kind == Kind::Slice ||
               kind == Kind::Wildcard || kind == Kind::Filter;
    }

    /**
     * True for the paper's step kinds — key, index, slice, wildcard —
     * which bind from a name or a position alone, one automaton state
     * per level; filters and `..` are the extensions.
     */
    bool
    isPlain() const
    {
        return kind != Kind::Filter && kind != Kind::Descendant;
    }

    /** For array steps: does array position @p idx satisfy the step? */
    bool
    coversIndex(size_t idx) const
    {
        return idx >= lo && idx < hi;
    }

    bool operator==(const PathStep&) const = default;
};

/** A parsed path expression: `$` followed by zero or more steps. */
struct PathQuery
{
    std::vector<PathStep> steps;

    size_t size() const { return steps.size(); }
    bool empty() const { return steps.empty(); }
    const PathStep& operator[](size_t i) const { return steps[i]; }

    /**
     * Container type required of the value *selected by* step
     * @p i — i.e. inferred from the following step (paper §3.2's type
     * inference).  i == size() (or the last step) yields Any.
     */
    ExpectedType
    expectedTypeAfter(size_t i) const
    {
        size_t next = i + 1;
        if (next >= steps.size() ||
            steps[next].kind == PathStep::Kind::Descendant)
            return ExpectedType::Any; // `..` targets may be any container
        return steps[next].isArrayStep() ? ExpectedType::Array
                                         : ExpectedType::Object;
    }

    /** True when any step is the descendant operator. */
    bool
    hasDescendant() const
    {
        for (const PathStep& s : steps) {
            if (s.kind == PathStep::Kind::Descendant)
                return true;
        }
        return false;
    }

    /** True when the final step is the descendant operator. */
    bool
    hasTerminalDescendant() const
    {
        return !steps.empty() &&
               steps.back().kind == PathStep::Kind::Descendant;
    }

    /**
     * True when a descendant step is followed by further steps — the
     * nondeterministic surface (`$..a[2].b`): evaluation then tracks a
     * multiset of automaton states rather than a single state.
     */
    bool
    hasInteriorDescendant() const
    {
        for (size_t i = 0; i + 1 < steps.size(); ++i) {
            if (steps[i].kind == PathStep::Kind::Descendant)
                return true;
        }
        return false;
    }

    /** True when any step is a filter predicate. */
    bool
    hasFilter() const
    {
        for (const PathStep& s : steps) {
            if (s.kind == PathStep::Kind::Filter)
                return true;
        }
        return false;
    }

    /**
     * Canonical round-trip of the query: parse(toString()) == *this
     * and toString() is a fixed point, so it doubles as the plan-cache
     * normal form (plain keys stay dotted, exotic keys are
     * bracket-quoted, filters print without interior whitespace,
     * numbers print in shortest-round-trip form).
     */
    std::string toString() const;

    bool operator==(const PathQuery&) const = default;
};

} // namespace jsonski::path

#endif // JSONSKI_PATH_AST_H
