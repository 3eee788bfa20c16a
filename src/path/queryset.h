/**
 * @file
 * Normalized multi-query sets: the shared front half of one-pass
 * multi-query batching (DESIGN.md §15).
 *
 * A client hands the engine a *list* of JSONPath texts; the engine
 * wants a *set*: each query in its canonical `PathQuery::toString()`
 * form, duplicates collapsed, and a stable small-integer id per
 * distinct query, which its ACCEPT state reports under.  QuerySet
 * performs that normalization once and keeps the evidence:
 *
 *   - `distinct` / `canonical`: the deduplicated queries in
 *     first-occurrence order (so duplicate-free inputs keep their
 *     positions — existing single-list callers see no index shuffle);
 *   - `id_of`: input position -> distinct id, the map that lets a
 *     service answer a request containing duplicates with one frame
 *     stream per distinct query and the request's ids mapped onto it;
 *   - `key()`: the *order-insensitive* canonical form (sorted unique
 *     canonical texts, comma-joined) — the plan-cache key, so
 *     `{$.a,$.b}` and `{$.b,$.a,$.a}` share one compiled plan.
 */
#ifndef JSONSKI_PATH_QUERYSET_H
#define JSONSKI_PATH_QUERYSET_H

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "path/ast.h"

namespace jsonski::path {

/** See file comment. */
struct QuerySet
{
    /** Deduplicated queries, first-occurrence order. */
    std::vector<PathQuery> distinct;

    /** Canonical toString() text per distinct query. */
    std::vector<std::string> canonical;

    /** Input position -> distinct id. */
    std::vector<size_t> id_of;

    /** Distinct query count. */
    size_t size() const { return distinct.size(); }

    /** Input positions the set was normalized from (>= size()). */
    size_t inputCount() const { return id_of.size(); }

    /**
     * Order-insensitive canonical form: sorted unique canonical texts,
     * comma-joined.  The plan-cache key.
     */
    std::string key() const;

    /** The sorted unique canonical texts key() joins. */
    std::vector<std::string> sortedCanonical() const;

    /**
     * For each input position, the index of its query within
     * @p plan_texts (a distinct canonical list, e.g. a cached plan's
     * query texts).  This is how a request whose list arrived in any
     * order/multiplicity is mapped onto a plan compiled from key().
     *
     * @throws PathError when a query is absent from @p plan_texts
     *         (the plan does not serve this set).
     */
    std::vector<size_t>
    mapOnto(const std::vector<std::string>& plan_texts) const;

    /**
     * First input position of each distinct id — the representative a
     * service tags match frames with so duplicate request entries share
     * one frame stream.
     */
    std::vector<size_t> representatives() const;

    /** Normalize a parsed query list (canonicalize + stable dedup). */
    static QuerySet normalize(std::vector<PathQuery> queries);

    /**
     * Parse and normalize query texts.
     * @throws PathError on a malformed query.
     */
    static QuerySet fromTexts(const std::vector<std::string>& texts);
};

} // namespace jsonski::path

#endif // JSONSKI_PATH_QUERYSET_H
