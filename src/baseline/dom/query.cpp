#include "baseline/dom/query.h"

#include "baseline/dom/parser.h"
#include "path/automaton.h"
#include "path/filter.h"

namespace jsonski::dom {
namespace {

using path::NfaSet;
using path::PathQuery;
using path::PathStep;

/**
 * Verdict of filter step @p step on array element @p elem, from the
 * node's raw text — the same lexemes the streaming engine sees, so
 * both engines call the same path::evalPredicate.
 */
bool
passesFilter(const PathStep& step, const Node* elem)
{
    if (!elem->isObject())
        return false; // `@.field` requires an object element
    const Node* field = elem->find(step.key);
    if (field == nullptr)
        return path::evalPredicate(step, false, {});
    return path::evalPredicate(step, true, field->text);
}

/**
 * NFA-multiset walk shared with the streaming engine's semantics
 * (DESIGN.md §13): emit the node once per accepting path, then recurse
 * in document order — pre-order overall, duplicates consecutive.  For
 * the deterministic surface (no interior descendant, no filter) this
 * reduces exactly to the old path-at-a-time recursion.
 */
size_t
walkNfa(const Node* node, const PathQuery& q, const NfaSet& set,
        path::MatchSink* sink)
{
    size_t matches = 0;
    uint64_t accept = set.acceptCount(q);
    for (uint64_t i = 0; i < accept; ++i) {
        ++matches;
        if (sink)
            sink->onMatch(node->text);
    }
    NfaSet next;
    if (node->isObject() && path::nfaWantsObject(q, set)) {
        // One consumed mask per object: a Key state binds to the first
        // member with its name whose value the next step can use
        // (path::nfaNeeds, the duplicate-key contract).
        std::vector<char> consumed(set.states.size(), 0);
        for (const auto& [name, child] : node->members) {
            char first = child->isObject()  ? '{'
                         : child->isArray() ? '['
                                            : child->text.front();
            path::nfaOnKey(q, set, name, first, consumed, next);
            if (!next.empty())
                matches += walkNfa(child, q, next, sink);
        }
    } else if (node->isArray() && path::nfaWantsArray(q, set)) {
        std::vector<std::pair<size_t, uint64_t>> filters;
        for (size_t idx = 0; idx < node->elements.size(); ++idx) {
            filters.clear();
            path::nfaOnElement(q, set, idx, next, &filters);
            for (const auto& [s, c] : filters) {
                if (passesFilter(q[s], node->elements[idx]))
                    next.add(s + 1, c);
            }
            if (!next.empty())
                matches += walkNfa(node->elements[idx], q, next, sink);
        }
    }
    return matches;
}

} // namespace

size_t
evaluate(const Node* root, const path::PathQuery& query,
         path::MatchSink* sink)
{
    if (!root)
        return 0;
    NfaSet start;
    start.add(0, 1);
    return walkNfa(root, query, start, sink);
}

size_t
parseAndQuery(std::string_view json, const path::PathQuery& query,
              path::MatchSink* sink)
{
    Document doc;
    parse(json, doc);
    return evaluate(doc.root(), query, sink);
}

} // namespace jsonski::dom
