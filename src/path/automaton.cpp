#include "path/automaton.h"

#include <algorithm>

namespace jsonski::path {
namespace {

/** What a value must start with to feed state @p s (see nfaNeeds). */
char
needOf(const QueryNfa& nfa, size_t s)
{
    if (nfa.isAccept(s) || nfa[s].step.kind == PathStep::Kind::Descendant)
        return 0;
    return nfa[s].step.isArrayStep() ? '[' : '{';
}

} // namespace

QueryNfa::QueryNfa(const std::vector<PathQuery>& queries)
{
    // Trie insertion: a step joins the successor of the previous one
    // that matches the same step and, for a key, feeds the same need.
    std::vector<size_t> last(queries.size(), kNone);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
        const PathQuery& q = queries[qi];
        size_t at = kNone;
        for (size_t k = 0; k < q.size(); ++k) {
            char need = q[k].kind == PathStep::Kind::Key ? nfaNeeds(q, k + 1)
                                                         : 0;
            std::vector<size_t>& succ = at == kNone ? start_ : states_[at].next;
            auto it = std::find_if(succ.begin(), succ.end(), [&](size_t s) {
                return states_[s].need == need && states_[s].step == q[k];
            });
            if (it != succ.end()) {
                at = *it;
                continue;
            }
            at = states_.size();
            succ.push_back(at);
            states_.push_back(State{need, kNone, {}, q[k]});
        }
        last[qi] = at;
    }
    // ACCEPT states follow every step state, in query order.  States
    // are created in ascending order, so every list stays sorted.
    accept_ = states_.size();
    for (size_t qi = 0; qi < queries.size(); ++qi) {
        (last[qi] == kNone ? start_ : states_[last[qi]].next)
            .push_back(states_.size());
        states_.push_back(State{});
    }
    for (size_t s = 0; s < accept_; ++s) {
        State& st = states_[s];
        st.need = needOf(*this, st.next.front());
        for (size_t t : st.next) {
            if (needOf(*this, t) != st.need)
                st.need = 0;
        }
        size_t t = st.next.front();
        if (st.next.size() == 1 && !isAccept(t) && states_[t].step.isPlain())
            st.single = t;
        names_.push_back({head(st.step.key),
                          static_cast<uint32_t>(st.step.key.size()),
                          st.step.kind, st.need});
    }
}

bool
QueryNfa::wantsObject(const NfaSet& set) const
{
    return std::any_of(
        set.states.begin(), set.states.end(), [&](const NfaSet::Entry& e) {
            return !isAccept(e.first) &&
                   (states_[e.first].step.kind == PathStep::Kind::Key ||
                    states_[e.first].step.kind ==
                        PathStep::Kind::Descendant);
        });
}

bool
QueryNfa::wantsArray(const NfaSet& set) const
{
    return std::any_of(
        set.states.begin(), set.states.end(), [&](const NfaSet::Entry& e) {
            return !isAccept(e.first) &&
                   (states_[e.first].step.isArrayStep() ||
                    states_[e.first].step.kind ==
                        PathStep::Kind::Descendant);
        });
}

void
QueryNfa::onKey(const NfaSet& in, std::string_view key, char first,
                std::vector<char>& consumed, NfaSet& out) const
{
    // The searches keep searching at any depth, but only a container
    // can be searched.  Sorted in, sorted out.
    out.clear();
    size_t live = this->live(in);
    if (first == '{' || first == '[') {
        for (size_t i = 0; i < live; ++i) {
            if (states_[in.states[i].first].step.kind ==
                PathStep::Kind::Descendant)
                out.states.push_back(in.states[i]);
        }
    }
    for (size_t i = 0; i < live; ++i) {
        auto [s, c] = in.states[i];
        const State& st = states_[s];
        if (st.step.kind == PathStep::Kind::Key) {
            if (consumed[i] || st.step.key != key)
                continue;
            if (st.need == 0 || st.need == first) {
                out.merge(st.next, c);
                consumed[i] = 1;
            }
        } else if (st.step.kind == PathStep::Kind::Descendant &&
                   st.step.key == key) {
            out.merge(st.next, c);
        }
    }
}

void
QueryNfa::onElement(const NfaSet& in, size_t idx, NfaSet& out) const
{
    out.clear();
    size_t live = this->live(in);
    for (size_t i = 0; i < live; ++i) {
        if (states_[in.states[i].first].step.kind ==
            PathStep::Kind::Descendant)
            out.states.push_back(in.states[i]);
    }
    for (size_t i = 0; i < live; ++i) {
        const State& st = states_[in.states[i].first];
        if (st.step.isPlain() && st.step.isArrayStep() &&
            st.step.coversIndex(idx))
            out.merge(st.next, in.states[i].second);
    }
}

} // namespace jsonski::path
