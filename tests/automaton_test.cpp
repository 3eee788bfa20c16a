/** @file Tests for the query automata (Figure 5 transitions, QueryNfa). */
#include "path/automaton.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "path/parser.h"

using namespace jsonski::path;

TEST(Automaton, KeyTransitions)
{
    QueryAutomaton qa(parse("$.place.name"));
    EXPECT_EQ(qa.start(), 0);
    EXPECT_EQ(qa.accept(), 2);
    int s = qa.onKey(0, "place");
    EXPECT_EQ(s, 1);
    EXPECT_FALSE(qa.isAccept(s));
    s = qa.onKey(s, "name");
    EXPECT_EQ(s, 2);
    EXPECT_TRUE(qa.isAccept(s));
}

TEST(Automaton, UnmatchedKey)
{
    QueryAutomaton qa(parse("$.place.name"));
    EXPECT_EQ(qa.onKey(0, "user"), QueryAutomaton::kUnmatched);
    EXPECT_EQ(qa.onKey(QueryAutomaton::kUnmatched, "place"),
              QueryAutomaton::kUnmatched);
}

TEST(Automaton, KeyOnArrayStepFails)
{
    QueryAutomaton qa(parse("$[*].text"));
    EXPECT_EQ(qa.onKey(0, "text"), QueryAutomaton::kUnmatched);
    EXPECT_EQ(qa.onElement(0, 5), 1);
    EXPECT_EQ(qa.onKey(1, "text"), 2);
}

TEST(Automaton, ElementRange)
{
    QueryAutomaton qa(parse("$.cp[1:3]"));
    int s = qa.onKey(0, "cp");
    ASSERT_EQ(s, 1);
    EXPECT_EQ(qa.onElement(s, 0), QueryAutomaton::kUnmatched);
    EXPECT_EQ(qa.onElement(s, 1), 2);
    EXPECT_EQ(qa.onElement(s, 2), 2);
    EXPECT_EQ(qa.onElement(s, 3), QueryAutomaton::kUnmatched);
}

TEST(Automaton, AcceptStateHasNoOutgoing)
{
    QueryAutomaton qa(parse("$.a"));
    int s = qa.onKey(0, "a");
    ASSERT_TRUE(qa.isAccept(s));
    EXPECT_EQ(qa.onKey(s, "a"), QueryAutomaton::kUnmatched);
    EXPECT_EQ(qa.onElement(s, 0), QueryAutomaton::kUnmatched);
}

TEST(Automaton, ContainerTypeInference)
{
    QueryAutomaton qa(parse("$.pd[*].id"));
    EXPECT_EQ(qa.containerAt(0), ExpectedType::Object); // root: .pd
    EXPECT_EQ(qa.containerAt(1), ExpectedType::Array);  // pd: [*]
    EXPECT_EQ(qa.containerAt(2), ExpectedType::Object); // element: .id
    EXPECT_EQ(qa.containerAt(3), ExpectedType::Any);    // accept
    EXPECT_EQ(qa.containerAt(QueryAutomaton::kUnmatched),
              ExpectedType::Any);
}

TEST(Automaton, IndexRange)
{
    QueryAutomaton qa(parse("$[10:21]"));
    size_t lo = 0, hi = 0;
    qa.indexRange(0, lo, hi);
    EXPECT_EQ(lo, 10u);
    EXPECT_EQ(hi, 21u);
}

TEST(Automaton, EmptyQueryAcceptsRoot)
{
    QueryAutomaton qa(parse("$"));
    EXPECT_TRUE(qa.isAccept(qa.start()));
}

// ---------------------------------------------------------------------
// QueryNfa: a query set compiled into one automaton
// ---------------------------------------------------------------------

namespace {

/** Compile query texts into one automaton. */
QueryNfa
compile(const std::vector<std::string>& texts)
{
    std::vector<PathQuery> queries;
    for (const std::string& t : texts)
        queries.push_back(parse(t));
    return QueryNfa(queries);
}

/** The successor of @p s whose step is key @p key (kNone: none). */
size_t
keyChild(const QueryNfa& nfa, const std::vector<size_t>& from,
         const std::string& key)
{
    for (size_t t : from) {
        if (!nfa.isAccept(t) && nfa[t].step.key == key)
            return t;
    }
    return QueryNfa::kNone;
}

} // namespace

TEST(QueryNfa, SharedPrefixSharesAState)
{
    QueryNfa nfa = compile({"$.user.id", "$.user.name"});
    ASSERT_EQ(nfa.start().size(), 1u);
    size_t user = nfa.start()[0];
    EXPECT_EQ(nfa[user].step.key, "user");
    EXPECT_EQ(nfa[user].need, '{');
    ASSERT_EQ(nfa[user].next.size(), 2u);
    EXPECT_NE(keyChild(nfa, nfa[user].next, "id"), QueryNfa::kNone);
    EXPECT_NE(keyChild(nfa, nfa[user].next, "name"), QueryNfa::kNone);
    EXPECT_EQ(nfa[user].single, QueryNfa::kNone); // two successors
    EXPECT_EQ(nfa.size(), 5u); // user, id, name, two ACCEPT states
}

TEST(QueryNfa, KeyStatesSplitByWhatTheirSuccessorsNeed)
{
    // `$.a` binds the first `a` of any value, `$.a.b` the first whose
    // value is an object: two `a` states, one consumed flag each.
    QueryNfa nfa = compile({"$.a", "$.a.b"});
    ASSERT_EQ(nfa.start().size(), 2u);
    const QueryNfa::State& any = nfa[nfa.start()[0]];
    const QueryNfa::State& obj = nfa[nfa.start()[1]];
    EXPECT_EQ(any.step.key, "a");
    EXPECT_EQ(obj.step.key, "a");
    EXPECT_EQ(any.need, 0);
    EXPECT_EQ(obj.need, '{');
    ASSERT_EQ(any.next.size(), 1u);
    EXPECT_TRUE(nfa.isAccept(any.next[0]));
    ASSERT_EQ(obj.next.size(), 1u);
    EXPECT_EQ(nfa[obj.next[0]].step.key, "b");
    EXPECT_EQ(obj.single, obj.next[0]); // a plain successor, entered directly
}

TEST(QueryNfa, DescendantPrefixIsShared)
{
    QueryNfa nfa = compile({"$..a", "$..a.b"});
    ASSERT_EQ(nfa.start().size(), 1u);
    const QueryNfa::State& a = nfa[nfa.start()[0]];
    EXPECT_EQ(a.step.kind, PathStep::Kind::Descendant);
    EXPECT_EQ(a.step.key, "a");
    ASSERT_EQ(a.next.size(), 2u);
    EXPECT_EQ(nfa[a.next[0]].step.key, "b");
    EXPECT_TRUE(nfa.isAccept(a.next[1]));
    EXPECT_EQ(a.need, 0); // an object for `b`, any value for ACCEPT
}

TEST(QueryNfa, EveryQueryHasItsOwnAcceptState)
{
    // Duplicates aside (QuerySet collapses them), queries that end on
    // the same step still report apart, numbered last in query order.
    QueryNfa nfa = compile({"$..id", "$.x", "$[*]", "$"});
    EXPECT_EQ(nfa.queryCount(), 4u);
    std::vector<size_t> accepts;
    for (size_t s = 0; s < nfa.size(); ++s) {
        if (nfa.isAccept(s))
            accepts.push_back(s);
    }
    ASSERT_EQ(accepts.size(), 4u);
    for (size_t qi = 0; qi < accepts.size(); ++qi) {
        EXPECT_EQ(nfa.queryOf(accepts[qi]), qi);
        EXPECT_TRUE(nfa[accepts[qi]].next.empty());
    }
    EXPECT_EQ(accepts.front(), nfa.size() - 4);
    // `$` accepts the root: its ACCEPT state is a start state.
    EXPECT_EQ(nfa.start().back(), accepts.back());
}

TEST(QueryNfa, LoneQueryCompilesToTheChain)
{
    PathQuery q = parse("$.pd[*].cp[1:3].id");
    QueryNfa nfa({q});
    ASSERT_EQ(nfa.size(), q.size() + 1);
    EXPECT_EQ(nfa.start(), (std::vector<size_t>{0}));
    for (size_t s = 0; s < q.size(); ++s) {
        EXPECT_EQ(nfa[s].step, q[s]);
        EXPECT_EQ(nfa[s].next, (std::vector<size_t>{s + 1}));
        EXPECT_EQ(nfa[s].need, nfaNeeds(q, s + 1));
        EXPECT_FALSE(nfa.isAccept(s));
    }
    EXPECT_TRUE(nfa.isAccept(q.size()));
    EXPECT_EQ(nfa.queryOf(q.size()), 0u);
    EXPECT_EQ(nfa[0].single, 1u);
    EXPECT_EQ(nfa[q.size() - 1].single, QueryNfa::kNone); // then ACCEPT
}

TEST(QueryNfa, MergeAddsSuccessorsInOnePass)
{
    NfaSet set;
    set.add(1, 2);
    set.add(4, 1);
    set.merge({0, 1, 3, 4, 7}, 5);
    EXPECT_EQ(set.states,
              (std::vector<NfaSet::Entry>{
                  {0, 5}, {1, 7}, {3, 5}, {4, 6}, {7, 5}}));
    NfaSet empty;
    empty.merge({2, 9}, 1);
    EXPECT_EQ(empty.states, (std::vector<NfaSet::Entry>{{2, 1}, {9, 1}}));
}
