/**
 * @file
 * Malformed-input unit suite: every public streamer / skipper / cursor
 * entry point must reject truncated, unbalanced, and unterminated
 * documents with ParseError carrying the expected ErrorCode and byte
 * position — never an assert, never a read past the input (the ASan CI
 * job enforces the latter on this same suite).
 */
#include <gtest/gtest.h>

#include <string>

#include "intervals/cursor.h"
#include "path/parser.h"
#include "service/plan_cache.h"
#include "ski/skipper.h"
#include "ski/streamer.h"
#include "testing/record_scanner.h"
#include "testing/records.h"
#include "util/error.h"

using namespace jsonski;
using jsonski::path::parse;

namespace {

/** Run @p fn and return the ParseError it must throw. */
template <typename Fn>
ParseError
expectParseError(Fn&& fn)
{
    try {
        fn();
    } catch (const ParseError& e) {
        return e;
    }
    ADD_FAILURE() << "no ParseError thrown";
    return ParseError(ErrorCode::Unspecified, "none", 0);
}

/** Skipper fixture over a document. */
struct Fix
{
    explicit Fix(std::string text) : json(std::move(text)), cur(json), skip(cur) {}

    std::string json;
    intervals::StreamCursor cur;
    ski::Skipper skip;
};

} // namespace

TEST(MalformedSkipper, UnterminatedObjectReportsOpener)
{
    Fix f("  {\"a\": {\"b\": 1}");
    ParseError e = expectParseError([&] { f.skip.overObj(ski::Group::G2); });
    EXPECT_EQ(e.code(), ErrorCode::UnterminatedObject);
    EXPECT_EQ(e.position(), 2u); // the unmatched '{'
}

TEST(MalformedSkipper, UnterminatedArrayReportsOpener)
{
    Fix f("[1, [2, 3]");
    ParseError e = expectParseError([&] { f.skip.overAry(ski::Group::G2); });
    EXPECT_EQ(e.code(), ErrorCode::UnterminatedArray);
    EXPECT_EQ(e.position(), 0u);
}

TEST(MalformedSkipper, ToObjEndOnTruncatedInput)
{
    Fix f("\"k\": 1, \"m\": {\"x\": [");
    ParseError e = expectParseError([&] { f.skip.toObjEnd(ski::Group::G4); });
    EXPECT_EQ(e.code(), ErrorCode::UnterminatedObject);
    EXPECT_EQ(e.position(), 0u); // scan start
    EXPECT_LE(f.cur.pos(), f.cur.size()); // position never passes the end
}

TEST(MalformedSkipper, UnterminatedStringReportsOpeningQuote)
{
    Fix f("{\"a\": \"runs off the end");
    size_t quote = f.json.find(": \"") + 2;
    ParseError e = expectParseError([&] { f.skip.stringEnd(quote); });
    EXPECT_EQ(e.code(), ErrorCode::UnterminatedString);
    EXPECT_EQ(e.position(), quote);
}

TEST(MalformedSkipper, UnterminatedStringAcrossManyBlocks)
{
    Fix f("\"" + std::string(300, 'x')); // no closing quote, 5 blocks
    ParseError e = expectParseError([&] { f.skip.stringEnd(0); });
    EXPECT_EQ(e.code(), ErrorCode::UnterminatedString);
    EXPECT_EQ(e.position(), 0u);
}

TEST(MalformedSkipper, OverValueOnEmptyInput)
{
    Fix f("   ");
    ParseError e = expectParseError([&] { f.skip.overValue(ski::Group::G2); });
    EXPECT_EQ(e.code(), ErrorCode::UnexpectedEnd);
}

TEST(MalformedSkipper, ConsumeMissingPunctuation)
{
    Fix f("\"key\" 1");
    ParseError e = expectParseError([&] { f.skip.consume(':'); });
    EXPECT_EQ(e.code(), ErrorCode::ExpectedPunctuation);
    EXPECT_EQ(e.position(), 0u);
}

TEST(MalformedSkipper, ToAttrRejectsNonStringName)
{
    Fix f("42: 1}");
    ParseError e = expectParseError(
        [&] { f.skip.toAttr(ski::Skipper::TypeFilter::Any, ski::Group::G1); });
    EXPECT_EQ(e.code(), ErrorCode::BadAttributeName);
    EXPECT_EQ(e.position(), 0u);
}

TEST(MalformedSkipper, ToAttrMissingValue)
{
    Fix f("\"a\":");
    ParseError e = expectParseError(
        [&] { f.skip.toAttr(ski::Skipper::TypeFilter::Any, ski::Group::G1); });
    EXPECT_EQ(e.code(), ErrorCode::UnexpectedEnd);
    EXPECT_EQ(e.position(), f.json.size());
}

TEST(MalformedSkipper, ToAttrBatchScanHitsTruncation)
{
    // Batched primitive scan under a container filter, cut mid-run.
    Fix f("\"a\": 1, \"b\": 2, \"c\": 3");
    ParseError e = expectParseError(
        [&] { f.skip.toAttr(ski::Skipper::TypeFilter::Object, ski::Group::G1); });
    EXPECT_EQ(e.code(), ErrorCode::UnterminatedObject);
    EXPECT_LE(f.cur.pos(), f.cur.size());
}

TEST(MalformedSkipper, ElementScansOnTruncatedArray)
{
    {
        Fix f("1, 2, 3");
        size_t idx = 0;
        ParseError e = expectParseError([&] {
            f.skip.toTypedElem('{', idx, 10, ski::Group::G1);
        });
        EXPECT_EQ(e.code(), ErrorCode::UnterminatedArray);
    }
    {
        Fix f("1, 2");
        size_t idx = 0;
        ParseError e = expectParseError(
            [&] { f.skip.overElems(5, idx, ski::Group::G5); });
        EXPECT_EQ(e.code(), ErrorCode::UnterminatedArray);
    }
    {
        Fix f("7, 8, ");
        ParseError e = expectParseError(
            [&] { f.skip.toContainerElem(ski::Group::G1); });
        EXPECT_EQ(e.code(), ErrorCode::UnterminatedArray);
    }
}

TEST(MalformedSkipper, DeepUnbalancedOpeners)
{
    // Hundreds of openers, no closer: depth grows past one block's
    // worth without overflow, then the scan reports the damage.
    Fix f(std::string(500, '['));
    ParseError e = expectParseError([&] { f.skip.overAry(ski::Group::G2); });
    EXPECT_EQ(e.code(), ErrorCode::UnterminatedArray);
    EXPECT_EQ(e.position(), 0u);
    EXPECT_LE(f.cur.pos(), f.cur.size());
}

TEST(MalformedStreamer, EmptyAndTruncatedDocuments)
{
    auto q = parse("$.a.b");
    ParseError e =
        expectParseError([&] { ski::Streamer(q).run("", nullptr); });
    EXPECT_EQ(e.code(), ErrorCode::UnexpectedEnd);

    // Truncation on the match path is detected with a position.
    ParseError e2 = expectParseError(
        [&] { ski::Streamer(q).run(R"({"a": {"b": )", nullptr); });
    EXPECT_EQ(e2.code(), ErrorCode::UnexpectedEnd);
    EXPECT_LE(e2.position(), std::string(R"({"a": {"b": )").size());
}

TEST(MalformedStreamer, UnterminatedStringInAttributeName)
{
    auto q = parse("$.key");
    ParseError e = expectParseError(
        [&] { ski::Streamer(q).run(R"({"key)", nullptr); });
    EXPECT_EQ(e.code(), ErrorCode::UnterminatedString);
    EXPECT_EQ(e.position(), 1u); // the opening quote of the name
}

TEST(MalformedScanner, StrayAndUnbalancedBytes)
{
    using jsonski::testing::scanRecords;
    ParseError stray = expectParseError([] { scanRecords("{} junk {}"); });
    EXPECT_EQ(stray.code(), ErrorCode::StrayByte);
    EXPECT_EQ(stray.position(), 3u);

    ParseError unbalanced = expectParseError([] { scanRecords("]{}"); });
    EXPECT_EQ(unbalanced.code(), ErrorCode::UnbalancedClose);
    EXPECT_EQ(unbalanced.position(), 0u);

    ParseError tail = expectParseError([] { scanRecords("{} [1,"); });
    EXPECT_EQ(tail.code(), ErrorCode::UnterminatedRecord);
}

TEST(MalformedReader, TruncatedTrailingRecord)
{
    // Records mode delivers the complete record, then fails at the
    // truncated one's opening byte.
    jsonski::testing::RecordsRun r = jsonski::testing::runRecords(
        *service::compilePlan("$.ok"), "{\"ok\":1}\n{\"cut\":", 64);
    ASSERT_EQ(r.values.size(), 1u);
    EXPECT_EQ(r.values[0].second, "1");
    ASSERT_TRUE(r.threw);
    EXPECT_EQ(r.code, ErrorCode::UnterminatedRecord);
    EXPECT_EQ(r.position, 9u);
}

TEST(MalformedContract, PositionsNeverPassTheInput)
{
    // A grab bag of damaged documents: whatever throws must carry a
    // position inside [0, size].
    const char* docs[] = {
        "{",           "[",          "{\"a\"",      "{\"a\":",
        "{\"a\":1",    "[1,",        "\"abc",       "{]",
        "[}",          "{\"a\":[1}", "[{\"b\":2]",  "{{{{",
        "]]]]",        "{\"a\" 1}",  "nul",         "",
    };
    auto q = parse("$.a[0]");
    for (const char* doc : docs) {
        try {
            ski::Streamer(q).run(doc, nullptr);
        } catch (const ParseError& e) {
            EXPECT_LE(e.position(), std::string(doc).size()) << doc;
            EXPECT_NE(e.code(), ErrorCode::Unspecified) << doc;
        }
    }
}
