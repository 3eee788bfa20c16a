/**
 * @file
 * End-to-end service tests over the loopback harness (DESIGN.md §10).
 *
 * The centerpiece is the differential rig: every (document, query)
 * pair from the shared fuzz corpus runs once through the wire —
 * header, socket-chunked body, match frames, trailer — and once
 * directly through Streamer::run; values must agree byte for byte and
 * the trailer's ErrorCode / position / FastForwardStats must equal the
 * direct run's, at every adversarial client chunking in the ladder.
 * Around it: the robustness envelope (header caps, deadlines, body and
 * match caps, slow readers), protocol edges at socket boundaries, the
 * plan-cache counters, the `!stats` scrape, and graceful shutdown.
 */
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "path/parser.h"
#include "path/queryset.h"
#include "service/loopback.h"
#include "service/plan_cache.h"
#include "service/protocol.h"
#include "service/server.h"
#include "ski/multi.h"
#include "ski/streamer.h"
#include "testing/differential.h"
#include "util/error.h"

using namespace jsonski;
using namespace jsonski::service;

namespace {

/** The acceptance-criterion client chunkings. */
const std::vector<size_t> kChunkings = {1, 7, 64, 4096};

RequestHeader
queryHeader(std::string query)
{
    RequestHeader h;
    h.queries = {std::move(query)};
    return h;
}

ClientOptions
chunked(size_t chunk)
{
    ClientOptions opt;
    opt.chunk_schedule = {chunk};
    return opt;
}

/** What a direct (no wire) evaluation observed. */
struct DirectRun
{
    bool ok = true;
    ErrorCode code = ErrorCode::Unspecified;
    size_t error_pos = 0;
    std::vector<std::string> values;
    std::array<uint64_t, 5> ff{};
};

DirectRun
runDirect(const std::string& query, std::string_view doc)
{
    DirectRun out;
    ski::Streamer streamer(path::parse(query));
    ski::CollectSink sink;
    try {
        auto r = streamer.run(doc, &sink);
        out.ff = r.stats.skipped;
    } catch (const ParseError& e) {
        out.ok = false;
        out.code = e.code();
        out.error_pos = e.position();
    }
    out.values = std::move(sink.values);
    return out;
}

/**
 * Push raw bytes through an adopted socketpair and return everything
 * the server wrote back — the escape hatch for malformed *headers*,
 * which the structured harness cannot produce.
 */
std::string
rawExchange(Server& server, std::string_view bytes, bool half_close = true)
{
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    EXPECT_TRUE(server.adoptConnection(sv[0]));
    size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = ::send(sv[1], bytes.data() + off, bytes.size() - off,
                           MSG_NOSIGNAL);
        if (n <= 0)
            break;
        off += static_cast<size_t>(n);
    }
    if (half_close)
        ::shutdown(sv[1], SHUT_WR);
    std::string out;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(sv[1], buf, sizeof buf)) > 0)
        out.append(buf, static_cast<size_t>(n));
    ::close(sv[1]);
    return out;
}

Trailer
trailerOf(const std::string& raw)
{
    ResponseParser p;
    p.feed(raw);
    EXPECT_TRUE(p.done());
    return p.trailer();
}

TEST(Service, LoopbackDifferentialAgainstDirectStreamer)
{
    // Full corpus x query mix; the chunking ladder rotates across
    // pairs, and a handcrafted nucleus runs the full cross product.
    Server server;
    server.start();

    std::vector<std::string> corpus =
        jsonski::testing::defaultCorpus(2048);
    std::vector<std::string> queries = jsonski::testing::defaultQueries();
    ASSERT_FALSE(corpus.empty());
    ASSERT_FALSE(queries.empty());

    size_t compared = 0;
    size_t rotate = 0;
    for (const std::string& doc : corpus) {
        for (const std::string& query : queries) {
            size_t chunk = kChunkings[rotate++ % kChunkings.size()];
            DirectRun direct = runDirect(query, doc);
            ClientResult r = runRequest(server, queryHeader(query), doc,
                                        chunked(chunk));
            ASSERT_TRUE(r.has_trailer)
                << "severed: q=" << query << " chunk=" << chunk;
            const Trailer& t = r.trailer;

            EXPECT_EQ(t.ok, direct.ok) << query << " chunk=" << chunk;
            if (direct.ok) {
                EXPECT_EQ(t.matches, direct.values.size());
                // The streamer stops pulling once the root value
                // closes, so trailing bytes may stay unread.
                EXPECT_LE(t.bytes_in, doc.size());
                EXPECT_GT(t.bytes_in, 0u);
                EXPECT_EQ(t.ff, direct.ff) << query;
            } else {
                EXPECT_EQ(t.code, direct.code) << query;
                EXPECT_EQ(t.error_pos, direct.error_pos) << query;
            }
            // Byte-identity of every delivered value, in order.
            ASSERT_EQ(r.matches.size(), direct.values.size());
            for (size_t i = 0; i < r.matches.size(); ++i) {
                EXPECT_EQ(r.matches[i].first, 0u);
                EXPECT_EQ(r.matches[i].second, direct.values[i]);
            }
            ++compared;
        }
    }

    // Nucleus: one adversarial document through every chunking.
    const std::string doc =
        R"({"a": [{"b": "x\n\"y\""}, {"b": "é€"}, )"
        R"({"b": [1.5e-3, true, null]}], "tail": "padding padding"})";
    const std::string query = "$.a[*].b";
    DirectRun direct = runDirect(query, doc);
    for (size_t chunk : kChunkings) {
        ClientResult r =
            runRequest(server, queryHeader(query), doc, chunked(chunk));
        ASSERT_TRUE(r.has_trailer);
        EXPECT_EQ(r.trailer.matches, direct.values.size());
        ASSERT_EQ(r.matches.size(), direct.values.size());
        for (size_t i = 0; i < r.matches.size(); ++i)
            EXPECT_EQ(r.matches[i].second, direct.values[i]);
        EXPECT_EQ(r.trailer.ff, direct.ff);
        ++compared;
    }

    EXPECT_GT(compared, 100u);
    server.stop();
}

TEST(Service, MultiQueryDifferentialAndPerQueryCounts)
{
    Server server;
    server.start();

    const std::string doc =
        R"({"a": [1, 2, 3], "b": {"c": "v"}, "d": [{"c": 1}, {"c": 2}]})";
    RequestHeader h;
    h.queries = {"$.a[*]", "$.b.c", "$.d[*].c"};

    ski::MultiStreamer direct({path::parse("$.a[*]"),
                               path::parse("$.b.c"),
                               path::parse("$.d[*].c")});
    ski::MultiCollectSink sink(3);
    auto dr = direct.run(doc, &sink);

    for (size_t chunk : kChunkings) {
        ClientResult r = runRequest(server, h, doc, chunked(chunk));
        ASSERT_TRUE(r.has_trailer);
        EXPECT_TRUE(r.trailer.ok);
        ASSERT_EQ(r.trailer.per_query.size(), 3u);
        for (size_t qi = 0; qi < 3; ++qi)
            EXPECT_EQ(r.trailer.per_query[qi], dr.matches[qi]);
        // Re-bucket the wire matches per query and compare bytes.
        std::vector<std::vector<std::string>> got(3);
        for (auto& [qi, value] : r.matches) {
            ASSERT_LT(qi, 3u);
            got[qi].push_back(value);
        }
        EXPECT_EQ(got, sink.values);
    }
    server.stop();
}

TEST(Service, DuplicateQueriesShareOneFrameStream)
{
    // Regression for the duplicate double-emit bug: a request listing
    // the same query twice (under different spellings) gets ONE frame
    // stream, tagged with the representative request position; the
    // trailer still reports a count per request position (duplicates
    // repeat) and qmap says which frame id serves each position.
    Server server;
    server.start();
    const std::string doc = R"({"a": [1, 2], "b": "v"})";
    RequestHeader h;
    h.queries = {"$.a[*]", "$['a'][*]", "$.b"};

    for (size_t chunk : kChunkings) {
        ClientResult r = runRequest(server, h, doc, chunked(chunk));
        ASSERT_TRUE(r.has_trailer);
        EXPECT_TRUE(r.trailer.ok);
        // Distinct matches only: 2 for $.a[*] (once!) + 1 for $.b.
        EXPECT_EQ(r.trailer.matches, 3u);
        EXPECT_EQ(r.trailer.per_query,
                  (std::vector<size_t>{2, 2, 1}));
        EXPECT_EQ(r.trailer.qmap, (std::vector<size_t>{0, 0, 2}));
        ASSERT_EQ(r.matches.size(), 3u);
        EXPECT_EQ(r.matches[0].first, 0u);
        EXPECT_EQ(r.matches[0].second, "1");
        EXPECT_EQ(r.matches[1].first, 0u);
        EXPECT_EQ(r.matches[1].second, "2");
        EXPECT_EQ(r.matches[2].first, 2u);
        EXPECT_EQ(r.matches[2].second, "\"v\"");
    }
    server.stop();
}

TEST(Service, MultilineQueryListMatchesInlineList)
{
    // The continuation-line form must be observationally identical to
    // the inline comma list: same frames, same tags, same trailer.
    Server server;
    server.start();
    const std::string doc =
        R"({"a": [1, 2, 3], "b": {"c": "v"}, "d": [{"c": 9}]})";
    RequestHeader inline_h;
    inline_h.queries = {"$.a[*]", "$.b.c", "$.d[*].c"};
    RequestHeader multi_h = inline_h;
    multi_h.multiline = true;

    for (size_t chunk : kChunkings) {
        ClientResult a = runRequest(server, inline_h, doc, chunked(chunk));
        ClientResult b = runRequest(server, multi_h, doc, chunked(chunk));
        ASSERT_TRUE(a.has_trailer);
        ASSERT_TRUE(b.has_trailer);
        EXPECT_TRUE(b.trailer.ok);
        EXPECT_EQ(b.trailer.matches, a.trailer.matches);
        EXPECT_EQ(b.trailer.per_query, a.trailer.per_query);
        EXPECT_EQ(b.trailer.qmap, a.trailer.qmap);
        EXPECT_EQ(b.matches, a.matches);
    }
    EXPECT_EQ(server.stats().multi_query_requests,
              2 * kChunkings.size());
    server.stop();
}

TEST(Service, OversizedQueryListIsATypedRejection)
{
    ServerConfig cfg;
    cfg.max_queries = 2;
    Server server(cfg);
    server.start();

    // Inline form: three queries against a cap of two.
    RequestHeader h;
    h.queries = {"$.a", "$.b", "$.c"};
    ClientResult r = runRequest(server, h, "{}");
    ASSERT_TRUE(r.has_trailer);
    EXPECT_FALSE(r.trailer.ok);
    EXPECT_EQ(r.trailer.code, ErrorCode::TooManyQueries);

    // Declared form: the header announces five continuation lines the
    // client never sends — the server must reject on the declaration
    // alone (before reading a single query= line), so the response is
    // TooManyQueries, not a read timeout or UnexpectedEnd.
    Trailer t = trailerOf(rawExchange(server, "jsq/1 $.a queries=5\n"));
    EXPECT_FALSE(t.ok);
    EXPECT_EQ(t.code, ErrorCode::TooManyQueries);

    EXPECT_EQ(server.stats().rejected_too_many_queries, 2u);

    // At the cap is fine.
    RequestHeader ok_h;
    ok_h.queries = {"$.a", "$.b"};
    ClientResult ok = runRequest(server, ok_h, R"({"a": 1, "b": 2})");
    ASSERT_TRUE(ok.has_trailer);
    EXPECT_TRUE(ok.trailer.ok);
    EXPECT_EQ(ok.trailer.matches, 2u);
    server.stop();
}

TEST(Service, PlanCacheKeysOnTheCanonicalQuerySet)
{
    // The multi-query plan cache is keyed on the canonical *set*:
    // order and duplicates collapse away, so {A,B} and {B,A,A} share
    // one compiled engine; {A,C} is a different set and misses.
    PlanCache cache(8);
    bool hit = false;
    auto p1 = cache.get("$.a, $.b", &hit);
    EXPECT_FALSE(hit);
    auto p2 = cache.get("$.b, $['a'], $.a", &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(p1.get(), p2.get());
    auto p3 = cache.get("$.a, $.c", &hit);
    EXPECT_FALSE(hit);
    EXPECT_NE(p1.get(), p3.get());
    EXPECT_EQ(cache.size(), 2u);

    // The request-set out-param still reflects the *request* order and
    // duplicates, which is what frame tagging keys on.
    path::QuerySet set;
    cache.get("$.b, $.a, $.a", &hit, &set);
    EXPECT_TRUE(hit);
    EXPECT_EQ(set.id_of, (std::vector<size_t>{0, 1, 1}));
    EXPECT_EQ(set.canonical,
              (std::vector<std::string>{"$.b", "$.a"}));
}

TEST(Service, MultiQueryWithSuffixesOverTheWire)
{
    // Filter and descendant members of a query set replay on divergent
    // suffixes server-side; the wire result must equal the direct
    // combined run, frame tags included.
    Server server;
    server.start();
    const std::string doc =
        R"({"items": [{"a": 1, "b": "p"}, {"a": 2, "b": "q"}, )"
        R"({"a": 1, "b": "r"}], "meta": {"id": 3, "sub": {"id": 4}}})";
    RequestHeader h;
    h.queries = {"$.items[?(@.a==1)].b", "$..id", "$.meta.id"};

    ski::MultiStreamer direct(path::QuerySet::fromTexts(h.queries));
    ski::MultiCollectSink sink(direct.queryCount());
    auto dr = direct.run(doc, &sink);

    for (size_t chunk : kChunkings) {
        ClientResult r = runRequest(server, h, doc, chunked(chunk));
        ASSERT_TRUE(r.has_trailer) << "chunk=" << chunk;
        EXPECT_TRUE(r.trailer.ok);
        ASSERT_EQ(r.trailer.per_query.size(), 3u);
        for (size_t i = 0; i < 3; ++i)
            EXPECT_EQ(r.trailer.per_query[i],
                      dr.matches[direct.querySet().id_of[i]]);
        std::vector<std::vector<std::string>> got(direct.queryCount());
        for (auto& [qi, value] : r.matches) {
            ASSERT_LT(qi, 3u);
            got[direct.querySet().id_of[qi]].push_back(value);
        }
        EXPECT_EQ(got, sink.values);
    }
    server.stop();
}

TEST(Service, QuoteAwareQueryListSplitting)
{
    // Filter string literals may contain every separator the protocol
    // cares about: commas, brackets, and spaces.  None of them may
    // split the list or unbalance the depth tracking.
    std::vector<std::string> qs =
        splitQueries("$[?(@.a==',]')], $.b, $[?(@.c=='x y, [z]')]");
    ASSERT_EQ(qs.size(), 3u);
    EXPECT_EQ(qs[0], "$[?(@.a==',]')]");
    EXPECT_EQ(qs[1], "$.b");
    EXPECT_EQ(qs[2], "$[?(@.c=='x y, [z]')]");

    // Escaped quote inside a literal does not close it.
    qs = splitQueries(R"($[?(@.a=='p\',q')],$.b)");
    ASSERT_EQ(qs.size(), 2u);
    EXPECT_EQ(qs[0], R"($[?(@.a=='p\',q')])");

    // Header parsing: predicate whitespace must not be taken for the
    // query-list / flags separator.
    RequestHeader h =
        parseHeader("jsq/1 $[?( @.v < 10 )].id,$.nm count limit=5");
    ASSERT_EQ(h.queries.size(), 2u);
    EXPECT_EQ(h.queries[0], "$[?( @.v < 10 )].id");
    EXPECT_EQ(h.queries[1], "$.nm");
    EXPECT_TRUE(h.count_only);
    EXPECT_EQ(h.limit, 5u);

    // ...and a literal containing a space keeps the list intact too.
    h = parseHeader("jsq/1 $[?(@.a=='x y')] records");
    ASSERT_EQ(h.queries.size(), 1u);
    EXPECT_EQ(h.queries[0], "$[?(@.a=='x y')]");
    EXPECT_TRUE(h.records);
}

TEST(Service, PlanCacheCanonicalizesFilterSpellings)
{
    // Every spelling of the same query must land on one cache entry
    // whose key is the parse->print normal form.
    PlanCache cache(8);
    bool hit = false;
    auto p1 = cache.get("$[?( @.v < 10 )].id", &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(p1->key, "$[?(@.v<10)].id");
    auto p2 = cache.get("$[?(@['v']<1e1)].id", &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(p1.get(), p2.get());
    auto p3 = cache.get("$['id'] , $[\"nm\"]", &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(p3->key, "$.id,$.nm");
    EXPECT_EQ(cache.get("$.id,$.nm", &hit).get(), p3.get());
    EXPECT_TRUE(hit);
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 2u);

    // A malformed filter throws before anything is inserted; a filter
    // inside a multi-query list compiles (the combined engine replays
    // it on the divergent suffix).
    EXPECT_THROW(cache.get("$[?(@.]"), PathError);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_NO_THROW(cache.get("$.id,$[?(@.s=='x')]"));
    EXPECT_EQ(cache.size(), 3u);
}

TEST(Service, FilterQueryOverTheWireMatchesDirect)
{
    // Acceptance criterion: `$..a[?(@.b op lit)]` via jsqd equals the
    // direct evaluation byte for byte, at every client chunking.
    Server server;
    server.start();
    const std::string doc =
        R"({"a": [{"b": 1, "c": "u"}, {"b": 7, "c": "v"}, )"
        R"({"c": "w"}, {"b": "s"}], )"
        R"("n": {"a": [{"b": 9, "c": "x"}, {"b": 2}]}})";
    const std::vector<std::string> queries = {
        "$..a[?(@.b>3)]",      "$..a[?(@.b>3)].c",  "$..a[?(@.b)]",
        "$.a[?(@.c=='v')].b",  "$..a[?(@.b<=2)]",   "$.a[?(@.b!=7)]",
    };
    for (const std::string& query : queries) {
        DirectRun direct = runDirect(query, doc);
        ASSERT_TRUE(direct.ok) << query;
        for (size_t chunk : kChunkings) {
            ClientResult r = runRequest(server, queryHeader(query), doc,
                                        chunked(chunk));
            ASSERT_TRUE(r.has_trailer) << query << " chunk=" << chunk;
            EXPECT_TRUE(r.trailer.ok) << query;
            EXPECT_EQ(r.trailer.matches, direct.values.size()) << query;
            EXPECT_EQ(r.trailer.ff, direct.ff)
                << query << " chunk=" << chunk;
            ASSERT_EQ(r.matches.size(), direct.values.size()) << query;
            for (size_t i = 0; i < r.matches.size(); ++i)
                EXPECT_EQ(r.matches[i].second, direct.values[i])
                    << query << " chunk=" << chunk;
        }
    }
    server.stop();
}

TEST(Service, MalformedBodiesAtSocketSeams)
{
    // Documents broken mid-escape, mid-\uXXXX, mid-UTF-8, truncated:
    // the trailer must carry the same ErrorCode and byte position the
    // direct run throws, no matter where the socket seams fall.
    Server server;
    server.start();

    const std::vector<std::string> docs = {
        R"({"a": [1, 2, {"b": "unterminated)",
        R"({"k": "esc\)",
        "{\"k\": \"\\u12",
        std::string("{\"k\": \"\xe2\x82"), // truncated UTF-8 sequence
        R"([1, 2, 3)",
        R"({"a" 1})",
        R"({"a": 00})",
    };
    for (const std::string& doc : docs) {
        DirectRun direct = runDirect("$.a", doc);
        for (size_t chunk : {size_t{1}, size_t{7}}) {
            ClientResult r = runRequest(server, queryHeader("$.a"), doc,
                                        chunked(chunk));
            ASSERT_TRUE(r.has_trailer) << doc;
            EXPECT_EQ(r.trailer.ok, direct.ok) << doc;
            if (!direct.ok) {
                EXPECT_EQ(r.trailer.code, direct.code) << doc;
                EXPECT_EQ(r.trailer.error_pos, direct.error_pos) << doc;
            }
        }
    }
    server.stop();
}

TEST(Service, TruncatedHeaderYieldsUnexpectedEnd)
{
    Server server;
    server.start();
    // Half-close mid-header: no newline ever arrives.
    Trailer t = trailerOf(rawExchange(server, "jsq/1 $.a"));
    EXPECT_FALSE(t.ok);
    EXPECT_EQ(t.code, ErrorCode::UnexpectedEnd);
    server.stop();
}

TEST(Service, OversizedHeaderIsRejectedBeforeNewline)
{
    ServerConfig cfg;
    cfg.max_header_bytes = 128;
    Server server(cfg);
    server.start();
    // 4 KiB of header with no newline: the server must reject at the
    // cap, not buffer hoping for a line end.
    std::string huge = "jsq/1 $." + std::string(4096, 'a');
    Trailer t = trailerOf(rawExchange(server, huge));
    EXPECT_FALSE(t.ok);
    EXPECT_EQ(t.code, ErrorCode::HeaderTooLarge);
    EXPECT_EQ(server.stats().rejected_header_too_large, 1u);
    server.stop();
}

TEST(Service, BadMagicAndBadQueryAreTypedRejections)
{
    Server server;
    server.start();

    Trailer t = trailerOf(rawExchange(server, "http/1.1 GET /\n"));
    EXPECT_FALSE(t.ok);
    EXPECT_EQ(t.code, ErrorCode::BadRequest);

    // Well-formed header, malformed JSONPath.
    t = trailerOf(rawExchange(server, "jsq/1 $.a[\n{}"));
    EXPECT_FALSE(t.ok);
    EXPECT_EQ(t.code, ErrorCode::BadRequest);
    EXPECT_EQ(server.stats().rejected_bad_request, 2u);
    server.stop();
}

TEST(Service, StalledSenderTripsReadDeadline)
{
    ServerConfig cfg;
    cfg.read_deadline_ms = 150;
    Server server(cfg);
    server.start();

    ClientOptions opt;
    opt.stall_after = 4; // stop mid-document, keep the socket open
    opt.half_close = false;
    ClientResult r = runRequest(server, queryHeader("$.a"),
                                R"({"a": [1, 2, 3]})", opt);
    ASSERT_TRUE(r.has_trailer);
    EXPECT_FALSE(r.trailer.ok);
    EXPECT_EQ(r.trailer.code, ErrorCode::DeadlineExpired);
    EXPECT_EQ(server.stats().rejected_deadline, 1u);
    server.stop();
}

TEST(Service, SlowReaderIsBackpressuredNotBuffered)
{
    // A huge match volume against a reader that never drains: the
    // bounded write queue must flush-or-reject under its deadline
    // instead of ballooning. The connection is severed (no trailer
    // can be delivered through a full pipe).
    ServerConfig cfg;
    cfg.write_deadline_ms = 150;
    cfg.write_queue_bytes = 4096;
    Server server(cfg);
    server.start();

    std::string doc = "[";
    for (int i = 0; i < 20000; ++i) {
        if (i)
            doc += ',';
        doc += "\"payload-payload-payload-payload-" + std::to_string(i) +
               "\"";
    }
    doc += "]";

    ClientOptions opt;
    opt.read_delay_ms = 60000; // effectively: never read
    opt.overall_timeout_ms = 3000;
    ClientResult r = runRequest(server, queryHeader("$[*]"), doc, opt);
    EXPECT_FALSE(r.has_trailer);
    EXPECT_TRUE(r.severed);
    EXPECT_EQ(server.stats().rejected_deadline, 1u);
    server.stop();
}

TEST(Service, ClientLimitStopsEarlyWithOkTrailer)
{
    Server server;
    server.start();
    RequestHeader h = queryHeader("$[*]");
    h.limit = 2;
    ClientResult r = runRequest(server, h, "[10, 20, 30, 40, 50]");
    ASSERT_TRUE(r.has_trailer);
    EXPECT_TRUE(r.trailer.ok);
    EXPECT_EQ(r.trailer.matches, 2u);
    ASSERT_EQ(r.matches.size(), 2u);
    EXPECT_EQ(r.matches[0].second, "10");
    EXPECT_EQ(r.matches[1].second, "20");
    server.stop();
}

TEST(Service, ServerMatchCapIsATypedError)
{
    ServerConfig cfg;
    cfg.max_matches = 3;
    Server server(cfg);
    server.start();
    ClientResult r =
        runRequest(server, queryHeader("$[*]"), "[1, 2, 3, 4, 5]");
    ASSERT_TRUE(r.has_trailer);
    EXPECT_FALSE(r.trailer.ok);
    EXPECT_EQ(r.trailer.code, ErrorCode::MatchLimitExceeded);
    server.stop();
}

TEST(Service, BodyByteCapIsATypedError)
{
    ServerConfig cfg;
    cfg.max_body_bytes = 32;
    Server server(cfg);
    server.start();
    std::string doc = R"({"a": ")" + std::string(100, 'x') + R"("})";
    ClientResult r = runRequest(server, queryHeader("$.a"), doc);
    ASSERT_TRUE(r.has_trailer);
    EXPECT_FALSE(r.trailer.ok);
    EXPECT_EQ(r.trailer.code, ErrorCode::RecordTooLarge);
    EXPECT_EQ(r.trailer.error_pos, 32u);
    EXPECT_EQ(server.stats().rejected_too_large, 1u);
    server.stop();
}

TEST(Service, LengthFramedBodyNeedsNoHalfClose)
{
    Server server;
    server.start();
    const std::string doc = R"({"a": [1, 2, 3]})";
    RequestHeader h = queryHeader("$.a[*]");
    h.has_length = true;
    h.length = doc.size();
    ClientOptions opt;
    opt.half_close = false; // EOF framing would hang here
    ClientResult r = runRequest(server, h, doc, opt);
    ASSERT_TRUE(r.has_trailer);
    EXPECT_TRUE(r.trailer.ok);
    EXPECT_EQ(r.trailer.matches, 3u);
    EXPECT_EQ(r.trailer.bytes_in, doc.size());
    server.stop();
}

TEST(Service, RecordsModeStreamsNdjson)
{
    Server server;
    server.start();
    const std::string body = R"({"a": 1})"
                             "\n"
                             R"({"a": 2})"
                             "\n"
                             R"({"b": 9})"
                             "\n"
                             R"({"a": 3})"
                             "\n";
    RequestHeader h = queryHeader("$.a");
    h.records = true;
    for (size_t chunk : kChunkings) {
        ClientResult r = runRequest(server, h, body, chunked(chunk));
        ASSERT_TRUE(r.has_trailer);
        EXPECT_TRUE(r.trailer.ok);
        EXPECT_EQ(r.trailer.matches, 3u);
        ASSERT_EQ(r.matches.size(), 3u);
        EXPECT_EQ(r.matches[0].second, "1");
        EXPECT_EQ(r.matches[1].second, "2");
        EXPECT_EQ(r.matches[2].second, "3");
    }
    server.stop();
}

TEST(Service, RecordsModeErrorsAreStreamOffsets)
{
    // Damage past the server's first 64 KiB record window, and inside
    // one record: the trailer must carry the stream offset of the stray
    // byte, of a truncated last record's opening byte, and of the
    // engine's error rebased by its record's start — for one query and
    // for a list, at every client chunking.
    std::string lines;
    for (int i = 0; i < 12000; ++i)
        lines += "{\"a\":1}\n";
    const std::string bad_record = "{\"a\" 1}";
    const size_t bad_at = 70000; // a record boundary (8-byte lines)
    std::string engine_bad = lines;
    engine_bad.replace(bad_at, bad_record.size(), bad_record);
    std::string stray = lines;
    stray[80000] = 'x';
    // A record the engine rejects at byte 5 ahead of a stray byte at
    // 358: the first error in the stream wins at every chunking.
    std::string early_bad = bad_record + "\n";
    while (early_bad.size() < 340)
        early_bad += "{\"a\":1}\n";
    early_bad.resize(358, ' ');
    early_bad += "x\n";

    Server server;
    server.start();
    for (std::vector<std::string> queries :
         {std::vector<std::string>{"$.a"},
          std::vector<std::string>{"$.a", "$.b"}}) {
        // The record on its own, through the engine the plan picks.
        auto plan = compilePlan(joinQueries(queries));
        size_t in_record = 0;
        ErrorCode record_code = ErrorCode::Unspecified;
        try {
            if (plan->single)
                plan->single->run(bad_record);
            else
                plan->multi->run(bad_record);
            FAIL() << "the damaged record parsed";
        } catch (const ParseError& e) {
            in_record = e.position();
            record_code = e.code();
        }
        const std::vector<std::tuple<std::string, ErrorCode, size_t>>
            cases = {
                {stray, ErrorCode::StrayByte, 80000},
                {lines + "{\"a\":", ErrorCode::UnterminatedRecord,
                 lines.size()},
                {engine_bad, record_code, bad_at + in_record},
                {early_bad, ErrorCode::ExpectedPunctuation, 5},
            };
        RequestHeader h;
        h.queries = queries;
        h.records = true;
        for (const auto& [body, code, pos] : cases) {
            for (size_t chunk : kChunkings) {
                ClientResult r =
                    runRequest(server, h, body, chunked(chunk));
                ASSERT_TRUE(r.has_trailer);
                EXPECT_FALSE(r.trailer.ok);
                EXPECT_EQ(r.trailer.code, code)
                    << queries.size() << " queries, chunk=" << chunk;
                EXPECT_EQ(r.trailer.error_pos, pos)
                    << queries.size() << " queries, chunk=" << chunk;
            }
        }
    }
    server.stop();
}

TEST(Service, CountOnlySuppressesMatchFrames)
{
    Server server;
    server.start();
    RequestHeader h = queryHeader("$[*]");
    h.count_only = true;
    ClientResult r = runRequest(server, h, "[1, 2, 3]");
    ASSERT_TRUE(r.has_trailer);
    EXPECT_TRUE(r.trailer.ok);
    EXPECT_EQ(r.trailer.matches, 3u);
    EXPECT_TRUE(r.matches.empty()); // nothing but the trailer on the wire
    server.stop();
}

RequestHeader
docHeader(std::string query, std::string_view body,
          std::string id = "d1")
{
    RequestHeader h = queryHeader(std::move(query));
    h.has_length = true;
    h.length = body.size();
    h.has_doc = true;
    h.doc_id = std::move(id);
    return h;
}

TEST(Service, DocRequestWarmMatchesStreamingAndReportsCacheVerdict)
{
    ServerConfig cfg;
    cfg.shards = 1; // one index-cache partition → exact hit/miss
    Server server(cfg);
    server.start();

    const std::string doc =
        R"({"cp": [{"id": 1}, {"id": 2}, {"id": 3}], "nm": "x"})";
    const std::string query = "$.cp[*].id";
    DirectRun direct = runDirect(query, doc);
    ASSERT_TRUE(direct.ok);

    // First sight: the shard builds and caches the index (miss); every
    // later request for the same bytes answers warm (hit).  Values are
    // byte-identical to the direct streaming run either way, at every
    // client chunking.
    ClientResult first =
        runRequest(server, docHeader(query, doc), doc);
    ASSERT_TRUE(first.has_trailer);
    EXPECT_TRUE(first.trailer.ok);
    EXPECT_EQ(first.trailer.index, "miss");
    EXPECT_EQ(first.trailer.bytes_in, doc.size());
    ASSERT_EQ(first.matches.size(), direct.values.size());
    for (size_t i = 0; i < first.matches.size(); ++i)
        EXPECT_EQ(first.matches[i].second, direct.values[i]);

    for (size_t chunk : kChunkings) {
        ClientResult r = runRequest(server, docHeader(query, doc), doc,
                                    chunked(chunk));
        ASSERT_TRUE(r.has_trailer);
        EXPECT_TRUE(r.trailer.ok);
        EXPECT_EQ(r.trailer.index, "hit") << "chunk=" << chunk;
        ASSERT_EQ(r.matches.size(), direct.values.size());
        for (size_t i = 0; i < r.matches.size(); ++i)
            EXPECT_EQ(r.matches[i].second, direct.values[i]);
    }

    // A different query over the same cached document is still a hit:
    // the cache keys on content, not on (doc, query).
    ClientResult other =
        runRequest(server, docHeader("$.nm", doc), doc);
    ASSERT_TRUE(other.has_trailer);
    EXPECT_EQ(other.trailer.index, "hit");
    ASSERT_EQ(other.matches.size(), 1u);
    EXPECT_EQ(other.matches[0].second, "\"x\"");

    index::DocumentIndexCacheStats dc = server.docCacheTotals();
    EXPECT_EQ(dc.misses, 1u);
    EXPECT_EQ(dc.hits, kChunkings.size() + 1);
    EXPECT_EQ(dc.entries, 1u);

    std::string page = scrapeStats(server);
    EXPECT_NE(page.find("jsonski_server_doc_index_cache_misses 1"),
              std::string::npos);
    EXPECT_NE(page.find("jsonski_server_doc_index_cache_hits"),
              std::string::npos);
    EXPECT_NE(page.find("jsonski_server_doc_index_cache_bytes"),
              std::string::npos);
    server.stop();
}

TEST(Service, DocRequestErrorsMatchStreamingErrors)
{
    // Structurally clean (balanced containers, closed strings) so the
    // index is usable, yet grammatically wrong: the warm path must
    // reproduce the streaming ErrorCode and position in the trailer.
    ServerConfig cfg;
    cfg.shards = 1;
    Server server(cfg);
    server.start();
    const std::string doc = R"({"a" 1})"; // missing colon
    const std::string query = "$.a";
    DirectRun direct = runDirect(query, doc);
    ASSERT_FALSE(direct.ok);
    for (int pass = 0; pass < 2; ++pass) {
        ClientResult r = runRequest(server, docHeader(query, doc), doc);
        ASSERT_TRUE(r.has_trailer);
        EXPECT_FALSE(r.trailer.ok);
        EXPECT_EQ(r.trailer.code, direct.code);
        EXPECT_EQ(r.trailer.error_pos, direct.error_pos);
        EXPECT_EQ(r.trailer.index, pass == 0 ? "miss" : "hit");
    }
    server.stop();
}

TEST(Service, DocRequestOnUncleanDocumentStreamsWithIndexNone)
{
    // Structurally unclean (unbalanced): the builder marks the index
    // unusable, the request streams, and the trailer says index=none —
    // with the same typed error the plain path reports.
    ServerConfig cfg;
    cfg.shards = 1;
    Server server(cfg);
    server.start();
    const std::string doc = R"({"a": [1, 2)";
    DirectRun direct = runDirect("$.a[*]", doc);
    ASSERT_FALSE(direct.ok);
    ClientResult r = runRequest(server, docHeader("$.a[*]", doc), doc);
    ASSERT_TRUE(r.has_trailer);
    EXPECT_FALSE(r.trailer.ok);
    EXPECT_EQ(r.trailer.code, direct.code);
    EXPECT_EQ(r.trailer.error_pos, direct.error_pos);
    EXPECT_EQ(r.trailer.index, "none");
    server.stop();
}

TEST(Service, DocRequestMultiQueryStreamsWithIndexNone)
{
    Server server;
    server.start();
    const std::string doc = R"({"a": [1, 2], "b": {"c": "v"}})";
    RequestHeader h;
    h.queries = {"$.a[*]", "$.b.c"};
    h.has_length = true;
    h.length = doc.size();
    h.has_doc = true;
    h.doc_id = "m";
    ClientResult r = runRequest(server, h, doc);
    ASSERT_TRUE(r.has_trailer);
    EXPECT_TRUE(r.trailer.ok);
    EXPECT_EQ(r.trailer.index, "none");
    EXPECT_EQ(r.trailer.matches, 3u);
    ASSERT_EQ(r.trailer.per_query.size(), 2u);
    EXPECT_EQ(r.trailer.per_query[0], 2u);
    EXPECT_EQ(r.trailer.per_query[1], 1u);
    server.stop();
}

TEST(Service, DocRequestBodyCapIsATypedError)
{
    ServerConfig cfg;
    cfg.max_doc_bytes = 16;
    Server server(cfg);
    server.start();
    const std::string doc =
        R"({"a": ")" + std::string(64, 'x') + R"("})";
    ClientResult r = runRequest(server, docHeader("$.a", doc), doc);
    ASSERT_TRUE(r.has_trailer);
    EXPECT_FALSE(r.trailer.ok);
    EXPECT_EQ(r.trailer.code, ErrorCode::RecordTooLarge);
    EXPECT_EQ(r.trailer.index, "none");
    EXPECT_EQ(server.stats().rejected_too_large, 1u);
    server.stop();
}

TEST(Service, DocRequestWithoutLengthIsBadRequest)
{
    Server server;
    server.start();
    Trailer t =
        trailerOf(rawExchange(server, "jsq/1 $.a doc=d1\n{\"a\": 1}"));
    EXPECT_FALSE(t.ok);
    EXPECT_EQ(t.code, ErrorCode::BadRequest);
    Trailer t2 = trailerOf(rawExchange(
        server, "jsq/1 $.a records doc=d1 length=9\n{\"a\": 1}\n"));
    EXPECT_FALSE(t2.ok);
    EXPECT_EQ(t2.code, ErrorCode::BadRequest);
    server.stop();
}

TEST(Service, DocRequestTruncatedBodyIsUnexpectedEnd)
{
    Server server;
    server.start();
    const std::string doc = R"({"a": [1, 2, 3]})";
    RequestHeader h = docHeader("$.a[*]", doc);
    h.length = doc.size() + 10; // client half-closes short of this
    ClientResult r = runRequest(server, h, doc);
    ASSERT_TRUE(r.has_trailer);
    EXPECT_FALSE(r.trailer.ok);
    EXPECT_EQ(r.trailer.code, ErrorCode::UnexpectedEnd);
    server.stop();
}

TEST(Service, NonDocRequestsOmitTheIndexField)
{
    Server server;
    server.start();
    ClientResult r =
        runRequest(server, queryHeader("$.a"), R"({"a": 1})");
    ASSERT_TRUE(r.has_trailer);
    EXPECT_TRUE(r.trailer.ok);
    EXPECT_TRUE(r.trailer.index.empty());
    index::DocumentIndexCacheStats dc = server.docCacheTotals();
    EXPECT_EQ(dc.hits + dc.misses, 0u);
    server.stop();
}

TEST(Service, PlanCacheCountersAcrossConcurrentConnections)
{
    ServerConfig cfg;
    cfg.workers = 4;
    cfg.shards = 1; // one plan-cache partition → exact counters
    Server server(cfg);
    server.start();

    // N concurrent connections, same fresh query: compile-under-lock
    // makes the counters deterministic — 1 miss, N-1 hits — and the
    // trailer's plan verdict agrees.
    constexpr int kClients = 6;
    std::vector<std::thread> clients;
    std::vector<ClientResult> results(kClients);
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            results[c] = runRequest(server, queryHeader("$.fresh[*]"),
                                    R"({"fresh": [1, 2]})");
        });
    for (auto& th : clients)
        th.join();

    int hits = 0, misses = 0;
    for (const ClientResult& r : results) {
        ASSERT_TRUE(r.has_trailer);
        EXPECT_TRUE(r.trailer.ok);
        EXPECT_EQ(r.trailer.matches, 2u);
        if (r.trailer.plan == "hit")
            ++hits;
        else if (r.trailer.plan == "miss")
            ++misses;
    }
    EXPECT_EQ(misses, 1);
    EXPECT_EQ(hits, kClients - 1);
    EXPECT_EQ(server.planCache().misses(), 1u);
    EXPECT_EQ(server.planCache().hits(),
              static_cast<uint64_t>(kClients - 1));

    // A later request for the same query is a straight hit.
    ClientResult r = runRequest(server, queryHeader("$.fresh[*]"),
                                R"({"fresh": []})");
    ASSERT_TRUE(r.has_trailer);
    EXPECT_EQ(r.trailer.plan, "hit");
    server.stop();
}

TEST(Service, PlanCacheEvictionCounterMovesUnderPressure)
{
    ServerConfig cfg;
    cfg.shards = 1; // one partition, so the capacity is not split
    cfg.plan_cache_capacity = PlanCache::kShards; // one per shard
    Server server(cfg);
    server.start();
    for (int i = 0; i < 32; ++i)
        runRequest(server, queryHeader("$.k" + std::to_string(i)), "{}");
    EXPECT_GT(server.planCache().evictions(), 0u);
    EXPECT_LE(server.planCache().size(), PlanCache::kShards);
    server.stop();
}

TEST(Service, StatsScrapeIsPrometheusText)
{
    Server server;
    server.start();
    runRequest(server, queryHeader("$.a"), R"({"a": 1})");
    std::string page = scrapeStats(server);
    EXPECT_NE(page.find("# TYPE jsonski_server_requests_total counter"),
              std::string::npos);
    EXPECT_NE(page.find("jsonski_server_responses_ok 1"),
              std::string::npos);
    EXPECT_NE(page.find("jsonski_server_plan_cache_misses"),
              std::string::npos);
    EXPECT_EQ(server.stats().stats_requests, 1u);
    server.stop();
}

TEST(Service, TelemetryMergesAcrossRequests)
{
    Server server;
    server.start();
    for (int i = 0; i < 3; ++i)
        runRequest(server, queryHeader("$.a[*]"),
                   R"({"a": [1, 2, 3], "skip": [4, 5, 6]})");
    // The merged registry feeds metricsText(); the server counters in
    // it must reflect all three requests.
    std::string page = server.metricsText();
    EXPECT_NE(page.find("jsonski_server_requests_total 3"),
              std::string::npos);
    server.stop();
}

TEST(Service, TcpListenerEndToEnd)
{
    for (bool force_poll : {false, true}) {
        ServerConfig cfg;
        cfg.force_poll = force_poll;
        Server server(cfg);
        server.start();
        ASSERT_NE(server.port(), 0);
        int fd = connectTcp("127.0.0.1", server.port());
        ClientResult r = runRequestFd(fd, queryHeader("$.a"),
                                      R"({"a": "tcp"})");
        ASSERT_TRUE(r.has_trailer) << "force_poll=" << force_poll;
        EXPECT_TRUE(r.trailer.ok);
        ASSERT_EQ(r.matches.size(), 1u);
        EXPECT_EQ(r.matches[0].second, "\"tcp\"");
        EXPECT_EQ(server.stats().connections_total, 1u);
        server.stop();
    }
}

TEST(Service, IdleConnectionIsReaped)
{
    ServerConfig cfg;
    cfg.idle_deadline_ms = 100;
    Server server(cfg);
    server.start();
    int fd = connectTcp("127.0.0.1", server.port());
    // Send nothing; the event loop must close us, not leak the slot.
    char byte;
    ssize_t n = ::read(fd, &byte, 1); // blocks until the server closes
    EXPECT_EQ(n, 0);
    ::close(fd);
    // The counter is bumped by the loop thread; poll briefly.
    for (int i = 0; i < 100 && server.stats().idle_closed == 0; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(server.stats().idle_closed, 1u);
    server.stop();
}

TEST(Service, GracefulStopDrainsAndRefusesNewWork)
{
    Server server;
    server.start();
    ClientResult r =
        runRequest(server, queryHeader("$.a"), R"({"a": 1})");
    ASSERT_TRUE(r.has_trailer);
    server.stop();

    // After the drain, injected connections are refused (fd closed).
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    EXPECT_FALSE(server.adoptConnection(sv[0]));
    char byte;
    EXPECT_EQ(::read(sv[1], &byte, 1), 0); // peer closed, clean EOF
    ::close(sv[1]);

    ServerStats s = server.stats();
    EXPECT_EQ(s.responses_ok, 1u);
}

} // namespace
