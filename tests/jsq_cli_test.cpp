/**
 * @file
 * Black-box tests of the jsq binary.  Every input runs through jsq in
 * every input mode — a file, stdin, and --chunk-bytes 1/7/64/4096 —
 * for documents and for record streams (-r), with one query and with a
 * list, plain and with -c, -n and -e.  Stdout must equal the answer the
 * in-process Streamer/MultiStreamer gives; a malformed input must exit
 * 1 with the same `(at byte N)` in every mode, N being the offset in
 * the stream where the engines fail.
 */
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "path/parser.h"
#include "path/queryset.h"
#include "service/protocol.h"
#include "ski/explain.h"
#include "ski/multi.h"
#include "ski/streamer.h"
#include "testing/record_scanner.h"
#include "util/error.h"

using namespace jsonski;
using Args = std::vector<std::string>;

namespace {

/** A file in the test's temporary directory, unique per process. */
std::string
tempPath(const std::string& name)
{
    return ::testing::TempDir() + "jsq_cli_" + std::to_string(::getpid()) +
           "_" + name;
}

std::string
slurp(const std::string& path)
{
    std::ostringstream ss;
    ss << std::ifstream(path, std::ios::binary).rdbuf();
    return ss.str();
}

struct JsqRun
{
    int code = -1;
    std::string out;
    std::string err;
};

/** Run jsq with @p args; a "<" argument feeds the next one on stdin. */
JsqRun
runJsq(const Args& args)
{
    std::string out = tempPath("stdout"), err = tempPath("stderr");
    std::string cmd = JSQ_PATH;
    for (const std::string& a : args) {
        if (a == "<") {
            cmd += " <";
            continue;
        }
        cmd += " '";
        for (char c : a)
            cmd += c == '\'' ? std::string("'\\''") : std::string(1, c);
        cmd += "'";
    }
    cmd += " > '" + out + "' 2> '" + err + "'";
    int status = std::system(cmd.c_str());
    return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, slurp(out),
            slurp(err)};
}

/** The input modes, as the arguments that come before the flags. */
const std::vector<Args> kModes = {
    {}, {"<"}, {"--chunk-bytes", "1"}, {"--chunk-bytes", "7"},
    {"--chunk-bytes", "64"}, {"--chunk-bytes", "4096"},
};

JsqRun
runMode(Args args, const Args& flags, const std::string& list,
        const std::string& path)
{
    bool on_stdin = !args.empty() && args[0] == "<";
    if (on_stdin)
        args.clear();
    args.insert(args.end(), flags.begin(), flags.end());
    args.push_back(list);
    if (on_stdin)
        args.push_back("<");
    args.push_back(path);
    return runJsq(args);
}

/** What the in-process engines answer for one query list. */
struct Expected
{
    std::string lines;  ///< every match line, as jsq prints it
    std::string first2; ///< the first two (-n 2)
    std::string counts; ///< -c output
    bool failed = false;
    size_t error_pos = 0;
};

/** Collects match lines the way jsq prints them. */
class LineSink : public ski::MultiSink, public path::MatchSink
{
  public:
    LineSink(bool tagged, std::vector<size_t> tags)
        : tagged_(tagged), tags_(std::move(tags))
    {}

    void onMatch(std::string_view value) override { onMatch(0, value); }

    void
    onMatch(size_t qi, std::string_view value) override
    {
        lines.push_back(
            (tagged_ ? "[q" + std::to_string(tags_[qi]) + "] " : "") +
            std::string(value) + "\n");
    }

    std::vector<std::string> lines;

  private:
    bool tagged_;
    std::vector<size_t> tags_;
};

/**
 * Evaluate @p list over @p text: one document, or with @p records each
 * record found by scanRecords on its own, errors rebased to stream
 * offsets.  One distinct query runs on Streamer, more on MultiStreamer.
 */
Expected
expect(const std::string& list, const std::string& text, bool records)
{
    Args texts = service::splitQueries(list);
    path::QuerySet set = path::QuerySet::fromTexts(texts);
    LineSink sink(texts.size() > 1, set.representatives());
    std::vector<size_t> dist(set.size(), 0);
    Expected e;
    size_t off = 0;
    try {
        std::vector<std::pair<size_t, size_t>> spans = {{0, text.size()}};
        if (records)
            spans = jsonski::testing::scanRecords(text);
        for (auto [start, len] : spans) {
            off = start;
            std::string_view piece(text.data() + start, len);
            if (set.size() == 1) {
                dist[0] += ski::Streamer(set.distinct[0])
                               .run(piece, &sink)
                               .matches;
            } else {
                auto r = ski::MultiStreamer(set).run(piece, &sink);
                for (size_t qi = 0; qi < dist.size(); ++qi)
                    dist[qi] += r.matches[qi];
            }
        }
    } catch (const ParseError& err) {
        e.failed = true;
        e.error_pos = off + err.position();
        return e;
    }
    for (size_t i = 0; i < sink.lines.size(); ++i)
        (i < 2 ? e.first2 : e.lines) += sink.lines[i];
    e.lines = e.first2 + e.lines;
    for (size_t i = 0; i < texts.size(); ++i)
        e.counts += texts.size() == 1
                        ? std::to_string(dist[0]) + "\n"
                        : "q" + std::to_string(i) + " " + texts[i] + ": " +
                              std::to_string(dist[set.id_of[i]]) + "\n";
    return e;
}

/** Every mode and flag on valid @p text agrees with the engines. */
void
checkValid(const std::string& text, const Args& lists, bool records)
{
    std::string path = tempPath("valid.json");
    std::ofstream(path, std::ios::binary) << text;
    Args base = records ? Args{"-r"} : Args{};
    for (const std::string& list : lists) {
        Expected e = expect(list, text, records);
        ASSERT_FALSE(e.failed) << list;
        std::string plan;
        for (const std::string& q : service::splitQueries(list))
            plan += ski::explain(path::parse(q));
        for (const Args& mode : kModes) {
            std::string ctx = list + " [" + (mode.empty() ? "file" : mode[0]) +
                              (mode.size() > 1 ? " " + mode[1] : "") + "]";
            const std::pair<Args, std::string> runs[] = {
                {{}, e.lines}, {{"-c"}, e.counts},
                {{"-n", "2"}, e.first2}, {{"-e"}, plan}};
            for (const auto& [flags, want] : runs) {
                Args all = base;
                all.insert(all.end(), flags.begin(), flags.end());
                JsqRun r = runMode(mode, all, list, path);
                EXPECT_EQ(r.code, 0) << ctx << ": " << r.err;
                EXPECT_EQ(r.out, want) << (flags.empty() ? "" : flags[0])
                                       << " " << ctx;
            }
        }
    }
}

/** Every mode on malformed @p text exits 1 at the engines' offset. */
void
checkMalformed(const std::string& text, const Args& lists, bool records)
{
    std::string path = tempPath("bad.json");
    std::ofstream(path, std::ios::binary) << text;
    for (const std::string& list : lists) {
        Expected e = expect(list, text, records);
        ASSERT_TRUE(e.failed) << list << " on " << text.substr(0, 60);
        std::string at = "(at byte " + std::to_string(e.error_pos) + ")";
        for (const Args& mode : kModes) {
            for (const char* flag : {"-c", "-s"}) {
                Args flags = {flag};
                if (records)
                    flags.push_back("-r");
                JsqRun r = runMode(mode, flags, list, path);
                EXPECT_EQ(r.code, 1) << list;
                EXPECT_NE(r.err.find(at), std::string::npos)
                    << list << " wants " << at << ", got: " << r.err;
            }
        }
    }
}

std::string
ndjson()
{
    std::string text;
    for (int i = 0; i < 40; ++i)
        text += "{\"a\": [" + std::to_string(i) + ", " +
                std::to_string(i * 2) + "], \"b\": {\"c\": \"v" +
                std::to_string(i) + "\"}}\n";
    return text;
}

const Args kRecordLists = {"$.a[1]", "$.a[*],$.b.c"};

TEST(JsqCli, DocumentsMatchTheEngines)
{
    for (const std::string& doc : {
             std::string(R"({"a": [1, 2, 3, 4], "b": [5, 6, 7], )"
                         R"("c": {"d": "x\"y", "e": []}})"),
             std::string(R"([{"a": [10], "b": {"c": 1}}, )"
                         R"({"a": [], "b": [2]}, {"a": [3, {"d": 4}]}])"),
             R"({"s": ")" + std::string(300, 'z') +
                 R"(", "a": [{"b": "]}"}, {"b": [1e9, null]}], "b": 0})",
         })
        checkValid(doc,
                   {"$.a[*]", "$.b", "$[*].a[*]", "$.a[*],$.b[*],$['a'][*]",
                    "$..b,$.a[1:3]"},
                   false);
}

TEST(JsqCli, RecordStreamsMatchTheEngines)
{
    checkValid(ndjson(), kRecordLists, true);
}

TEST(JsqCli, MalformedDocumentsFailAtOneOffsetInEveryMode)
{
    for (const char* doc : {
             R"({"a": [1, 2, {"b": 3)", R"({"a" 1, "b": 2})",
             R"({"b": [5, 6], "a": "x\)", R"({"a": [1, "2]})"})
        checkMalformed(doc, {"$.a[*]", "$.a[*],$.b[*]"}, false);
}

TEST(JsqCli, MalformedRecordStreamsFailAtStreamOffsets)
{
    // A stray byte between records, a truncated last record, and a
    // record the engine rejects: each at its offset in the stream.
    std::string text = ndjson();
    std::string stray = text;
    stray.insert(text.find('\n', text.size() / 2), " x");
    std::string engine_bad = text;
    engine_bad[engine_bad.find(':', engine_bad.find("{\"a\": [20"))] = ' ';
    for (const std::string& bad : {stray, text + "{\"a\": [1, ", engine_bad})
        checkMalformed(bad, kRecordLists, true);
}

TEST(JsqCli, RecordErrorsDoNotDependOnTheChunkSize)
{
    // 360 bytes: a record the engine rejects at byte 5, valid records,
    // and a stray byte at 358.  The first error in the stream wins
    // whatever the chunk size, the default included.
    std::string text = "{\"a\" 1}\n";
    for (int i = 0; text.size() < 340; ++i)
        text += "{\"a\": " + std::to_string(i) + "}\n";
    text.resize(358, ' ');
    text += "x\n";
    ASSERT_EQ(text.size(), 360u);
    std::string path = tempPath("early_bad.json");
    std::ofstream(path, std::ios::binary) << text;
    for (const Args& mode : {Args{"--chunk-bytes", "256"},
                             Args{"--chunk-bytes", "4096"}, Args{}}) {
        JsqRun r = runMode(mode, {"-r", "-c"}, "$.a", path);
        EXPECT_EQ(r.code, 1);
        EXPECT_NE(r.err.find("expected ':' (at byte 5)"), std::string::npos)
            << (mode.empty() ? "default" : mode[1]) << ": " << r.err;
    }
}

TEST(JsqCli, SidecarFlagsAreGone)
{
    std::string path = tempPath("doc.json");
    std::ofstream(path) << R"({"a": 1})";
    for (const Args& args :
         {Args{"--index-load", tempPath("doc.jski"), "$.a", path},
          Args{"--index-save", tempPath("doc.jski"), "$.a", path},
          Args{"--index-cache", "$.a", path},
          // No profile flag: -s prints the fast-forward split.
          Args{"-p", "$.a", path}, Args{"--profile", "$.a", path}}) {
        JsqRun r = runJsq(args);
        EXPECT_EQ(r.code, 2) << args[0];
        EXPECT_NE(r.err.find("usage: jsq"), std::string::npos) << args[0];
    }
}

} // namespace
