/**
 * @file
 * jsq — a command-line JSONPath extractor built on the streaming API.
 *
 * Usage:
 *   jsq <query> [file]         print every match, one per line
 *   jsq -c <query> [file]      print only the match count
 *   jsq -n K <query> [file]    stop after K matches in total (early
 *                              termination)
 *   jsq -r <query> [file]      treat input as a stream of records
 *                              (NDJSON or concatenated objects/arrays),
 *                              evaluated one after another on the same
 *                              cursor
 *   jsq -s <query> [file]      print the fast-forward statistics
 *   jsq -e <query>             print the evaluation plan and exit
 *   --chunk-bytes N            read the input in N-byte chunks (default
 *                              64 KiB, in every mode)
 *
 * Reads from stdin when no file is given.  Every mode streams: the
 * input — file, pipe, or stdin — is pulled through the engine chunk by
 * chunk and never materialized as a whole, so resident memory is
 * bounded by the chunk size plus the largest value span still being
 * emitted (DESIGN.md §9), records mode included.  Error positions are
 * stream offsets and do not depend on the chunk size.
 *
 * Multiple queries may be passed separated by commas; they are
 * evaluated in ONE pass with the multi-query streamer, and -n counts
 * matches across the whole list.  Match lines are tagged [qN] with the
 * first command-line position asking for that query — duplicates share
 * one stream, and -c repeats the shared count at every position.  When
 * several queries match one value, its lines follow plan order: the
 * order in which the distinct queries first appear in the list.
 */
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "intervals/chunk_source.h"
#include "path/parser.h"
#include "service/plan_cache.h"
#include "service/protocol.h"
#include "ski/explain.h"
#include "ski/sinks.h"
#include "util/parse.h"

using namespace jsonski;

namespace {

struct Options
{
    bool count_only = false;
    bool records = false;
    bool stats = false;
    bool explain_only = false;
    size_t limit = 0; // 0 = unlimited
    size_t chunk_bytes = ski::Streamer::kDefaultChunkBytes;
    std::vector<std::string> queries;
    std::string file;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: jsq [-c] [-r] [-s] [-e] [-n K] "
                 "[--chunk-bytes N]\n"
                 "           <query>[,<query>...] [file]\n"
                 "  -r: the input is a stream of records (NDJSON); "
                 "N: chunk size, default 65536\n");
    std::exit(2);
}

Options
parseArgs(int argc, char** argv)
{
    Options opt;
    int i = 1;
    for (; i < argc && argv[i][0] == '-'; ++i) {
        if (std::strcmp(argv[i], "-c") == 0) {
            opt.count_only = true;
        } else if (std::strcmp(argv[i], "-r") == 0) {
            opt.records = true;
        } else if (std::strcmp(argv[i], "-s") == 0) {
            opt.stats = true;
        } else if (std::strcmp(argv[i], "-e") == 0) {
            opt.explain_only = true;
        } else if (std::strcmp(argv[i], "-n") == 0 && i + 1 < argc) {
            // Strict parse: '-n 5x' and '-n -1' are usage errors, not
            // silently-accepted garbage ('-n 0' stays "unlimited").
            if (!parseSize(argv[++i], opt.limit)) {
                std::fprintf(stderr, "jsq: bad -n value '%s'\n", argv[i]);
                usage();
            }
        } else if (std::strcmp(argv[i], "--chunk-bytes") == 0 &&
                   i + 1 < argc) {
            if (!parsePositiveSize(argv[++i], opt.chunk_bytes)) {
                std::fprintf(stderr,
                             "jsq: bad --chunk-bytes value '%s'\n",
                             argv[i]);
                usage();
            }
        } else {
            usage();
        }
    }
    if (i >= argc)
        usage();
    // Same top-level-comma splitting the jsqd wire protocol uses.
    opt.queries = service::splitQueries(argv[i++]);
    if (i < argc)
        opt.file = argv[i++];
    if (i != argc)
        usage();
    return opt;
}

/**
 * The one match sink: prints each match (tagged [qN] with its
 * representative command-line position when a list was given) and
 * stops the whole run after -n K matches across every query.
 */
class PrintSink : public ski::MultiSink
{
  public:
    PrintSink(bool quiet, bool tagged, std::vector<size_t> tags,
              size_t limit)
        : quiet_(quiet), tagged_(tagged), tags_(std::move(tags)),
          limit_(limit)
    {}

    void
    onMatch(size_t qi, std::string_view value) override
    {
        if (!quiet_) {
            if (tagged_)
                std::printf("[q%zu] ", tags_[qi]);
            std::fwrite(value.data(), 1, value.size(), stdout);
            std::fputc('\n', stdout);
        }
        if (limit_ != 0 && ++count_ >= limit_)
            throw ski::StopStreaming{};
    }

  private:
    bool quiet_;
    bool tagged_;
    std::vector<size_t> tags_;
    size_t limit_;
    size_t count_ = 0;
};

/**
 * -s report: whole-run fast-forward ratios over the bytes read (with
 * -r, the whole stream and its record count), how the input came in
 * (chunked ingestion), then for query lists the size of the compiled
 * automaton.
 */
void
printStats(const service::Plan& plan, const service::RunResult& r,
           bool records)
{
    size_t n = r.input_bytes;
    std::fprintf(stderr, "fast-forwarded %.2f%% of %zu bytes (G1..G5:",
                 r.stats.overallRatio(n) * 100, n);
    for (size_t g = 0; g < ski::kGroupCount; ++g)
        std::fprintf(stderr, " %.1f%%",
                     r.stats.ratio(static_cast<ski::Group>(g), n) * 100);
    std::fprintf(stderr, ")");
    if (records)
        std::fprintf(stderr, " across %zu records", r.records);
    std::fprintf(stderr,
                 "; chunked ingestion: %llu refills, %llu spill bytes, "
                 "window peak %zu bytes\n",
                 static_cast<unsigned long long>(r.ingest.refills),
                 static_cast<unsigned long long>(r.ingest.spill_bytes),
                 r.ingest.window_peak);
    if (!plan.multi)
        return;
    std::fprintf(stderr, "%zu distinct queries over %zu automaton states\n",
                 plan.multi->queryCount(), plan.multi->trieNodes());
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt = parseArgs(argc, argv);
    if (opt.explain_only) {
        try {
            for (const std::string& q : opt.queries)
                std::printf("%s", ski::explain(path::parse(q)).c_str());
        } catch (const std::exception& e) {
            std::fprintf(stderr, "jsq: %s\n", e.what());
            return 1;
        }
        return 0;
    }
    std::FILE* f = stdin;
    if (!opt.file.empty() &&
        (f = std::fopen(opt.file.c_str(), "rb")) == nullptr) {
        std::fprintf(stderr, "jsq: cannot open %s\n", opt.file.c_str());
        return 1;
    }
    try {
        // The plan keeps the list's first-occurrence order; duplicates
        // share one distinct query and one match stream.
        std::shared_ptr<const service::Plan> plan =
            service::compilePlan(service::joinQueries(opt.queries));
        service::RequestMap map =
            plan->mapRequest(path::QuerySet::fromTexts(opt.queries));
        PrintSink sink(opt.count_only, opt.queries.size() > 1, map.tag,
                       opt.limit);
        intervals::FileSource src(f);
        service::RunResult r =
            plan->run(src, sink, opt.chunk_bytes, opt.records);
        if (opt.count_only && opt.queries.size() == 1) {
            std::printf("%zu\n", r.total());
        } else if (opt.count_only) {
            std::vector<size_t> counts = map.perPosition(r.matches);
            for (size_t i = 0; i < opt.queries.size(); ++i)
                std::printf("q%zu %s: %zu\n", i, opt.queries[i].c_str(),
                            counts[i]);
        }
        if (opt.stats)
            printStats(*plan, r, opt.records);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "jsq: %s\n", e.what());
        return 1;
    }
    return 0;
}
