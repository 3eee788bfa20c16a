/**
 * @file
 * Constant-memory stream processing: a large NDJSON feed is queried
 * through a 64 KB window in records mode — one cursor over the whole
 * feed, the same Plan::run call jsq -r and jsqd make — realizing the
 * paper's "memory consumption is configurable by adjusting the input
 * buffer size" claim end to end.
 *
 * The example writes a feed to a temporary file, then runs two queries
 * over it in one pass while the feed itself is tens of MB, and prints
 * the window's high-water mark.
 *
 * Build & run:  ./examples/stream_reader [MB]
 */
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "gen/datasets.h"
#include "intervals/chunk_source.h"
#include "service/plan_cache.h"
#include "util/stopwatch.h"

using namespace jsonski;

namespace {

/** Counts matches without keeping them. */
class CountSink : public ski::MultiSink
{
  public:
    void onMatch(size_t, std::string_view) override {}
};

} // namespace

int
main(int argc, char** argv)
{
    size_t mb = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 32;
    const char* path = "/tmp/jsonski_feed.ndjson";

    std::printf("writing a %zu MB feed to %s...\n", mb, path);
    size_t feed_bytes = 0;
    size_t feed_records = 0;
    {
        gen::SmallRecords feed =
            gen::generateSmall(gen::DatasetId::WM, mb * 1024 * 1024);
        std::ofstream out(path, std::ios::binary);
        out.write(feed.buffer.data(),
                  static_cast<std::streamsize>(feed.buffer.size()));
        feed_bytes = feed.buffer.size();
        feed_records = feed.count();
    } // feed freed: from here on only the 64 KB window exists

    std::FILE* f = std::fopen(path, "rb");
    if (f == nullptr) {
        std::perror(path);
        return 1;
    }
    intervals::FileSource src(f);
    auto plan = service::compilePlan("$.nm,$.bmrpr.pr");
    CountSink sink;

    Stopwatch sw;
    service::RunResult r = plan->run(src, sink, 64 * 1024, true);
    double secs = sw.seconds();
    std::fclose(f);

    std::printf("processed %zu records (%.1f MB) in %.3f s "
                "(%.2f GB/s, two queries in one pass)\n",
                r.records, r.input_bytes / 1048576.0, secs,
                r.input_bytes / secs / 1e9);
    std::printf("window peak    : %zu KB (vs %.1f MB feed)\n",
                r.ingest.window_peak / 1024, feed_bytes / 1048576.0);
    std::printf("names found    : %zu / %zu\n", r.matches[0],
                feed_records);
    std::printf("marketplace pr : %zu\n", r.matches[1]);
    std::remove(path);
    return 0;
}
