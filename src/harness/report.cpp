#include "harness/report.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "json/writer.h"
#include "kernels/kernel.h"

namespace jsonski::harness {

namespace {

std::string
renderNumber(double v)
{
    if (!std::isfinite(v))
        return "0"; // JSON has no inf/nan; a bench metric never should
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

std::string
renderNumber(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
renderString(std::string_view s)
{
    json::Writer w;
    w.string(s);
    return w.take();
}

} // namespace

void
BenchReport::beginRow(std::string_view query, std::string_view engine)
{
    Row r;
    r.query = query;
    r.engine = engine;
    rows_.push_back(std::move(r));
}

void
BenchReport::rawField(std::string_view name, std::string json_value)
{
    assert(!rows_.empty() && "beginRow() before attaching metrics");
    rows_.back().fields.emplace_back(std::string(name),
                                     std::move(json_value));
}

void
BenchReport::metric(std::string_view name, double value)
{
    rawField(name, renderNumber(value));
}

void
BenchReport::metric(std::string_view name, uint64_t value)
{
    rawField(name, renderNumber(value));
}

void
BenchReport::text(std::string_view name, std::string_view value)
{
    rawField(name, renderString(value));
}

void
BenchReport::timing(const Timing& t, size_t bytes_processed)
{
    metric("seconds", t.seconds);
    metric("median_seconds", t.median);
    metric("rel_stddev", t.rel_stddev);
    metric("runs", static_cast<uint64_t>(t.runs));
    metric("matches", static_cast<uint64_t>(t.matches));
    if (t.seconds > 0 && bytes_processed > 0) {
        metric("gbps", static_cast<double>(bytes_processed) / t.seconds /
                           1e9);
    }
}

void
BenchReport::ffStats(const ski::FastForwardStats& s, size_t input_len)
{
    json::Writer w;
    w.beginObject();
    for (size_t g = 0; g < ski::kGroupCount; ++g) {
        w.key("G" + std::to_string(g + 1));
        w.number(static_cast<int64_t>(s.skipped[g]));
    }
    for (size_t g = 0; g < ski::kGroupCount; ++g) {
        w.key("G" + std::to_string(g + 1) + "_ratio");
        w.number(s.ratio(static_cast<ski::Group>(g), input_len));
    }
    w.key("overall_ratio");
    w.number(s.overallRatio(input_len));
    w.endObject();
    rawField("ff", w.take());
}

std::string
BenchReport::toJson() const
{
    json::Writer w;
    w.beginObject();
    w.key("schema");
    w.string("jsonski-bench-v1");
    w.key("artifact");
    w.string(artifact_);
    w.key("description");
    w.string(description_);
    w.key("input_bytes");
    w.number(static_cast<int64_t>(input_bytes_));
    w.key("threads");
    w.number(static_cast<int64_t>(threads_));
    w.key("kernel");
    w.string(kernels::activeName());
    w.key("rows");
    w.beginArray();
    for (const Row& row : rows_) {
        w.beginObject();
        w.key("query");
        w.string(row.query);
        w.key("engine");
        w.string(row.engine);
        for (const auto& [name, value] : row.fields) {
            w.key(name);
            w.raw(value);
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.take();
}

bool
BenchReport::write() const
{
    // Flush the table before any error line, so the line cannot land
    // inside it when stdout and stderr share a file.
    auto fail = [](const char* what, const std::string& path) {
        std::fflush(stdout);
        std::fprintf(stderr, "bench report: %s %s\n", what, path.c_str());
        return false;
    };
    std::string dir;
    if (const char* env = std::getenv("JSONSKI_BENCH_JSON_DIR"))
        dir = env;
    std::error_code ec;
    if (!dir.empty())
        std::filesystem::create_directories(dir, ec); // fopen reports
    std::string path = dir.empty()
                           ? "BENCH_" + artifact_ + ".json"
                           : dir + "/BENCH_" + artifact_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return fail("cannot write", path);
    std::string body = toJson();
    size_t n = std::fwrite(body.data(), 1, body.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    if (n != body.size())
        return fail("short write to", path);
    std::printf("[bench json: %s]\n", path.c_str());
    return true;
}

} // namespace jsonski::harness
