/**
 * @file
 * bench_layers — the traced per-layer probe.
 *
 *   bench_layers PLAN TRACE_OUT
 *
 * Times calls into each layer's public functions over the benchmark's
 * own inputs and prints `{"metrics": {...}}` on stdout; every timed
 * call is also a span (name, start, end, id, parent, req) written to
 * TRACE_OUT.  PLAN is written by run.py, one tab-separated item a line:
 *
 *   large ID FILE EXPECT QUERY     a Table 5 query over a large record
 *   small ID FILE EXPECT QUERY     a small-record query over NDJSON
 *   set NAME BODY[,BODY...]        a multi-query set and its bodies
 *   setq NAME QUERY                one query of a set
 *
 * Public functions called (see README.md):
 *   kernels   kernels::runnable(), Kernel::raw_bits
 *   intervals intervals::classifyStringsBlock, intervals::ViewSource,
 *             StreamCursor::IngestStats (via StreamResult::ingest)
 *   ski       ski::Streamer::run (resident and ChunkSource),
 *             ski::MultiStreamer::run, FastForwardStats
 *   path      path::parse, path::QuerySet::fromTexts
 *   index     index::StructuralIndex::build, index::hashContent,
 *             StructuralIndex::memoryBytes, Streamer::runIndexed
 *
 * It is built only for traced runs and a failure here only drops the
 * per-layer metrics, so an API change in these layers cannot break the
 * end-to-end benchmark.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "index/structural_index.h"
#include "intervals/chunk_source.h"
#include "intervals/classifier.h"
#include "kernels/kernel.h"
#include "path/parser.h"
#include "path/queryset.h"
#include "ski/multi.h"
#include "ski/streamer.h"

using namespace jsonski;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kReps = 5;
constexpr size_t kChunkBytes = 64 * 1024;

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

struct Span
{
    std::string name;
    int64_t start, end;
    uint64_t id, parent, req;
};

/** In-memory span log; ids start at 1, parent 0 = root. */
class Tracer
{
  public:
    uint64_t
    open(std::string name, uint64_t parent, uint64_t req)
    {
        spans_.push_back({std::move(name), nowNs(), 0, spans_.size() + 1,
                          parent, req});
        return spans_.size();
    }

    /** Ends span @p id; returns its duration in seconds. */
    double
    close(uint64_t id)
    {
        Span& s = spans_[id - 1];
        s.end = nowNs();
        return static_cast<double>(s.end - s.start) / 1e9;
    }

    void
    write(const std::string& path) const
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            throw std::runtime_error("cannot write " + path);
        std::fputs("[\n", f);
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            std::fprintf(f,
                         "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":"
                         "%lld,\"id\":%llu,\"parent\":%lld,\"req\":%llu}"
                         "%s\n",
                         s.name.c_str(), static_cast<long long>(s.start),
                         static_cast<long long>(s.end),
                         static_cast<unsigned long long>(s.id),
                         s.parent == 0 ? -1LL
                                       : static_cast<long long>(s.parent),
                         static_cast<unsigned long long>(s.req),
                         i + 1 < spans_.size() ? "," : "");
        }
        std::fputs("]\n", f);
        std::fclose(f);
    }

  private:
    std::vector<Span> spans_;
};

Tracer g_trace;
volatile uint64_t g_sink = 0; // keeps timed results observable

/** Median over kReps of @p fn, each rep one span under @p parent. */
template <class F>
double
timed(const std::string& name, uint64_t parent, uint64_t req, F&& fn,
      int reps = kReps)
{
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        uint64_t id = g_trace.open(name, parent, req);
        fn();
        t.push_back(g_trace.close(id));
    }
    std::sort(t.begin(), t.end());
    return t[t.size() / 2];
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot open " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::vector<std::string>
split(const std::string& s, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    std::istringstream in(s);
    while (std::getline(in, cur, sep))
        out.push_back(cur);
    return out;
}

struct Query
{
    std::string id, file, text;
    size_t expect = 0;
};

struct Set
{
    std::string name;
    std::vector<std::string> bodies;
    std::vector<std::string> queries;
};

struct Plan
{
    std::vector<Query> large, small;
    std::vector<Set> sets;
};

Plan
loadPlan(const std::string& path)
{
    Plan p;
    for (const std::string& line : split(readFile(path), '\n')) {
        std::vector<std::string> f = split(line, '\t');
        if (f.empty())
            continue;
        if ((f[0] == "large" || f[0] == "small") && f.size() == 5)
            (f[0] == "large" ? p.large : p.small)
                .push_back({f[1], f[2], f[4], std::stoull(f[3])});
        else if (f[0] == "set" && f.size() == 3)
            p.sets.push_back({f[1], split(f[2], ','), {}});
        else if (f[0] == "setq" && f.size() == 3 && !p.sets.empty() &&
                 p.sets.back().name == f[1])
            p.sets.back().queries.push_back(f[2]);
        else
            throw std::runtime_error("bad plan line: " + line);
    }
    return p;
}

/** Reported metrics, plus the chunked ski time per query that run.py
 *  divides the service leg's request time by. */
struct Metrics
{
    std::map<std::string, double> metrics, direct_chunked_s;

    void set(const std::string& k, double v) { metrics[k] = v; }

    static std::string
    object(const std::map<std::string, double>& m)
    {
        std::string out = "{";
        for (const auto& [k, v] : m) {
            char b[64];
            std::snprintf(b, sizeof b, "%.9g", std::isfinite(v) ? v : 0.0);
            out += (out.size() > 1 ? ", \"" : "\"") + k + "\": " + b;
        }
        return out + "}";
    }

    std::string
    json() const
    {
        return "{\"metrics\": " + object(metrics) +
               ", \"direct_chunked_s\": " + object(direct_chunked_s) + "}";
    }
};

void
check(size_t got, size_t expect, const std::string& what)
{
    if (got != expect)
        throw std::runtime_error(what + ": " + std::to_string(got) +
                                 " matches, reference " +
                                 std::to_string(expect));
}

/** The distinct large files, loaded once. */
std::map<std::string, std::string>
loadFiles(const std::vector<Query>& qs)
{
    std::map<std::string, std::string> files;
    for (const Query& q : qs)
        if (!files.count(q.file))
            files[q.file] = readFile(q.file);
    return files;
}

void
probeKernels(const std::map<std::string, std::string>& files, Metrics& m)
{
    size_t bytes = 0;
    for (const auto& [_, d] : files)
        bytes += d.size() / 64 * 64;
    uint64_t root = g_trace.open("layers.kernels", 0, 0);
    for (const kernels::Kernel* k : kernels::runnable()) {
        double s = timed("kernels.raw_bits", root, 0, [&] {
            uint64_t acc = 0;
            for (const auto& [_, d] : files)
                for (size_t off = 0; off + 64 <= d.size(); off += 64) {
                    kernels::RawBits64 b = k->raw_bits(d.data() + off);
                    acc += b.quote ^ b.open_brace ^ b.comma ^ b.whitespace;
                }
            g_sink = g_sink + acc;
        }, 3);
        m.set(std::string("kernels.classify_gbps.") + k->name,
              static_cast<double>(bytes) / s / 1e9);
    }
    double s = timed("intervals.classifyStringsBlock", root, 0, [&] {
        uint64_t acc = 0;
        for (const auto& [_, d] : files) {
            intervals::ClassifierCarry carry;
            for (size_t off = 0; off + 64 <= d.size(); off += 64)
                acc += intervals::classifyStringsBlock(d.data() + off, carry)
                           .in_string;
        }
        g_sink = g_sink + acc;
    }, 3);
    m.set("intervals.string_layer_gbps", static_cast<double>(bytes) / s / 1e9);
    g_trace.close(root);
}

/** Resident, chunked and indexed runs of every large query; one
 *  document's index is held at a time (an index is 2-4.5x the text). */
void
probeLarge(const std::vector<Query>& qs,
           const std::map<std::string, std::string>& files, Metrics& m)
{
    uint64_t root = g_trace.open("layers.large", 0, 0);
    size_t doc_bytes = 0, index_bytes = 0;
    double build_s = 0, hash_s = 0, log_ratio = 0;
    uint64_t refills = 0, spill = 0;
    size_t window_peak = 0;
    ski::FastForwardStats groups;
    for (const auto& [path, d] : files) {
        index::StructuralIndex idx;
        build_s += timed("index.build", root, 0, [&] {
            idx = index::StructuralIndex::build(d);
        }, 3);
        hash_s += timed("index.hashContent", root, 0, [&] {
            g_sink = g_sink + index::hashContent(d);
        }, 3);
        doc_bytes += d.size();
        index_bytes += idx.memoryBytes();
        auto gbps = [&](double s) {
            return static_cast<double>(d.size()) / s / 1e9;
        };
        for (size_t i = 0; i < qs.size(); ++i) {
            const Query& q = qs[i];
            if (q.file != path)
                continue;
            ski::Streamer streamer(path::parse(q.text));
            ski::StreamResult r;
            double resident = timed("ski.Streamer.run", root, i, [&] {
                r = streamer.run(std::string_view(d));
            });
            check(r.matches, q.expect, q.id + " resident");
            groups.merge(r.stats);
            m.set("ski.resident_gbps." + q.id, gbps(resident));
            m.set("ski.ff_ratio." + q.id, r.stats.overallRatio(d.size()));

            double chunked = timed("ski.Streamer.run_chunked", root, i, [&] {
                intervals::ViewSource src(d);
                r = streamer.run(src, nullptr, kChunkBytes);
            });
            check(r.matches, q.expect, q.id + " chunked");
            m.direct_chunked_s[q.id] = chunked;
            log_ratio += std::log(chunked / resident);
            refills += r.ingest.refills;
            spill += r.ingest.spill_bytes;
            window_peak = std::max(window_peak, r.ingest.window_peak);

            double warm = timed("index.runIndexed", root, i, [&] {
                r = streamer.runIndexed(d, idx);
            });
            check(r.matches, q.expect, q.id + " indexed");
            m.set("index.warm_gbps." + q.id, gbps(warm));
        }
    }
    m.set("index.build_gbps", static_cast<double>(doc_bytes) / build_s / 1e9);
    m.set("index.hash_gbps", static_cast<double>(doc_bytes) / hash_s / 1e9);
    m.set("index.size_ratio", static_cast<double>(index_bytes) /
                                  static_cast<double>(doc_bytes));
    m.set("intervals.chunked_over_resident",
          std::exp(log_ratio / static_cast<double>(qs.size())));
    m.set("intervals.refills", static_cast<double>(refills));
    m.set("intervals.spill_bytes", static_cast<double>(spill));
    m.set("intervals.window_peak_kb", static_cast<double>(window_peak) / 1024);
    for (size_t g = 0; g < ski::kGroupCount; ++g)
        m.set("ski.g" + std::to_string(g + 1) + "_bytes",
              static_cast<double>(groups.skipped[g]));
    g_trace.close(root);
}

void
probeRecords(const std::vector<Query>& qs, Metrics& m)
{
    uint64_t root = g_trace.open("layers.records", 0, 0);
    std::string cur_path, text;
    std::vector<std::string_view> records;
    for (size_t i = 0; i < qs.size(); ++i) {
        const Query& q = qs[i];
        if (q.file != cur_path) {
            cur_path = q.file;
            text = readFile(q.file);
            records.clear();
            std::string_view all(text);
            for (size_t at = 0; at < all.size();) {
                size_t nl = std::min(all.find('\n', at), all.size());
                if (nl > at)
                    records.push_back(all.substr(at, nl - at));
                at = nl + 1;
            }
        }
        ski::Streamer streamer(path::parse(q.text));
        size_t n = 0;
        double s = timed("ski.Streamer.run_records", root, i, [&] {
            n = 0;
            for (std::string_view rec : records)
                n += streamer.run(rec).matches;
        });
        check(n, q.expect, q.id + " records");
        m.set("ski.records_gbps." + q.id,
              static_cast<double>(text.size()) / s / 1e9);
    }
    g_trace.close(root);
}

void
probeCompile(const std::string& name, const std::vector<std::string>& texts,
             bool as_set, Metrics& m)
{
    uint64_t root = g_trace.open("layers.compile", 0, 0);
    double s = timed("path.compile", root, 0, [&] {
        if (as_set) {
            ski::MultiStreamer ms(path::QuerySet::fromTexts(texts));
            g_sink = g_sink + ms.trieNodes();
        } else {
            for (const std::string& t : texts) {
                ski::Streamer st(path::parse(t));
                g_sink = g_sink + st.query().steps.size();
            }
        }
    }, 21);
    m.set("path.compile_us." + name, s * 1e6);
    g_trace.close(root);
}

void
probeSets(const std::vector<Set>& sets, Metrics& m)
{
    for (const Set& set : sets) {
        uint64_t root = g_trace.open("layers.multi", 0, 0);
        std::vector<std::string> bodies;
        for (const std::string& b : set.bodies)
            bodies.push_back(readFile(b));
        ski::MultiStreamer ms(path::QuerySet::fromTexts(set.queries));
        std::vector<size_t> multi_counts(ms.queryCount());
        double multi = timed("ski.MultiStreamer.run", root, 0, [&] {
            std::fill(multi_counts.begin(), multi_counts.end(), 0);
            for (const std::string& b : bodies) {
                auto r = ms.run(std::string_view(b));
                for (size_t q = 0; q < r.matches.size(); ++q)
                    multi_counts[q] += r.matches[q];
            }
        });
        std::vector<ski::Streamer> solos;
        for (const std::string& t : set.queries)
            solos.emplace_back(path::parse(t));
        std::vector<size_t> solo_counts(solos.size());
        double solo = timed("ski.Streamer.run_solo", root, 0, [&] {
            std::fill(solo_counts.begin(), solo_counts.end(), 0);
            for (size_t q = 0; q < solos.size(); ++q)
                for (const std::string& b : bodies)
                    solo_counts[q] += solos[q].run(std::string_view(b)).matches;
        });
        const path::QuerySet& qs = ms.querySet();
        for (size_t i = 0; i < set.queries.size(); ++i)
            check(multi_counts[qs.id_of[i]], solo_counts[i],
                  set.name + " query " + std::to_string(i) + " batched");
        m.set("ski.multi_ms." + set.name, multi * 1e3);
        m.set("ski.multi_over_solo." + set.name, multi / solo);
        g_trace.close(root);
        probeCompile(set.name, set.queries, true, m);
    }
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc != 3) {
        std::fprintf(stderr, "usage: bench_layers PLAN TRACE_OUT\n");
        return 2;
    }
    try {
        Plan plan = loadPlan(argv[1]);
        Metrics m;
        auto texts = [](const std::vector<Query>& qs) {
            std::vector<std::string> t;
            for (const Query& q : qs)
                t.push_back(q.text);
            return t;
        };
        {
            std::map<std::string, std::string> files = loadFiles(plan.large);
            probeKernels(files, m);
            probeLarge(plan.large, files, m);
        }
        probeRecords(plan.small, m);
        probeCompile("paper", texts(plan.large), false, m);
        probeCompile("small", texts(plan.small), false, m);
        probeSets(plan.sets, m);
        g_trace.write(argv[2]);
        std::printf("%s\n", m.json().c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_layers: %s\n", e.what());
        return 1;
    }
    return 0;
}
