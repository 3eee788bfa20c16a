/**
 * @file
 * bench_inputs — workload inputs and their reference answers.
 *
 *   bench_inputs large DATASET BYTES SEED OUT   one large record (src/gen)
 *   bench_inputs small DATASET BYTES SEED OUT   NDJSON small records
 *   bench_inputs count < JOBS                   DOM-baseline match counts
 *
 * Each JOBS line is `doc|records <TAB> PATH <TAB> QUERY`; the answer is
 * one count per line, in order.  `doc` parses PATH as one document,
 * `records` as one record per line and sums the per-record counts.
 * Consecutive jobs on the same PATH reuse the parsed tree.
 *
 * The reference is the DOM baseline (parse, then walk), which shares
 * no code with the streaming engine above the JSON text utilities, so
 * the benchmark checks jsq and jsqd against an independent answer.
 */
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "baseline/dom/parser.h"
#include "baseline/dom/query.h"
#include "gen/datasets.h"
#include "path/parser.h"

using namespace jsonski;

namespace {

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: bench_inputs large|small DATASET BYTES SEED OUT\n"
                 "       bench_inputs count < JOBS\n");
    std::exit(2);
}

gen::DatasetId
datasetByName(const std::string& name)
{
    for (gen::DatasetId id : gen::kAllDatasets)
        if (gen::datasetName(id) == name)
            return id;
    std::fprintf(stderr, "bench_inputs: unknown dataset '%s'\n",
                 name.c_str());
    std::exit(2);
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

void
writeFile(const std::string& path, const std::string& data)
{
    std::ofstream out(path, std::ios::binary);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

/** The parsed documents of one input file (one per record). */
struct Parsed
{
    std::string path;
    bool records = false;
    std::string text;
    std::deque<dom::Document> docs;
};

std::unique_ptr<Parsed>
parseInput(const std::string& path, bool records)
{
    auto p = std::make_unique<Parsed>();
    p->path = path;
    p->records = records;
    p->text = readFile(path);
    std::string_view all(p->text);
    if (!records) {
        dom::parse(all, p->docs.emplace_back());
        return p;
    }
    size_t start = 0;
    while (start < all.size()) {
        size_t nl = all.find('\n', start);
        if (nl == std::string_view::npos)
            nl = all.size();
        if (nl > start)
            dom::parse(all.substr(start, nl - start),
                       p->docs.emplace_back());
        start = nl + 1;
    }
    return p;
}

int
countJobs()
{
    std::unique_ptr<Parsed> cur;
    std::string line;
    while (std::getline(std::cin, line)) {
        size_t t1 = line.find('\t');
        size_t t2 = t1 == std::string::npos ? t1 : line.find('\t', t1 + 1);
        if (t2 == std::string::npos)
            throw std::runtime_error("bad job line: " + line);
        std::string mode = line.substr(0, t1);
        std::string path = line.substr(t1 + 1, t2 - t1 - 1);
        path::PathQuery query = path::parse(line.substr(t2 + 1));
        bool records = mode == "records";
        if (!records && mode != "doc")
            throw std::runtime_error("bad job mode: " + mode);
        if (!cur || cur->path != path || cur->records != records) {
            cur.reset(); // free the previous tree before parsing the next
            cur = parseInput(path, records);
        }
        size_t n = 0;
        for (const dom::Document& d : cur->docs)
            n += dom::evaluate(d.root(), query);
        std::printf("%zu\n", n);
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        if (argc == 2 && std::string(argv[1]) == "count")
            return countJobs();
        if (argc != 6)
            usage();
        std::string kind = argv[1];
        gen::DatasetId id = datasetByName(argv[2]);
        size_t bytes = std::strtoull(argv[3], nullptr, 10);
        uint64_t seed = std::strtoull(argv[4], nullptr, 10);
        if (kind == "large")
            writeFile(argv[5], gen::generateLarge(id, bytes, seed));
        else if (kind == "small")
            writeFile(argv[5], gen::generateSmall(id, bytes, seed).buffer);
        else
            usage();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_inputs: %s\n", e.what());
        return 1;
    }
    return 0;
}
