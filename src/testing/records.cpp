#include "testing/records.h"

#include <optional>

#include "intervals/chunk_source.h"
#include "path/matches.h"
#include "ski/multi.h"
#include "testing/record_scanner.h"

namespace jsonski::testing {
namespace {

/** Collects (distinct query, value) pairs from either engine. */
class ValueSink final : public ski::MultiSink, public path::MatchSink
{
  public:
    explicit ValueSink(RecordsRun& run) : run_(run) {}

    void onMatch(std::string_view value) override { onMatch(0, value); }

    void
    onMatch(size_t qi, std::string_view value) override
    {
        run_.values.emplace_back(qi, std::string(value));
    }

  private:
    RecordsRun& run_;
};

void
fail(RecordsRun& run, const ParseError& e, size_t offset)
{
    run.threw = true;
    run.code = e.code();
    run.position = offset + e.position();
    run.what = e.what();
}

} // namespace

RecordsRun
runRecords(const service::Plan& plan, std::string_view stream, size_t chunk)
{
    RecordsRun run;
    ValueSink sink(run);
    size_t n = chunk == 0 ? stream.size() + 1 : chunk;
    intervals::SplitSource src(stream, n);
    try {
        run.result = plan.run(src, sink, n, /*records=*/true);
    } catch (const ParseError& e) {
        fail(run, e, 0);
    }
    return run;
}

RecordsRun
recordsOracle(const service::Plan& plan, std::string_view stream)
{
    RecordsRun run;
    ValueSink sink(run);
    std::vector<std::pair<size_t, size_t>>& spans = run.spans;
    std::optional<ParseError> scan_error;
    try {
        spans = scanRecords(stream);
    } catch (const ParseError& e) {
        // The records the scanner completed before its error.
        scan_error = e;
        size_t tail = 0;
        spans = scanRecords(stream.substr(0, e.position()), &tail);
    }
    service::RunResult& r = run.result;
    r.matches.assign(plan.queryCount(), 0);
    r.per_query.assign(plan.queryCount(), ski::FastForwardStats{});
    r.input_bytes = stream.size();
    for (auto [start, len] : spans) {
        std::string_view record = stream.substr(start, len);
        ++r.records;
        try {
            if (plan.single) {
                ski::StreamResult one = plan.single->run(record, &sink);
                r.matches[0] += one.matches;
                r.stats.merge(one.stats);
            } else {
                ski::MultiStreamer::Result one =
                    plan.multi->run(record, &sink);
                for (size_t qi = 0; qi < one.matches.size(); ++qi) {
                    r.matches[qi] += one.matches[qi];
                    r.per_query[qi].merge(one.per_query[qi]);
                }
                r.stats.merge(one.stats);
            }
        } catch (const ParseError& e) {
            fail(run, e, start);
            return run;
        }
    }
    if (scan_error)
        fail(run, *scan_error, 0);
    return run;
}

} // namespace jsonski::testing
