/**
 * @file
 * Open-loop load generator for jsqd (DESIGN.md §12).
 *
 * Two pieces behind the jsqload CLI:
 *
 * LatencyHistogram — an HDR-style log-linear histogram of microsecond
 * latencies: each power-of-two octave is split into 64 linear
 * sub-buckets, so the relative quantization error is bounded (< 1/64)
 * at every magnitude while the whole structure is a few KB of fixed
 * counters.  Values below 128 µs are recorded exactly.  Histograms
 * merge, so per-connection recordings combine into one distribution
 * without storing individual samples.
 *
 * runLoad() — drives a jsqd endpoint with concurrent connections in
 * either of two modes:
 *
 *  - open loop (qps > 0): request i is *scheduled* at
 *    `start + i/qps`, and its latency is measured from the scheduled
 *    start, not the actual send.  A server that stalls therefore
 *    accrues the queueing delay into the recorded latencies instead of
 *    silently slowing the offered load (the coordinated-omission trap
 *    closed-loop harnesses fall into).
 *
 *  - closed loop (qps == 0): each connection fires back-to-back
 *    requests; latency is per-request round trip.  This measures
 *    capacity, not tail behaviour under a fixed offered rate.
 *
 * Every request is one connection (the jsq/1 protocol is one request
 * per connection), length-framed, and counts as ok only when the
 * trailer arrives with ok=true.
 */
#ifndef JSONSKI_SERVICE_LOADGEN_H
#define JSONSKI_SERVICE_LOADGEN_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace jsonski::service {

/** See file comment. */
class LatencyHistogram
{
  public:
    static constexpr int kSubBuckets = 64; // per octave, linear

    LatencyHistogram() : buckets_(kBucketCount, 0) {}

    void record(uint64_t us);
    void merge(const LatencyHistogram& other);

    uint64_t count() const { return count_; }
    uint64_t maxValue() const { return max_; }

    /**
     * Smallest recorded-value upper bound covering @p p percent of the
     * samples (p in [0, 100]); 0 when empty.  Quantization rounds *up*
     * to the bucket's top, so a reported percentile never understates.
     */
    uint64_t percentile(double p) const;

  private:
    // Octaves 7..63 each hold kSubBuckets; [0, 128) is exact.
    static constexpr size_t kBucketCount =
        128 + (63 - 6) * static_cast<size_t>(kSubBuckets);

    static size_t bucketOf(uint64_t v);
    static uint64_t bucketTop(size_t b);

    std::vector<uint64_t> buckets_;
    uint64_t count_ = 0;
    uint64_t max_ = 0;
};

/** One load run's shape. */
struct LoadOptions
{
    std::string host = "127.0.0.1";
    uint16_t port = 0;

    /** Query list sent in every request header. */
    std::string query = "$[*]";

    /** Request body, sent length-framed. */
    std::string body;

    /** Suppress match frames (count only) — measures the engine, not
     *  the response serialization. */
    bool count_only = true;

    /** Target offered rate across all connections; 0 = closed loop. */
    double qps = 0;

    /** Run length. */
    int duration_ms = 1000;

    /** Concurrent client connections (threads). */
    size_t connections = 1;
};

/** What one load run observed. */
struct LoadResult
{
    uint64_t attempted = 0; ///< requests started
    uint64_t ok = 0;        ///< trailer arrived with ok=true
    uint64_t errors = 0;    ///< severed, timed out, or error trailer
    uint64_t matches = 0;   ///< total match count across ok requests
    double elapsed_s = 0;
    double throughput_rps = 0; ///< ok / elapsed

    /** Microseconds; from the scheduled start in open-loop mode. */
    LatencyHistogram latency;
};

/** Run one load shape against a live endpoint.  Blocks until done. */
LoadResult runLoad(const LoadOptions& options);

} // namespace jsonski::service

#endif // JSONSKI_SERVICE_LOADGEN_H
