/**
 * @file
 * jsqd — the streaming JSONPath query daemon (DESIGN.md §10, §12).
 *
 * Topology: N event-loop *shards* (ServerConfig::shards; 1 preserves
 * the original single-loop topology).  Each shard owns its own
 * readiness multiplexer (epoll on Linux, poll fallback), its own
 * accept path, its own worker pool, its own plan-cache and
 * document-index-cache partitions, and its own counters — a
 * connection is pinned to
 * one shard for its whole life, so hot sockets never bounce between
 * cores and the per-request hot path takes no cross-shard lock.
 *
 * Accept strategy (DESIGN.md §12): on Linux every shard binds its own
 * SO_REUSEPORT listener and the kernel spreads incoming connections;
 * elsewhere — and under force_poll, so the path stays tested on Linux
 * CI — shard 0 owns the single listener and hands accepted fds to the
 * shards round-robin through their wake pipes.  adoptConnection()
 * round-robins injected fds the same way.
 *
 * The moment a connection shows its first request byte its shard hands
 * it to the shard's worker pool; the worker runs the whole request —
 * bounded header read, plan-cache lookup, one Plan::run streaming
 * directly over a SocketChunkSource (the body is never materialized;
 * only a `doc=` body is, for the index cache), incremental match
 * frames, status trailer — and closes the connection.  One request
 * per connection keeps the protocol EOF-framable and the state machine
 * worker-local.
 *
 * Robustness envelope, all per connection and all *absolute* deadlines
 * (util/deadline.h — progress never re-arms a window, so slow-loris
 * drip-feeding expires on schedule): the header line is capped
 * (max_header_bytes) and must arrive within read_deadline_ms; the
 * whole body must stream within its own read_deadline_ms envelope;
 * each write-queue flush must complete within write_deadline_ms, so a
 * slow *reader* is back-pressured and eventually rejected instead of
 * ballooning server memory; the body size and match count are capped.
 * Every rejection is a typed trailer carrying an ErrorCode
 * (util/error.h).  The accept path uses accept4(SOCK_CLOEXEC) where
 * available and answers fd exhaustion (EMFILE/ENFILE) by reaping idle
 * connections and pausing the listener briefly instead of busy-
 * spinning the level-triggered fd.
 *
 * Observability: each request bumps its shard's counters, the bytes
 * its ok trailer reports as fast-forwarded per group included; a
 * `jsq/1 !stats` request sums them *across* shards at scrape time and
 * answers with a Prometheus text page (server totals, per-shard
 * gauges, plan-cache totals, skipped bytes per group).
 *
 * Shutdown: requestStop() is async-signal-safe (it writes one byte to
 * every shard's wake pipe); each shard then stops accepting, closes
 * idle connections, lets in-flight requests finish, and joins its
 * workers — the graceful SIGTERM drain the CI smoke leg asserts.
 */
#ifndef JSONSKI_SERVICE_SERVER_H
#define JSONSKI_SERVICE_SERVER_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "index/index_cache.h"
#include "service/plan_cache.h"
#include "ski/stats.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace jsonski::service {

/** Tunables; the defaults serve tests and small deployments. */
struct ServerConfig
{
    /** TCP port to listen on; 0 picks an ephemeral port. */
    uint16_t port = 0;

    /** Listen address. */
    std::string bind_addr = "127.0.0.1";

    /**
     * Event-loop shards; 0 = one per hardware thread.  1 preserves the
     * single-loop topology (and exact plan-cache counter determinism,
     * since all requests share one partition).
     */
    size_t shards = 0;

    /** Worker threads evaluating requests, per shard. */
    size_t workers = 4;

    /** Request header line cap, bytes. */
    size_t max_header_bytes = 4096;

    /** Request body cap, bytes; 0 = unlimited. */
    size_t max_body_bytes = 0;

    /**
     * Cap on queries per request (header list plus query= continuation
     * lines).  Oversized lists are rejected with TooManyQueries before
     * any continuation line is read, so a hostile header can't make the
     * server buffer an unbounded query set.
     */
    size_t max_queries = 1024;

    /** Server-imposed cap on matches per request; 0 = unlimited. */
    size_t max_matches = 0;

    /**
     * Absolute envelope for the header read and (separately re-armed)
     * for the whole body stream; 0 = no deadline.
     */
    int read_deadline_ms = 10000;

    /** Absolute envelope for each write-queue flush to a slow reader. */
    int write_deadline_ms = 10000;

    /** Accepted connection must show its first byte within this. */
    int idle_deadline_ms = 10000;

    /** Listener pause after EMFILE/ENFILE before re-accepting. */
    int accept_backoff_ms = 100;

    /** Cursor refill granularity for body streaming. */
    size_t chunk_bytes = size_t{64} << 10;

    /** Compiled plans retained across all shards' partitions. */
    size_t plan_cache_capacity = 64;

    /**
     * Resident structural-index bytes retained across all shards'
     * document-index cache partitions (DESIGN.md §14); 0 disables the
     * doc= path entirely (such requests stream with index=none).
     */
    size_t doc_cache_bytes = size_t{64} << 20;

    /**
     * Cap on a doc= request's body, which must be held resident for
     * hashing and warm evaluation (independent of max_body_bytes, which
     * governs the never-materialized streaming path).
     */
    size_t max_doc_bytes = size_t{8} << 20;

    /** Write-queue flush threshold (bounds per-connection buffering). */
    size_t write_queue_bytes = size_t{256} << 10;

    /**
     * Use the poll() event loop even where epoll is available.  Also
     * selects the round-robin fd-handoff accept path instead of
     * SO_REUSEPORT, so both fallbacks stay exercised on Linux.
     */
    bool force_poll = false;
};

/** Monotonic server-wide counters (snapshot; summed across shards). */
struct ServerStats
{
    uint64_t connections_total = 0;
    uint64_t requests_total = 0;   ///< header successfully parsed
    uint64_t responses_ok = 0;
    uint64_t responses_error = 0;  ///< error trailer sent
    uint64_t rejected_bad_request = 0;
    uint64_t rejected_header_too_large = 0;
    uint64_t rejected_deadline = 0;    ///< read/write/idle deadline
    uint64_t rejected_too_large = 0;   ///< body byte cap
    uint64_t rejected_too_many_queries = 0; ///< query-set cap
    uint64_t multi_query_requests = 0; ///< requests with >1 query
    uint64_t stats_requests = 0;
    uint64_t idle_closed = 0;      ///< closed with no request byte
    uint64_t accept_errors = 0;    ///< accept()/poller-add failures
    uint64_t accept_backoffs = 0;  ///< EMFILE/ENFILE pauses taken
    uint64_t bytes_in_total = 0;   ///< request body bytes consumed
    uint64_t bytes_out_total = 0;  ///< response bytes written
    /** Bytes fast-forwarded per group G1..G5: the sum of the `ff`
     *  fields of every ok trailer. */
    ski::FastForwardStats skipped;

    ServerStats& operator+=(const ServerStats& o);
};

/** See file comment. */
class Server
{
  public:
    explicit Server(ServerConfig config = {});
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /**
     * Bind, listen, and spawn the shard loops + workers.
     * @throws std::runtime_error when the sockets cannot be set up.
     */
    void start();

    /** Bound port (after start()); useful with config.port == 0. */
    uint16_t port() const { return port_; }

    /** Resolved shard count (config.shards, or the auto default). */
    size_t shardCount() const { return shards_.size(); }

    /**
     * Request a graceful drain.  Async-signal-safe: may be called from
     * a SIGTERM handler.  Returns immediately; pair with waitStopped().
     */
    void requestStop() noexcept;

    /** Block until the drain completes and all threads are joined. */
    void waitStopped();

    /** requestStop() + waitStopped(). */
    void stop();

    /**
     * Hand an already-connected descriptor (e.g. one end of a
     * socketpair) to a shard (round-robin), bypassing accept().  The
     * server takes ownership of @p fd.  This is the loopback test
     * harness's injection point — the full request path, shard loop
     * included, runs without any listening socket involved.
     *
     * @return false (fd closed) when the server is draining.
     */
    bool adoptConnection(int fd);

    /** Counter snapshot, summed across shards. */
    ServerStats stats() const;

    /**
     * Shard 0's plan-cache partition.  Exact totals for shards == 1
     * (the deterministic-counter tests pin that); use
     * planCacheTotals() for the cross-shard sums.
     */
    const PlanCache& planCache() const;

    /** Plan-cache counters summed across every shard's partition. */
    PlanCacheStats planCacheTotals() const;

    /** Document-index-cache counters summed across every shard. */
    index::DocumentIndexCacheStats docCacheTotals() const;

    /**
     * The Prometheus text page a `!stats` request answers with:
     * summed server counters, per-shard gauges, plan-cache totals, and
     * the bytes every ok request fast-forwarded, per group.
     */
    std::string metricsText() const;

  private:
    struct Shard;

    void shardLoop(Shard& shard);
    void handleConnection(Shard& shard, int fd);
    void bumpOk(Shard& shard, uint64_t bytes_in, uint64_t bytes_out,
                const ski::FastForwardStats& ff);
    void bumpError(Shard& shard, uint64_t bytes_in, uint64_t bytes_out,
                   ErrorCode code);

    ServerConfig config_;
    std::vector<std::unique_ptr<Shard>> shards_;
    uint16_t port_ = 0;

    std::atomic<bool> stopping_{false};
    std::atomic<bool> started_{false};
    std::atomic<uint64_t> next_adopt_{0};
};

} // namespace jsonski::service

#endif // JSONSKI_SERVICE_SERVER_H
