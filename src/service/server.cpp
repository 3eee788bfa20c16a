#include "service/server.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/epoll.h>
#endif

#include "intervals/chunk_source.h"
#include "kernels/kernel.h"
#include "service/protocol.h"
#include "ski/sinks.h"
#include "util/deadline.h"

namespace jsonski::service {

namespace {

using Clock = std::chrono::steady_clock;

void
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void
setCloexec(int fd)
{
    int flags = ::fcntl(fd, F_GETFD, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

/**
 * accept() wrapper: accept4(SOCK_CLOEXEC | SOCK_NONBLOCK) where the
 * platform has it, the portable two-syscall fallback elsewhere.
 */
int
acceptConn(int listen_fd)
{
#ifdef __linux__
    return ::accept4(listen_fd, nullptr, nullptr,
                     SOCK_CLOEXEC | SOCK_NONBLOCK);
#else
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
        setCloexec(fd);
        setNonBlocking(fd);
    }
    return fd;
#endif
}

/**
 * Close @p fd without losing the response: when the server ends a
 * request early (rejection, malformed body) the client may still be
 * sending, and a plain close() with unread bytes in the receive queue
 * RSTs the connection — destroying the already-sent trailer on the
 * client side.  Half-close the write side first and drain incoming
 * bytes until the peer's EOF or a short deadline.
 */
void
lingeringClose(int fd, int deadline_ms)
{
    ::shutdown(fd, SHUT_WR);
    char buf[4096];
    Clock::time_point end =
        Clock::now() + std::chrono::milliseconds(deadline_ms);
    for (;;) {
        auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        end - Clock::now())
                        .count();
        if (left <= 0)
            break;
        pollfd pfd{fd, POLLIN, 0};
        int pr = ::poll(&pfd, 1, static_cast<int>(left));
        if (pr <= 0)
            break;
        ssize_t n = ::read(fd, buf, sizeof buf);
        if (n == 0)
            break;
        if (n < 0 && errno != EINTR && errno != EAGAIN &&
            errno != EWOULDBLOCK)
            break;
    }
    ::close(fd);
}

/**
 * Readiness multiplexer for a shard loop: epoll on Linux, poll()
 * everywhere else.  The poll variant stays compiled (and runtime-
 * selectable via ServerConfig::force_poll) on Linux too, so the
 * fallback is continuously exercised by the test suite.
 *
 * add() reports failure instead of swallowing it: an EPOLL_CTL_ADD
 * that fails (ENOSPC, ENOMEM) would otherwise leave the connection
 * silently untracked — the fd leaks and the client hangs forever.
 */
class Poller
{
  public:
    virtual ~Poller() = default;

    /** @return false when the fd could not be registered. */
    [[nodiscard]] virtual bool add(int fd) = 0;

    /** @return false when the fd was not deregistered (already gone). */
    virtual bool remove(int fd) = 0;

    /** Wait up to @p timeout_ms (-1 = forever); fds ready to read. */
    virtual void wait(int timeout_ms, std::vector<int>& ready) = 0;
};

class PollPoller final : public Poller
{
  public:
    bool
    add(int fd) override
    {
        fds_.push_back(pollfd{fd, POLLIN, 0});
        return true;
    }

    bool
    remove(int fd) override
    {
        size_t before = fds_.size();
        fds_.erase(std::remove_if(fds_.begin(), fds_.end(),
                                  [fd](const pollfd& p) {
                                      return p.fd == fd;
                                  }),
                   fds_.end());
        return fds_.size() != before;
    }

    void
    wait(int timeout_ms, std::vector<int>& ready) override
    {
        ready.clear();
        int n = ::poll(fds_.data(), fds_.size(), timeout_ms);
        if (n <= 0)
            return;
        for (const pollfd& p : fds_)
            if ((p.revents & (POLLIN | POLLHUP | POLLERR)) != 0)
                ready.push_back(p.fd);
    }

  private:
    std::vector<pollfd> fds_;
};

#ifdef __linux__
class EpollPoller final : public Poller
{
  public:
    EpollPoller() : epfd_(::epoll_create1(EPOLL_CLOEXEC))
    {
        if (epfd_ < 0)
            throw std::runtime_error("epoll_create1 failed");
    }

    ~EpollPoller() override { ::close(epfd_); }

    bool
    add(int fd) override
    {
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        return ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) == 0;
    }

    bool
    remove(int fd) override
    {
        return ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr) == 0;
    }

    void
    wait(int timeout_ms, std::vector<int>& ready) override
    {
        ready.clear();
        epoll_event events[64];
        int n = ::epoll_wait(epfd_, events, 64, timeout_ms);
        for (int i = 0; i < n; ++i)
            ready.push_back(events[i].data.fd);
    }

  private:
    int epfd_;
};
#endif

std::unique_ptr<Poller>
makePoller(bool force_poll)
{
#ifdef __linux__
    if (!force_poll) {
        try {
            return std::make_unique<EpollPoller>();
        } catch (const std::runtime_error&) {
            // epoll_create1 can fail under fd exhaustion; the poll()
            // variant needs no descriptor of its own, so degrade
            // rather than losing the shard.
        }
    }
#else
    (void)force_poll;
#endif
    return std::make_unique<PollPoller>();
}

/** SO_REUSEPORT accept sharding, or the round-robin handoff fallback?
 *  force_poll selects the fallback even on Linux so both accept paths
 *  stay continuously exercised by the same CI. */
bool
useReusePortAccept(const ServerConfig& config)
{
#ifdef __linux__
    return !config.force_poll;
#else
    (void)config;
    return false;
#endif
}

int
makeListener(const std::string& bind_addr, uint16_t port, bool reuseport)
{
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        throw std::runtime_error("socket() failed");
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
#ifdef SO_REUSEPORT
    if (reuseport &&
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) !=
            0) {
        int err = errno;
        ::close(fd);
        throw std::runtime_error("SO_REUSEPORT failed: " +
                                 std::string(std::strerror(err)));
    }
#else
    (void)reuseport;
#endif
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, bind_addr.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        throw std::runtime_error("bad bind address " + bind_addr);
    }
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        int err = errno;
        ::close(fd);
        throw std::runtime_error("bind failed: " +
                                 std::string(std::strerror(err)));
    }
    if (::listen(fd, 128) != 0) {
        ::close(fd);
        throw std::runtime_error("listen failed");
    }
    setNonBlocking(fd);
    return fd;
}

uint16_t
boundPort(int listen_fd)
{
    sockaddr_in addr{};
    socklen_t len = sizeof addr;
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
    return ntohs(addr.sin_port);
}

/**
 * Thrown internally when the connection itself is unusable (write
 * deadline to a slow reader, socket error): no trailer can be
 * delivered, the connection is just torn down and counted.
 */
struct WriterDead
{
    ErrorCode code;
};

/**
 * Bounded outgoing queue: append() buffers up to the flush threshold,
 * then pushes to the socket.  Each flush() runs under an *absolute*
 * deadline armed when the flush starts: a reader draining one byte per
 * poll window makes progress but never resets the clock, so the flush
 * still expires on schedule (the write-side slow-loris fix — the old
 * per-poll timeout restarted on every drained byte).  This is the
 * slow-reader backpressure contract: buffering is capped, and a client
 * that cannot drain a flush within the deadline gets the connection
 * dropped instead of growing the queue without bound.
 */
class ConnWriter
{
  public:
    ConnWriter(int fd, size_t flush_threshold, int deadline_ms)
        : fd_(fd), threshold_(flush_threshold), deadline_ms_(deadline_ms)
    {}

    void
    append(std::string_view data)
    {
        buf_.append(data);
        if (buf_.size() >= threshold_)
            flush();
    }

    void
    flush()
    {
        Deadline deadline = Deadline::after(deadline_ms_);
        size_t off = 0;
        while (off < buf_.size()) {
            ssize_t n = ::send(fd_, buf_.data() + off, buf_.size() - off,
                               MSG_NOSIGNAL);
            if (n > 0) {
                off += static_cast<size_t>(n);
                total_ += static_cast<uint64_t>(n);
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                if (deadline.expired())
                    throw WriterDead{ErrorCode::DeadlineExpired};
                pollfd pfd{fd_, POLLOUT, 0};
                int pr = ::poll(&pfd, 1, deadline.pollTimeoutMs());
                if (pr == 0)
                    throw WriterDead{ErrorCode::DeadlineExpired};
                if (pr < 0 && errno != EINTR)
                    throw WriterDead{ErrorCode::IoError};
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            throw WriterDead{ErrorCode::IoError};
        }
        buf_.clear();
    }

    uint64_t total() const { return total_; }

  private:
    int fd_;
    std::string buf_;
    size_t threshold_;
    int deadline_ms_;
    uint64_t total_ = 0;
};

/** Serves exactly @p length bytes of @p inner, then reports EOF (the
 *  length-prefixed body framing). */
class BoundedSource final : public intervals::ChunkSource
{
  public:
    BoundedSource(intervals::ChunkSource& inner, size_t length)
        : inner_(inner), remaining_(length)
    {}

    size_t
    read(char* dst, size_t cap) override
    {
        if (remaining_ == 0)
            return 0;
        size_t n = inner_.read(dst, std::min(cap, remaining_));
        remaining_ -= n;
        return n;
    }

  private:
    intervals::ChunkSource& inner_;
    size_t remaining_;
};

/**
 * Match receiver for every request: frames each match onto the wire
 * (unless count-only), tagged with the representative request position
 * of its distinct query, so a request repeating a query sees frames
 * tagged with the first position that asked for it.  It enforces the
 * client's `limit=` via StopStreaming (a successful early end) and the
 * server's max_matches cap via ParseError(MatchLimitExceeded) (a typed
 * rejection).  The MatchSink side serves the doc= warm path.
 */
class WireSink final : public path::MatchSink, public ski::MultiSink
{
  public:
    WireSink(ConnWriter& writer, bool count_only, size_t client_limit,
             size_t server_cap, std::vector<size_t> tags)
        : writer_(writer),
          count_only_(count_only),
          client_limit_(client_limit),
          server_cap_(server_cap),
          tags_(std::move(tags))
    {}

    void
    onMatch(std::string_view value) override
    {
        onMatch(0, value);
    }

    void
    onMatch(size_t qi, std::string_view value) override
    {
        if (server_cap_ != 0 && count >= server_cap_)
            throw ParseError(ErrorCode::MatchLimitExceeded,
                             "server match cap reached", 0);
        ++count;
        if (!count_only_)
            writer_.append(encodeMatch(tags_[qi], value));
        if (client_limit_ != 0 && count >= client_limit_)
            throw ski::StopStreaming{};
    }

    size_t count = 0;

  private:
    ConnWriter& writer_;
    bool count_only_;
    size_t client_limit_;
    size_t server_cap_;
    std::vector<size_t> tags_;
};

/**
 * Read the request header line through @p fd (already known readable),
 * up to @p max_bytes, under an absolute deadline: a client dripping
 * one header byte per poll window cannot hold the slot past the
 * envelope (the old per-poll timeout restarted on every byte).  Bytes
 * past the newline were read from the body and are returned in
 * @p carry; incoming carry bytes are consumed first, so the helper can
 * be called repeatedly to read `query=` continuation lines that arrived
 * in one packet with the header.
 */
std::string
readHeaderLine(int fd, size_t max_bytes, const Deadline& deadline,
               std::string& carry)
{
    std::string buf = std::move(carry);
    carry.clear();
    char tmp[1024];
    for (;;) {
        size_t nl = buf.find('\n');
        if (nl != std::string::npos) {
            if (nl > max_bytes)
                throw ParseError(ErrorCode::HeaderTooLarge,
                                 "request header exceeds the byte limit",
                                 nl);
            carry = buf.substr(nl + 1);
            return buf.substr(0, nl);
        }
        if (buf.size() > max_bytes)
            throw ParseError(ErrorCode::HeaderTooLarge,
                             "request header exceeds the byte limit",
                             buf.size());
        if (deadline.expired())
            throw ParseError(ErrorCode::DeadlineExpired,
                             "header read deadline expired", buf.size());
        pollfd pfd{fd, POLLIN, 0};
        int pr = ::poll(&pfd, 1, deadline.pollTimeoutMs());
        if (pr == 0)
            throw ParseError(ErrorCode::DeadlineExpired,
                             "header read deadline expired", buf.size());
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            throw ParseError(ErrorCode::IoError, "poll failed",
                             buf.size());
        }
        ssize_t n = ::read(fd, tmp, sizeof tmp);
        if (n > 0) {
            buf.append(tmp, static_cast<size_t>(n));
            continue;
        }
        if (n == 0)
            throw ParseError(ErrorCode::UnexpectedEnd,
                             "connection closed mid-header", buf.size());
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
            continue;
        throw ParseError(ErrorCode::IoError, "socket read failed",
                         buf.size());
    }
}

} // namespace

ServerStats&
ServerStats::operator+=(const ServerStats& o)
{
    connections_total += o.connections_total;
    requests_total += o.requests_total;
    responses_ok += o.responses_ok;
    responses_error += o.responses_error;
    rejected_bad_request += o.rejected_bad_request;
    rejected_header_too_large += o.rejected_header_too_large;
    rejected_deadline += o.rejected_deadline;
    rejected_too_large += o.rejected_too_large;
    rejected_too_many_queries += o.rejected_too_many_queries;
    multi_query_requests += o.multi_query_requests;
    stats_requests += o.stats_requests;
    idle_closed += o.idle_closed;
    accept_errors += o.accept_errors;
    accept_backoffs += o.accept_backoffs;
    bytes_in_total += o.bytes_in_total;
    bytes_out_total += o.bytes_out_total;
    skipped.merge(o.skipped);
    return *this;
}

/** Everything one event-loop shard owns; see the file comment in
 *  server.h for the topology. */
struct Server::Shard
{
    size_t index;

    /** Own SO_REUSEPORT listener, or -1 (handoff fallback, non-0). */
    int listen_fd = -1;
    int wake_read_fd = -1;
    int wake_write_fd = -1;

    std::thread loop;
    std::unique_ptr<ThreadPool> pool;

    /** Shard-local plan-cache partition: no cross-shard contention. */
    PlanCache plan_cache;

    /** Shard-local document-index cache (doc= requests). */
    index::DocumentIndexCache doc_cache;

    mutable std::mutex stats_mutex;
    ServerStats stats;

    /** Fds handed to this shard (adoptConnection / accept fallback);
     *  the shard loop drains it after every wake. */
    std::mutex handoff_mutex;
    std::vector<int> handoff;

    Shard(size_t idx, size_t plan_capacity, size_t doc_bytes)
        : index(idx), plan_cache(plan_capacity), doc_cache(doc_bytes)
    {}
};

Server::Server(ServerConfig config) : config_(std::move(config))
{
    size_t n = config_.shards;
    if (n == 0) {
        unsigned hw = std::thread::hardware_concurrency();
        n = hw > 0 ? hw : 1;
    }
    // The configured capacity is the fleet total; each shard gets an
    // equal partition (rounded up, at least one plan).
    size_t per_shard = (config_.plan_cache_capacity + n - 1) / n;
    if (per_shard == 0)
        per_shard = 1;
    size_t doc_per_shard = (config_.doc_cache_bytes + n - 1) / n;
    shards_.reserve(n);
    for (size_t i = 0; i < n; ++i)
        shards_.push_back(
            std::make_unique<Shard>(i, per_shard, doc_per_shard));
}

Server::~Server()
{
    if (started_.load())
        stop();
    for (auto& sh : shards_) {
        if (sh->wake_read_fd >= 0)
            ::close(sh->wake_read_fd);
        if (sh->wake_write_fd >= 0)
            ::close(sh->wake_write_fd);
        if (sh->listen_fd >= 0)
            ::close(sh->listen_fd);
    }
}

void
Server::start()
{
    assert(!started_.load());
    try {
        if (useReusePortAccept(config_)) {
            // Every shard binds its own listener to one shared port;
            // the kernel spreads incoming connections across them.
            uint16_t bind_port = config_.port;
            for (auto& sh : shards_) {
                sh->listen_fd =
                    makeListener(config_.bind_addr, bind_port, true);
                if (bind_port == 0) {
                    port_ = boundPort(sh->listen_fd);
                    bind_port = port_;
                }
            }
            port_ = boundPort(shards_.front()->listen_fd);
        } else {
            // Single listener on shard 0; accepted fds are handed to
            // the shards round-robin through their wake pipes.
            shards_.front()->listen_fd =
                makeListener(config_.bind_addr, config_.port, false);
            port_ = boundPort(shards_.front()->listen_fd);
        }

        for (auto& sh : shards_) {
            int pipefd[2];
            if (::pipe(pipefd) != 0)
                throw std::runtime_error("pipe failed");
            sh->wake_read_fd = pipefd[0];
            sh->wake_write_fd = pipefd[1];
            setNonBlocking(sh->wake_read_fd);
            setNonBlocking(sh->wake_write_fd);
            setCloexec(sh->wake_read_fd);
            setCloexec(sh->wake_write_fd);
        }
    } catch (...) {
        for (auto& sh : shards_) {
            if (sh->listen_fd >= 0) {
                ::close(sh->listen_fd);
                sh->listen_fd = -1;
            }
            if (sh->wake_read_fd >= 0) {
                ::close(sh->wake_read_fd);
                sh->wake_read_fd = -1;
            }
            if (sh->wake_write_fd >= 0) {
                ::close(sh->wake_write_fd);
                sh->wake_write_fd = -1;
            }
        }
        throw;
    }

    for (auto& sh : shards_)
        sh->pool = std::make_unique<ThreadPool>(
            std::max<size_t>(1, config_.workers));
    stopping_.store(false);
    started_.store(true);
    for (auto& sh : shards_)
        sh->loop = std::thread([this, s = sh.get()] { shardLoop(*s); });
}

void
Server::requestStop() noexcept
{
    stopping_.store(true);
    // Async-signal-safe: the shard vector is immutable after the
    // constructor and write(2) is on the safe list.
    for (auto& sh : shards_) {
        if (sh->wake_write_fd >= 0) {
            char b = 's';
            [[maybe_unused]] ssize_t n =
                ::write(sh->wake_write_fd, &b, 1);
        }
    }
}

void
Server::waitStopped()
{
    for (auto& sh : shards_)
        if (sh->loop.joinable())
            sh->loop.join();
    for (auto& sh : shards_) {
        if (sh->pool) {
            sh->pool->waitIdle(); // let in-flight requests finish
            sh->pool.reset();     // drains the queue, joins the workers
        }
    }
    started_.store(false);
}

void
Server::stop()
{
    requestStop();
    waitStopped();
}

bool
Server::adoptConnection(int fd)
{
    if (stopping_.load() || !started_.load()) {
        ::close(fd);
        return false;
    }
    setNonBlocking(fd);
    Shard& sh = *shards_[next_adopt_.fetch_add(1) % shards_.size()];
    {
        std::lock_guard<std::mutex> lock(sh.handoff_mutex);
        sh.handoff.push_back(fd);
    }
    char b = 'c';
    [[maybe_unused]] ssize_t n = ::write(sh.wake_write_fd, &b, 1);
    return true;
}

void
Server::shardLoop(Shard& sh)
{
    std::unique_ptr<Poller> poller = makePoller(config_.force_poll);
    bool listener_registered =
        sh.listen_fd >= 0 && poller->add(sh.listen_fd);
    if (!poller->add(sh.wake_read_fd)) {
        // Without the wake pipe the shard can neither receive handoffs
        // nor stop promptly; bail out rather than serve half-alive.
        std::lock_guard<std::mutex> lock(sh.stats_mutex);
        ++sh.stats.accept_errors;
        return;
    }

    const bool reuseport = useReusePortAccept(config_);
    uint64_t accept_rr = 0; // round-robin cursor (handoff fallback)
    std::unordered_map<int, Clock::time_point> pending;
    std::vector<int> ready;
    bool accept_paused = false;
    Clock::time_point accept_resume{};

    auto bump = [&sh](uint64_t ServerStats::*field) {
        std::lock_guard<std::mutex> lock(sh.stats_mutex);
        ++(sh.stats.*field);
    };

    auto idleDeadline = [this] {
        return config_.idle_deadline_ms > 0
                   ? Clock::now() + std::chrono::milliseconds(
                                        config_.idle_deadline_ms)
                   : Clock::time_point::max();
    };

    // Take ownership of an incoming connection on *this* shard.
    auto registerConn = [&](int fd) {
        bump(&ServerStats::connections_total);
        if (!poller->add(fd)) {
            // A failed EPOLL_CTL_ADD would leave the connection
            // silently untracked: the fd would leak and the client
            // would hang forever.  Surface it as an accept error and
            // close the fd instead.
            ::close(fd);
            bump(&ServerStats::accept_errors);
            return;
        }
        pending.emplace(fd, idleDeadline());
    };

    // Reap every idle connection now (fd pressure or drain).
    auto reapAllIdle = [&] {
        for (const auto& [fd, dl] : pending) {
            poller->remove(fd);
            ::close(fd);
            bump(&ServerStats::idle_closed);
        }
        pending.clear();
    };

    auto acceptSome = [&] {
        for (;;) {
            int conn = acceptConn(sh.listen_fd);
            if (conn >= 0) {
                if (reuseport) {
                    registerConn(conn);
                } else {
                    // Fallback: this shard owns the only listener;
                    // spread connections round-robin.
                    Shard& target =
                        *shards_[accept_rr++ % shards_.size()];
                    if (&target == &sh) {
                        registerConn(conn);
                    } else {
                        {
                            std::lock_guard<std::mutex> lock(
                                target.handoff_mutex);
                            target.handoff.push_back(conn);
                        }
                        char b = 'c';
                        [[maybe_unused]] ssize_t n =
                            ::write(target.wake_write_fd, &b, 1);
                    }
                }
                continue;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            if (errno == EMFILE || errno == ENFILE ||
                errno == ENOBUFS || errno == ENOMEM) {
                // Fd exhaustion.  The listener is level-triggered, so
                // retrying immediately would spin at 100% CPU; free
                // what we can (idle connections) and pause accepting
                // briefly.  Connections queue in the kernel backlog
                // meanwhile.
                bump(&ServerStats::accept_backoffs);
                reapAllIdle();
                if (listener_registered) {
                    poller->remove(sh.listen_fd);
                    listener_registered = false;
                }
                accept_paused = true;
                accept_resume =
                    Clock::now() +
                    std::chrono::milliseconds(
                        std::max(1, config_.accept_backoff_ms));
                break;
            }
            bump(&ServerStats::accept_errors);
            break;
        }
    };

    auto drainHandoff = [&] {
        std::vector<int> fds;
        {
            std::lock_guard<std::mutex> lock(sh.handoff_mutex);
            fds.swap(sh.handoff);
        }
        for (int fd : fds)
            registerConn(fd);
    };

    while (!stopping_.load()) {
        Clock::time_point wake_at = Clock::time_point::max();
        for (const auto& [fd, dl] : pending)
            wake_at = std::min(wake_at, dl);
        if (accept_paused)
            wake_at = std::min(wake_at, accept_resume);
        int timeout_ms = -1;
        if (wake_at != Clock::time_point::max()) {
            auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    wake_at - Clock::now())
                    .count();
            timeout_ms =
                static_cast<int>(std::max<long long>(0, left));
        }
        poller->wait(timeout_ms, ready);
        for (int fd : ready) {
            if (fd == sh.wake_read_fd) {
                char drain[64];
                while (::read(sh.wake_read_fd, drain, sizeof drain) >
                       0) {
                }
            } else if (fd == sh.listen_fd) {
                acceptSome();
            } else {
                // First request byte arrived: the worker owns the fd
                // from here.  Skip fds already reaped this round (the
                // EMFILE path may have closed them while they sat in
                // the ready list).
                auto it = pending.find(fd);
                if (it == pending.end())
                    continue;
                pending.erase(it);
                poller->remove(fd);
                sh.pool->submit(
                    [this, &sh, fd] { handleConnection(sh, fd); });
            }
        }
        drainHandoff();
        if (accept_paused && Clock::now() >= accept_resume) {
            accept_paused = false;
            listener_registered =
                sh.listen_fd >= 0 && poller->add(sh.listen_fd);
            if (sh.listen_fd >= 0 && !listener_registered)
                bump(&ServerStats::accept_errors);
        }
        Clock::time_point now = Clock::now();
        for (auto it = pending.begin(); it != pending.end();) {
            if (it->second <= now) {
                poller->remove(it->first);
                ::close(it->first);
                bump(&ServerStats::idle_closed);
                it = pending.erase(it);
            } else {
                ++it;
            }
        }
    }

    // Drain: stop accepting, drop connections that never sent a byte,
    // close fds still queued for handoff.
    if (sh.listen_fd >= 0) {
        if (listener_registered)
            poller->remove(sh.listen_fd);
        ::close(sh.listen_fd);
        sh.listen_fd = -1;
    }
    reapAllIdle();
    {
        std::lock_guard<std::mutex> lock(sh.handoff_mutex);
        for (int fd : sh.handoff)
            ::close(fd);
        sh.handoff.clear();
    }
}

void
Server::bumpOk(Shard& sh, uint64_t bytes_in, uint64_t bytes_out,
               const ski::FastForwardStats& ff)
{
    std::lock_guard<std::mutex> lock(sh.stats_mutex);
    ++sh.stats.responses_ok;
    sh.stats.bytes_in_total += bytes_in;
    sh.stats.bytes_out_total += bytes_out;
    sh.stats.skipped.merge(ff);
}

void
Server::bumpError(Shard& sh, uint64_t bytes_in, uint64_t bytes_out,
                  ErrorCode code)
{
    std::lock_guard<std::mutex> lock(sh.stats_mutex);
    ++sh.stats.responses_error;
    sh.stats.bytes_in_total += bytes_in;
    sh.stats.bytes_out_total += bytes_out;
    switch (code) {
      case ErrorCode::BadRequest:
        ++sh.stats.rejected_bad_request;
        break;
      case ErrorCode::HeaderTooLarge:
        ++sh.stats.rejected_header_too_large;
        break;
      case ErrorCode::DeadlineExpired:
        ++sh.stats.rejected_deadline;
        break;
      case ErrorCode::RecordTooLarge:
        ++sh.stats.rejected_too_large;
        break;
      case ErrorCode::TooManyQueries:
        ++sh.stats.rejected_too_many_queries;
        break;
      default:
        break;
    }
}

void
Server::handleConnection(Shard& sh, int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    // Deep receive buffer: body ingestion alternates with the sender
    // far less often (matters most when both share a core).
    int buf = 1 << 20;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof buf);
    ConnWriter writer(fd, config_.write_queue_bytes,
                      config_.write_deadline_ms);
    // Early-exit paths linger briefly so the trailer survives a client
    // that is still sending body bytes (see lingeringClose).
    const int linger_ms =
        config_.read_deadline_ms > 0
            ? std::min(config_.read_deadline_ms, 1000)
            : 1000;
    Trailer trailer;
    trailer.ok = false;
    uint64_t bytes_in = 0;
    try {
        std::string carry;
        std::string header_line;
        RequestHeader header;
        try {
            // Absolute envelope: the whole header must arrive within
            // the deadline, no matter how slowly it drips.
            Deadline header_deadline =
                Deadline::after(config_.read_deadline_ms);
            header_line =
                readHeaderLine(fd, config_.max_header_bytes,
                               header_deadline, carry);
            header = parseHeader(header_line);
            // Enforce the query-set cap *before* reading continuation
            // lines, so a hostile queries=N header cannot make the
            // server buffer an unbounded query set.
            if (config_.max_queries != 0 &&
                header.queries.size() + header.pending_queries >
                    config_.max_queries)
                throw ParseError(ErrorCode::TooManyQueries,
                                 "query list exceeds the server cap",
                                 0);
            for (size_t i = 0; i < header.pending_queries; ++i)
                header.queries.push_back(parseQueryLine(readHeaderLine(
                    fd, config_.max_header_bytes, header_deadline,
                    carry)));
            header.pending_queries = 0;
        } catch (const ParseError& e) {
            trailer.code = e.code();
            trailer.error_pos = e.position();
            writer.append(encodeTrailer(trailer));
            writer.flush();
            bumpError(sh, 0, writer.total(), e.code());
            lingeringClose(fd, linger_ms);
            return;
        }
        {
            std::lock_guard<std::mutex> lock(sh.stats_mutex);
            ++sh.stats.requests_total;
        }

        if (header.stats) {
            {
                std::lock_guard<std::mutex> lock(sh.stats_mutex);
                ++sh.stats.stats_requests;
            }
            writer.append(metricsText());
            writer.flush();
            bumpOk(sh, 0, writer.total(), {});
            ::close(fd);
            return;
        }

        if (header.queries.size() > 1) {
            std::lock_guard<std::mutex> lock(sh.stats_mutex);
            ++sh.stats.multi_query_requests;
        }

        bool plan_hit = false;
        std::shared_ptr<const Plan> plan;
        path::QuerySet request_set;
        try {
            plan = sh.plan_cache.get(joinQueries(header.queries),
                                     &plan_hit, &request_set);
        } catch (const PathError&) {
            trailer.code = ErrorCode::BadRequest;
            trailer.error_pos = 0;
            writer.append(encodeTrailer(trailer));
            writer.flush();
            bumpError(sh, 0, writer.total(), ErrorCode::BadRequest);
            lingeringClose(fd, linger_ms);
            return;
        }
        trailer.plan = plan_hit ? "hit" : "miss";

        RequestMap map = plan->mapRequest(request_set);

        // The body gets its own absolute envelope, re-armed now: the
        // entire stream must complete within read_deadline_ms.
        intervals::SocketChunkSource socket_src(
            fd, Deadline::after(config_.read_deadline_ms),
            config_.max_body_bytes, carry);
        BoundedSource bounded_src(socket_src, header.length);
        intervals::ChunkSource& src =
            header.has_length
                ? static_cast<intervals::ChunkSource&>(bounded_src)
                : socket_src;

        WireSink sink(writer, header.count_only, header.limit,
                      config_.max_matches, map.tag);
        RunResult result;
        try {
            // doc= : a repeat-query document.  Materialize the sized
            // body (bounded by max_doc_bytes) and consult the shard's
            // index cache: a usable semi-index answers the skips warm;
            // otherwise the resident body streams like any other.
            std::string body;
            std::shared_ptr<const index::StructuralIndex> ix;
            if (header.has_doc) {
                trailer.index = "none";
                if (header.length > config_.max_doc_bytes)
                    throw ParseError(
                        ErrorCode::RecordTooLarge,
                        "doc= body exceeds the resident document cap",
                        0);
                body.reserve(header.length);
                std::vector<char> buf(
                    std::min<size_t>(config_.chunk_bytes,
                                     header.length == 0
                                         ? size_t{1}
                                         : header.length));
                for (size_t n = 0;
                     (n = src.read(buf.data(), buf.size())) != 0;)
                    body.append(buf.data(), n);
                if (body.size() != header.length)
                    throw ParseError(ErrorCode::UnexpectedEnd,
                                     "connection closed mid-body",
                                     body.size());
                bool was_hit = false;
                if (config_.doc_cache_bytes != 0 && plan->single)
                    ix = sh.doc_cache.get(body, &was_hit);
                // docSize() guards the (astronomically unlikely)
                // same-hash different-length collision; the hash
                // itself is the cache key, so it already matches.
                if (ix && ix->usable() && ix->docSize() == body.size())
                    trailer.index = was_hit ? "hit" : "miss";
                else
                    ix.reset();
            }
            if (ix) {
                ski::StreamResult r =
                    plan->single->runIndexed(body, *ix, &sink);
                result.matches = {r.matches};
                result.stats = r.stats;
            } else {
                intervals::ViewSource body_src(body);
                result = plan->run(header.has_doc ? body_src : src, sink,
                                   config_.chunk_bytes, header.records);
            }
            bytes_in = socket_src.delivered();
        } catch (const ParseError& e) {
            bytes_in = socket_src.delivered();
            trailer.code = e.code();
            trailer.error_pos = e.position();
            trailer.matches = sink.count;
            trailer.bytes_in = bytes_in;
            writer.append(encodeTrailer(trailer));
            writer.flush();
            bumpError(sh, bytes_in, writer.total(), e.code());
            lingeringClose(fd, linger_ms);
            return;
        }

        trailer.ok = true;
        trailer.matches = sink.count;
        trailer.bytes_in = bytes_in;
        trailer.ff = result.stats.skipped;
        if (header.queries.size() > 1) {
            trailer.per_query = map.perPosition(result.matches);
            trailer.qmap = map.perPosition(map.tag);
        }
        writer.append(encodeTrailer(trailer));
        writer.flush();
        bumpOk(sh, bytes_in, writer.total(), result.stats);
        lingeringClose(fd, linger_ms);
    } catch (const WriterDead& dead) {
        // The connection itself failed (slow reader, socket error);
        // nothing more can be delivered.
        bumpError(sh, bytes_in, writer.total(), dead.code);
        ::close(fd);
    } catch (...) {
        // Unexpected escape: never take the worker down; sever the
        // connection so the client sees a hard close, not a trailer.
        bumpError(sh, bytes_in, writer.total(), ErrorCode::Unspecified);
        ::close(fd);
    }
}

ServerStats
Server::stats() const
{
    ServerStats total;
    for (const auto& sh : shards_) {
        std::lock_guard<std::mutex> lock(sh->stats_mutex);
        total += sh->stats;
    }
    return total;
}

const PlanCache&
Server::planCache() const
{
    return shards_.front()->plan_cache;
}

PlanCacheStats
Server::planCacheTotals() const
{
    PlanCacheStats total;
    for (const auto& sh : shards_)
        total += sh->plan_cache.statsSnapshot();
    return total;
}

index::DocumentIndexCacheStats
Server::docCacheTotals() const
{
    index::DocumentIndexCacheStats total;
    for (const auto& sh : shards_)
        total += sh->doc_cache.statsSnapshot();
    return total;
}

std::string
Server::metricsText() const
{
    ServerStats total;
    std::vector<ServerStats> per_shard;
    per_shard.reserve(shards_.size());
    for (const auto& sh : shards_) {
        std::lock_guard<std::mutex> lock(sh->stats_mutex);
        per_shard.push_back(sh->stats);
        total += sh->stats;
    }
    PlanCacheStats pc = planCacheTotals();

    std::string out;
    auto gauge = [&out](const char* name, uint64_t v) {
        out += "# TYPE jsonski_server_";
        out += name;
        out += " counter\njsonski_server_";
        out += name;
        out += ' ';
        out += std::to_string(v);
        out += '\n';
    };
    // One series per shard: `name{shard="i"}` for the counters that
    // show whether traffic is actually spreading across the shards.
    auto shardGauge = [&](const char* name,
                          uint64_t ServerStats::*field) {
        out += "# TYPE jsonski_server_shard_";
        out += name;
        out += " counter\n";
        for (size_t i = 0; i < per_shard.size(); ++i) {
            out += "jsonski_server_shard_";
            out += name;
            out += "{shard=\"";
            out += std::to_string(i);
            out += "\"} ";
            out += std::to_string(per_shard[i].*field);
            out += '\n';
        }
    };
    // Which SIMD kernel this daemon is running on — the service-smoke
    // script scrapes this to confirm the dispatch decision end to end.
    out += "# TYPE jsonski_server_kernel_info gauge\n"
           "jsonski_server_kernel_info{kernel=\"";
    out += kernels::activeName();
    out += "\"} 1\n";
    out += "# TYPE jsonski_server_shards gauge\n"
           "jsonski_server_shards ";
    out += std::to_string(shards_.size());
    out += '\n';
    gauge("connections_total", total.connections_total);
    gauge("requests_total", total.requests_total);
    gauge("responses_ok", total.responses_ok);
    gauge("responses_error", total.responses_error);
    gauge("rejected_bad_request", total.rejected_bad_request);
    gauge("rejected_header_too_large", total.rejected_header_too_large);
    gauge("rejected_deadline", total.rejected_deadline);
    gauge("rejected_too_large", total.rejected_too_large);
    gauge("rejected_too_many_queries",
          total.rejected_too_many_queries);
    gauge("multi_query_requests", total.multi_query_requests);
    gauge("stats_requests", total.stats_requests);
    gauge("idle_closed", total.idle_closed);
    gauge("accept_errors", total.accept_errors);
    gauge("accept_backoffs", total.accept_backoffs);
    gauge("bytes_in_total", total.bytes_in_total);
    gauge("bytes_out_total", total.bytes_out_total);
    gauge("plan_cache_hits", pc.hits);
    gauge("plan_cache_misses", pc.misses);
    gauge("plan_cache_evictions", pc.evictions);
    gauge("plan_cache_size", pc.size);
    index::DocumentIndexCacheStats dc = docCacheTotals();
    gauge("doc_index_cache_hits", dc.hits);
    gauge("doc_index_cache_misses", dc.misses);
    gauge("doc_index_cache_evictions", dc.evictions);
    gauge("doc_index_cache_entries", dc.entries);
    gauge("doc_index_cache_bytes", dc.bytes);
    shardGauge("connections_total", &ServerStats::connections_total);
    shardGauge("requests_total", &ServerStats::requests_total);
    shardGauge("responses_ok", &ServerStats::responses_ok);
    shardGauge("responses_error", &ServerStats::responses_error);
    out += "# TYPE jsonski_skipped_bytes_total counter\n";
    for (size_t g = 0; g < ski::kGroupCount; ++g) {
        out += "jsonski_skipped_bytes_total{group=\"G";
        out += std::to_string(g + 1);
        out += "\"} ";
        out += std::to_string(total.skipped.skipped[g]);
        out += '\n';
    }
    return out;
}

} // namespace jsonski::service
