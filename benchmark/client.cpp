/**
 * @file
 * bench_client — the benchmark's jsq/1 load client.
 *
 * It speaks the wire protocol with its own socket code, framing and
 * trailer parser, so a change anywhere under src/ cannot change how
 * load is generated or timed.  The trailer parser reads the fields it
 * checks (status, matches, per_query, qmap, plan) and ignores any
 * other, so a field added to the trailer does not break it.
 *
 *   bench_client load  --port P --manifest M [phase options]
 *   bench_client seq   --port P --manifest M [--trace FILE]
 *   bench_client setup --manifest M --reps K [--server-cpus L] -- JSQD...
 *   bench_client stats --port P
 *
 * A manifest lists request bodies and requests:
 *
 *   body PATH
 *   req BODY_INDEX FRAMES EXPECT PER_QUERY|- [LABEL]
 *   hdr jsq/1 <queries> [flags]        (length=N is appended)
 *   line query=<query>                 (zero or more continuation lines)
 *
 * Every request is checked: the trailer must say status=ok, its match
 * count must equal EXPECT, per_query must equal PER_QUERY when given,
 * and with FRAMES=1 the match frames received per query must add up
 * to the same counts.  A wrong count, an error trailer, a severed
 * connection or a timeout is a failed request.
 *
 * `load` runs phases on one process with kConns threads, one request
 * in flight per thread (jsq/1 is one request per connection):
 *
 *   warmup    closed loop, not reported beyond attempted/failed
 *   fixed     open loop at --fixed-rate; latency from the scheduled send
 *   capacity  closed loop; completed requests per second
 *   probes    kProbes open-loop runs bisecting (0, capacity] for the
 *             highest rate with p99 <= --limit-ms, generator lateness
 *             p99 <= limit/2 and no failures: max_rps
 *
 * Tail percentiles are medians over time windows (see Latencies).
 * `seq` sends each request once, in order, and reports the median
 * latency per LABEL; `setup` times jsqd spawn to the first ok answer
 * on every request of the manifest.  Each mode prints one JSON object
 * on stdout.  With --trace FILE, `load` records spans (request, late,
 * connect, send, wait, recv) of about 10k requests of the fixed phase
 * and `seq` of every request, and writes them to FILE.
 */
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

extern char** environ;

namespace {

constexpr int kIoTimeoutMs = 5000;
constexpr size_t kConns = 2;  ///< load threads, one request in flight each
constexpr int kProbes = 5;    ///< bisection steps for max_rps

int64_t
nowNs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void
sleepUntilNs(int64_t t)
{
    timespec ts{};
    ts.tv_sec = t / 1000000000;
    ts.tv_nsec = t % 1000000000;
    while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts,
                             nullptr) == EINTR) {
    }
}

[[noreturn]] void
die(const std::string& msg)
{
    std::fprintf(stderr, "bench_client: %s\n", msg.c_str());
    std::exit(1);
}

// --- Log-linear histogram -------------------------------------------------

/**
 * Nanosecond values; below 2^kSubBits exact, above that each power of
 * two is split into 2^kSubBits linear buckets (relative width < 0.8%).
 * percentile() interpolates inside the bucket by rank, so a reported
 * value moves with the samples rather than snapping to bucket edges.
 */
class Histogram
{
  public:
    static constexpr int kSubBits = 7;
    static constexpr uint64_t kSub = uint64_t{1} << kSubBits;

    Histogram() : buckets_(kSub * (64 - kSubBits + 1), 0) {}

    void
    record(int64_t ns)
    {
        uint64_t v = ns < 0 ? 0 : static_cast<uint64_t>(ns);
        ++buckets_[bucketOf(v)];
        ++count_;
    }

    void
    merge(const Histogram& o)
    {
        for (size_t i = 0; i < buckets_.size(); ++i)
            buckets_[i] += o.buckets_[i];
        count_ += o.count_;
    }

    uint64_t count() const { return count_; }

    /** Nearest-rank percentile, p in (0, 100]; 0 when empty. */
    double
    percentile(double p) const
    {
        if (count_ == 0)
            return 0;
        auto rank = static_cast<uint64_t>(
            std::ceil(p / 100.0 * static_cast<double>(count_)));
        rank = std::clamp<uint64_t>(rank, 1, count_);
        uint64_t seen = 0;
        for (size_t b = 0; b < buckets_.size(); ++b) {
            if (seen + buckets_[b] >= rank) {
                double within = (static_cast<double>(rank - seen) - 0.5) /
                                static_cast<double>(buckets_[b]);
                return static_cast<double>(low(b)) +
                       within * static_cast<double>(width(b));
            }
            seen += buckets_[b];
        }
        return 0;
    }

  private:
    static size_t
    bucketOf(uint64_t v)
    {
        if (v < kSub)
            return static_cast<size_t>(v);
        int o = 63 - __builtin_clzll(v);
        int shift = o - kSubBits;
        return static_cast<size_t>(kSub * (shift + 1) +
                                   ((v >> shift) - kSub));
    }

    static uint64_t
    low(size_t b)
    {
        if (b < kSub)
            return b;
        uint64_t shift = b / kSub - 1;
        return (kSub + b % kSub) << shift;
    }

    static uint64_t
    width(size_t b)
    {
        return b < kSub ? 1 : uint64_t{1} << (b / kSub - 1);
    }

    std::vector<uint64_t> buckets_;
    uint64_t count_ = 0;
};

// --- Manifest --------------------------------------------------------------

struct Request
{
    std::string prefix; ///< header line (length= included) + query lines
    size_t body = 0;
    bool frames = false;
    uint64_t expect = 0;
    bool has_per_query = false;
    std::vector<uint64_t> per_query;
    std::string label;
};

struct Manifest
{
    std::vector<std::string> bodies;
    std::vector<Request> reqs;
};

std::vector<uint64_t>
parseCsv(std::string_view s)
{
    std::vector<uint64_t> out;
    while (!s.empty()) {
        size_t c = s.find(',');
        std::string_view tok = s.substr(0, c);
        out.push_back(std::strtoull(std::string(tok).c_str(), nullptr, 10));
        if (c == std::string_view::npos)
            break;
        s.remove_prefix(c + 1);
    }
    return out;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        die("cannot open " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

Manifest
loadManifest(const std::string& path)
{
    Manifest m;
    std::istringstream in(readFile(path));
    std::string line;
    std::vector<std::string> lines; // continuation lines of the last req
    auto seal = [&] {
        if (m.reqs.empty())
            return;
        Request& r = m.reqs.back();
        r.prefix += " length=" + std::to_string(m.bodies[r.body].size());
        r.prefix += '\n';
        for (const std::string& l : lines)
            r.prefix += l + '\n';
        lines.clear();
    };
    while (std::getline(in, line)) {
        if (line.rfind("body ", 0) == 0) {
            m.bodies.push_back(readFile(line.substr(5)));
        } else if (line.rfind("req ", 0) == 0) {
            seal();
            std::istringstream f(line.substr(4));
            Request r;
            std::string pq;
            int frames = 0;
            if (!(f >> r.body >> frames >> r.expect >> pq))
                die("bad manifest line: " + line);
            f >> r.label;
            if (r.body >= m.bodies.size())
                die("manifest body index out of range: " + line);
            r.frames = frames != 0;
            if (pq != "-") {
                r.has_per_query = true;
                r.per_query = parseCsv(pq);
            }
            m.reqs.push_back(std::move(r));
        } else if (line.rfind("hdr ", 0) == 0 && !m.reqs.empty()) {
            m.reqs.back().prefix = line.substr(4);
        } else if (line.rfind("line ", 0) == 0 && !m.reqs.empty()) {
            lines.push_back(line.substr(5));
        } else if (!line.empty()) {
            die("bad manifest line: " + line);
        }
    }
    seal();
    if (m.reqs.empty())
        die("manifest has no requests: " + path);
    return m;
}

// --- Response framing ------------------------------------------------------

/** Fields of the `end ...` trailer this client checks. */
struct Trailer
{
    bool ok = false;
    std::string code;
    uint64_t matches = 0;
    std::vector<uint64_t> per_query;
    std::vector<uint64_t> qmap;
    bool plan_miss = false;
};

Trailer
parseTrailer(std::string_view line)
{
    Trailer t;
    line.remove_prefix(4); // "end "
    while (!line.empty()) {
        size_t sp = line.find(' ');
        std::string_view tok = line.substr(0, sp);
        size_t eq = tok.find('=');
        if (eq != std::string_view::npos) {
            std::string_view k = tok.substr(0, eq);
            std::string_view v = tok.substr(eq + 1);
            if (k == "status")
                t.ok = v == "ok";
            else if (k == "code")
                t.code = v;
            else if (k == "matches")
                t.matches = std::strtoull(std::string(v).c_str(), nullptr,
                                          10);
            else if (k == "per_query")
                t.per_query = parseCsv(v);
            else if (k == "qmap")
                t.qmap = parseCsv(v);
            else if (k == "plan")
                t.plan_miss = v == "miss";
        }
        if (sp == std::string_view::npos)
            break;
        line.remove_prefix(sp + 1);
    }
    return t;
}

/** Incremental decoder of match frames + trailer; values are skipped. */
class FrameReader
{
  public:
    /** @return false on a framing violation (error() says why). */
    bool
    feed(const char* p, size_t n)
    {
        while (n > 0 && !done_) {
            if (value_left_ > 0) {
                size_t take = std::min(n, value_left_);
                value_left_ -= take;
                p += take;
                n -= take;
                if (value_left_ == 0 && p[-1] != '\n')
                    return fail("match value not newline-terminated");
                continue;
            }
            const char* nl = static_cast<const char*>(std::memchr(p, '\n', n));
            size_t take = nl ? static_cast<size_t>(nl - p) : n;
            line_.append(p, take);
            if (line_.size() > (1u << 20))
                return fail("oversized response line");
            p += take;
            n -= take;
            if (!nl)
                break;
            ++p, --n; // the newline
            if (!onLine())
                return false;
            line_.clear();
        }
        return true;
    }

    bool done() const { return done_; }
    const Trailer& trailer() const { return trailer_; }
    const std::vector<uint64_t>& frames() const { return frames_; }
    const std::string& error() const { return error_; }

  private:
    bool
    onLine()
    {
        if (line_.rfind("end ", 0) == 0) {
            trailer_ = parseTrailer(line_);
            done_ = true;
            return true;
        }
        unsigned long long q = 0, len = 0;
        if (line_.rfind("m ", 0) != 0 ||
            std::sscanf(line_.c_str() + 2, "%llu %llu", &q, &len) != 2)
            return fail("bad frame line '" + line_.substr(0, 60) + "'");
        if (q >= frames_.size())
            frames_.resize(q + 1, 0);
        ++frames_[q];
        value_left_ = len + 1;
        return true;
    }

    bool
    fail(std::string why)
    {
        error_ = std::move(why);
        return false;
    }

    std::string line_;
    size_t value_left_ = 0;
    std::vector<uint64_t> frames_;
    Trailer trailer_;
    bool done_ = false;
    std::string error_;
};

// --- One request -------------------------------------------------------------

struct Outcome
{
    bool ok = false;
    bool plan_miss = false;
    std::string error;
    int64_t due = 0, start = 0, connected = 0, sent = 0, first = 0,
            done = 0;
    uint64_t bytes_in = 0, bytes_out = 0;
};

std::string
checkCounts(const Request& r, const FrameReader& fr)
{
    const Trailer& t = fr.trailer();
    if (!t.ok)
        return "error trailer code=" + t.code;
    if (t.matches != r.expect)
        return "matches=" + std::to_string(t.matches) + " expected " +
               std::to_string(r.expect);
    if (r.has_per_query && t.per_query != r.per_query)
        return "per_query differs from the reference";
    if (!r.frames)
        return {};
    const std::vector<uint64_t>& f = fr.frames();
    uint64_t total = 0;
    for (uint64_t c : f)
        total += c;
    if (total != r.expect)
        return "frames=" + std::to_string(total) + " expected " +
               std::to_string(r.expect);
    if (r.has_per_query)
        for (size_t i = 0; i < r.per_query.size(); ++i) {
            size_t id = i < t.qmap.size() ? t.qmap[i] : i;
            uint64_t got = id < f.size() ? f[id] : 0;
            if (got != r.per_query[i])
                return "frames for query " + std::to_string(i) +
                       " differ from the reference";
        }
    return {};
}

Outcome
doRequest(uint16_t port, const Manifest& m, const Request& r)
{
    Outcome o;
    o.start = nowNs();
    const std::string& body = m.bodies[r.body];
    o.bytes_in = r.prefix.size() + body.size();
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        o.error = std::string("socket: ") + std::strerror(errno);
        o.done = nowNs();
        return o;
    }
    auto finish = [&](std::string err) {
        ::close(fd);
        o.error = std::move(err);
        o.done = o.done != 0 ? o.done : nowNs();
        return o;
    };
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval tv{kIoTimeoutMs / 1000, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
        return finish(std::string("connect: ") + std::strerror(errno));
    o.connected = nowNs();

    iovec iov[2] = {
        {const_cast<char*>(r.prefix.data()), r.prefix.size()},
        {const_cast<char*>(body.data()), body.size()},
    };
    size_t left = r.prefix.size() + body.size();
    int first_iov = 0;
    while (left > 0) {
        msghdr msg{};
        msg.msg_iov = iov + first_iov;
        msg.msg_iovlen = static_cast<size_t>(2 - first_iov);
        ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return finish(errno == EAGAIN ? "send timeout"
                                          : std::string("send: ") +
                                                std::strerror(errno));
        }
        left -= static_cast<size_t>(n);
        auto adv = static_cast<size_t>(n);
        while (first_iov < 2 && adv >= iov[first_iov].iov_len) {
            adv -= iov[first_iov].iov_len;
            ++first_iov;
        }
        if (first_iov < 2) {
            iov[first_iov].iov_base =
                static_cast<char*>(iov[first_iov].iov_base) + adv;
            iov[first_iov].iov_len -= adv;
        }
    }
    o.sent = nowNs();

    FrameReader fr;
    char buf[64 * 1024];
    while (!fr.done()) {
        ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0)
            return finish(errno == EAGAIN ? "response timeout"
                                          : std::string("recv: ") +
                                                std::strerror(errno));
        if (n == 0)
            return finish("connection closed before the trailer");
        if (o.first == 0)
            o.first = nowNs();
        o.bytes_out += static_cast<uint64_t>(n);
        if (!fr.feed(buf, static_cast<size_t>(n)))
            return finish(fr.error());
    }
    o.done = nowNs();
    // The server half-closes after the trailer and waits for our EOF;
    // reading its FIN first keeps TIME_WAIT on the server side.
    while (::recv(fd, buf, sizeof buf, 0) > 0) {
    }
    o.plan_miss = fr.trailer().plan_miss;
    Outcome checked = finish(checkCounts(r, fr));
    checked.ok = checked.error.empty();
    return checked;
}

// --- Spans ----------------------------------------------------------------

struct Span
{
    const char* name;
    int64_t start, end;
    uint64_t req;
    int parent; ///< index within the request's spans; -1 = root
};

void
addSpans(std::vector<Span>& out, uint64_t req, const Outcome& o)
{
    if (!o.ok)
        return;
    out.push_back({"client.request", o.due, o.done, req, -1});
    out.push_back({"client.late", o.due, o.start, req, 0});
    out.push_back({"client.connect", o.start, o.connected, req, 0});
    out.push_back({"client.send", o.connected, o.sent, req, 0});
    out.push_back({"client.wait", o.sent, o.first, req, 0});
    out.push_back({"client.recv", o.first, o.done, req, 0});
}

void
writeSpans(const std::string& path, const std::vector<Span>& spans)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        die("cannot write " + path);
    std::fputs("[\n", f);
    // Span ids: the request's root is req*8, its children req*8+k.
    uint64_t prev_req = ~uint64_t{0};
    int k = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        k = s.req == prev_req ? k + 1 : 0;
        prev_req = s.req;
        uint64_t id = s.req * 8 + static_cast<uint64_t>(k);
        std::fprintf(f,
                     "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                     "\"id\":%llu,\"parent\":%lld,\"req\":%llu}%s\n",
                     s.name, static_cast<long long>(s.start),
                     static_cast<long long>(s.end),
                     static_cast<unsigned long long>(id),
                     s.parent < 0 ? -1LL
                                  : static_cast<long long>(s.req * 8),
                     static_cast<unsigned long long>(s.req),
                     i + 1 < spans.size() ? "," : "");
    }
    std::fputs("]\n", f);
    if (std::fclose(f) != 0)
        die("cannot write " + path);
}

// --- Phases ---------------------------------------------------------------

/**
 * Latency and lateness of one phase, whole and per time window (by
 * due time).  Tail percentiles are reported as the median over windows
 * of each window's percentile: a host stall of a few ms inflates the
 * windows it falls in, not the reported tail, while a backlog that
 * keeps growing inflates every later window and still shows.
 */
struct Latencies
{
    static constexpr uint64_t kMinWindowSamples = 20;

    /** At least 0.25 s and about 100 requests at @p rate (0 = closed). */
    static int64_t
    windowNs(double rate)
    {
        return rate > 0 ? std::max<int64_t>(250'000'000,
                                            static_cast<int64_t>(1e11 / rate))
                        : 250'000'000;
    }

    int64_t window_ns = windowNs(0);
    Histogram latency, lateness;
    std::vector<Histogram> win_latency, win_lateness;

    void
    record(int64_t t0, int64_t due, int64_t start, int64_t done)
    {
        latency.record(done - due);
        lateness.record(start - due);
        auto w = static_cast<size_t>(std::max<int64_t>(0, due - t0) /
                                     window_ns);
        if (w >= win_latency.size()) {
            win_latency.resize(w + 1);
            win_lateness.resize(w + 1);
        }
        win_latency[w].record(done - due);
        win_lateness[w].record(start - due);
    }

    void
    merge(const Latencies& o)
    {
        latency.merge(o.latency);
        lateness.merge(o.lateness);
        if (o.win_latency.size() > win_latency.size()) {
            win_latency.resize(o.win_latency.size());
            win_lateness.resize(o.win_latency.size());
        }
        for (size_t w = 0; w < o.win_latency.size(); ++w) {
            win_latency[w].merge(o.win_latency[w]);
            win_lateness[w].merge(o.win_lateness[w]);
        }
    }

    /** Median over windows of the per-window @p p percentile, ns. */
    static double
    windowed(const std::vector<Histogram>& wins, const Histogram& whole,
             double p)
    {
        std::vector<double> v;
        for (const Histogram& h : wins)
            if (h.count() >= kMinWindowSamples)
                v.push_back(h.percentile(p));
        if (v.empty())
            return whole.percentile(p);
        std::sort(v.begin(), v.end());
        return v.size() % 2 ? v[v.size() / 2]
                            : (v[v.size() / 2 - 1] + v[v.size() / 2]) / 2;
    }

    double p(double q) const { return windowed(win_latency, latency, q); }
    double p99() const { return p(99); }
    double lateP99() const { return windowed(win_lateness, lateness, 99); }
};

struct PhaseResult
{
    uint64_t attempted = 0, failed = 0, plan_misses = 0;
    uint64_t bytes_in = 0, bytes_out = 0;
    int64_t t0 = 0;
    Latencies lat;
    double elapsed_s = 0;
    std::vector<std::string> errors;
    std::vector<Span> spans;

    void
    add(const Outcome& o, uint64_t req, bool trace)
    {
        ++attempted;
        if (!o.ok) {
            ++failed;
            if (errors.size() < 5)
                errors.push_back(o.error);
        }
        plan_misses += o.plan_miss;
        bytes_in += o.bytes_in;
        bytes_out += o.bytes_out;
        lat.record(t0, o.due, o.start, o.done);
        if (trace)
            addSpans(spans, req, o);
    }

    void
    merge(PhaseResult& o)
    {
        attempted += o.attempted;
        failed += o.failed;
        plan_misses += o.plan_misses;
        bytes_in += o.bytes_in;
        bytes_out += o.bytes_out;
        lat.merge(o.lat);
        for (std::string& e : o.errors)
            if (errors.size() < 5)
                errors.push_back(std::move(e));
        spans.insert(spans.end(), o.spans.begin(), o.spans.end());
    }
};

struct LoadContext
{
    uint16_t port = 0;
    const Manifest* manifest = nullptr;
    uint64_t next = 0; ///< request rotation carried across phases
};

/**
 * @param rate requests per second across all threads; 0 = closed loop.
 * @param trace_every record spans of every n-th request; 0 = none.
 * Open loop: thread c owns requests c, c+n, ...; request i is due at
 * start + i/rate and its latency runs from then, so a stall shows as
 * queueing delay instead of as a lower offered load.
 */
PhaseResult
runPhase(LoadContext& ctx, double rate, int64_t duration_ns,
         uint64_t trace_every)
{
    const Manifest& m = *ctx.manifest;
    std::vector<PhaseResult> per(kConns);
    int64_t t0 = nowNs() + 1000000; // let every thread reach its loop
    int64_t end = t0 + duration_ns;
    for (PhaseResult& pr : per) {
        pr.t0 = t0;
        pr.lat.window_ns = Latencies::windowNs(rate);
    }
    std::atomic<uint64_t> closed_next{0};
    uint64_t base = ctx.next;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kConns; ++c)
        threads.emplace_back([&, c] {
            PhaseResult& pr = per[c];
            if (rate > 0) {
                for (uint64_t i = c;; i += kConns) {
                    int64_t due =
                        t0 + static_cast<int64_t>(
                                 1e9 * static_cast<double>(i) / rate);
                    if (due >= end)
                        break;
                    sleepUntilNs(due);
                    uint64_t k = base + i;
                    Outcome o = doRequest(
                        ctx.port, m, m.reqs[k % m.reqs.size()]);
                    o.due = due;
                    // Per thread, so both threads' requests are traced.
                    pr.add(o, k,
                           trace_every && (i / kConns) % trace_every == 0);
                }
            } else {
                sleepUntilNs(t0);
                while (nowNs() < end) {
                    uint64_t k = base + closed_next.fetch_add(1);
                    Outcome o = doRequest(
                        ctx.port, m, m.reqs[k % m.reqs.size()]);
                    o.due = o.start;
                    pr.add(o, k, trace_every && k % trace_every == 0);
                }
            }
        });
    for (std::thread& t : threads)
        t.join();
    PhaseResult total;
    total.lat.window_ns = Latencies::windowNs(rate);
    for (PhaseResult& pr : per)
        total.merge(pr);
    total.elapsed_s = static_cast<double>(nowNs() - t0) / 1e9;
    ctx.next = base + total.attempted;
    return total;
}

// --- JSON output ----------------------------------------------------------

class Json
{
  public:
    Json& key(const char* k)
    {
        comma();
        out_ += '"';
        out_ += k;
        out_ += "\":";
        fresh_ = true;
        return *this;
    }
    Json& num(double v)
    {
        comma();
        char b[64];
        std::snprintf(b, sizeof b, "%.9g", std::isfinite(v) ? v : 0.0);
        out_ += b;
        return *this;
    }
    Json& str(const std::string& s)
    {
        comma();
        out_ += '"';
        for (char c : s)
            if (c == '"' || c == '\\')
                out_ += '\\', out_ += c;
            else if (static_cast<unsigned char>(c) >= 0x20)
                out_ += c;
        out_ += '"';
        return *this;
    }
    Json& open(char c)
    {
        comma();
        out_ += c;
        fresh_ = true;
        return *this;
    }
    Json& close(char c)
    {
        out_ += c;
        fresh_ = false;
        return *this;
    }
    const std::string& text() const { return out_; }

  private:
    void comma()
    {
        if (!fresh_ && !out_.empty())
            out_ += ',';
        fresh_ = false;
    }

    std::string out_;
    bool fresh_ = true;
};

/** attempted / failed / first errors across a mode's phases. */
struct Totals
{
    uint64_t attempted = 0, failed = 0;
    std::vector<std::string> errors;

    void
    merge(const PhaseResult& p)
    {
        attempted += p.attempted;
        failed += p.failed;
        for (const std::string& e : p.errors)
            if (errors.size() < 5)
                errors.push_back(e);
    }

    void
    json(Json& j) const
    {
        j.key("attempted").num(static_cast<double>(attempted));
        j.key("failed").num(static_cast<double>(failed));
        j.key("errors").open('[');
        for (const std::string& e : errors)
            j.str(e);
        j.close(']');
    }
};

void
phaseJson(Json& j, const char* name, const PhaseResult& p)
{
    j.key(name).open('{');
    j.key("attempted").num(static_cast<double>(p.attempted));
    j.key("failed").num(static_cast<double>(p.failed));
    j.key("plan_misses").num(static_cast<double>(p.plan_misses));
    j.key("elapsed_s").num(p.elapsed_s);
    j.key("rps").num(p.elapsed_s > 0 ? static_cast<double>(p.attempted -
                                                          p.failed) /
                                           p.elapsed_s
                                     : 0);
    j.key("bytes_in").num(static_cast<double>(p.bytes_in));
    j.key("bytes_out").num(static_cast<double>(p.bytes_out));
    j.key("p50_ms").num(p.lat.latency.percentile(50) / 1e6);
    j.key("p99_ms").num(p.lat.p99() / 1e6);
    j.key("p99_all_ms").num(p.lat.latency.percentile(99) / 1e6);
    j.key("p95_ms").num(p.lat.p(95) / 1e6);
    j.key("late_p99_ms").num(p.lat.lateP99() / 1e6);
    j.key("late_p99_all_ms").num(p.lat.lateness.percentile(99) / 1e6);
    j.key("errors").open('[');
    for (const std::string& e : p.errors)
        j.str(e);
    j.close(']');
    j.close('}');
}

// --- Options --------------------------------------------------------------

struct Args
{
    std::vector<std::string> rest; ///< after "--"
    std::vector<std::pair<std::string, std::string>> kv;

    const char*
    get(const char* k, const char* def = nullptr) const
    {
        for (const auto& [key, v] : kv)
            if (key == k)
                return v.c_str();
        return def;
    }
    double num(const char* k, double def) const
    {
        const char* v = get(k);
        return v ? std::strtod(v, nullptr) : def;
    }
};

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 2; i < argc; ++i) {
        std::string s = argv[i];
        if (s == "--") {
            a.rest.assign(argv + i + 1, argv + argc);
            break;
        }
        if (s.rfind("--", 0) != 0 || i + 1 >= argc)
            die("bad argument " + s);
        a.kv.emplace_back(s.substr(2), argv[++i]);
    }
    return a;
}

void
pinTo(const char* cpus)
{
    if (cpus == nullptr || *cpus == '\0')
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (uint64_t c : parseCsv(cpus))
        CPU_SET(static_cast<int>(c), &set);
    if (::sched_setaffinity(0, sizeof set, &set) != 0)
        die(std::string("sched_setaffinity: ") + std::strerror(errno));
}

uint16_t
portArg(const Args& a)
{
    double p = a.num("port", 0);
    if (p <= 0 || p > 65535)
        die("--port required");
    return static_cast<uint16_t>(p);
}

// --- Modes ----------------------------------------------------------------

int
modeLoad(const Args& a)
{
    pinTo(a.get("cpus"));
    Manifest m = loadManifest(a.get("manifest", ""));
    LoadContext ctx;
    ctx.port = portArg(a);
    ctx.manifest = &m;
    auto ms = [&](const char* k) {
        return static_cast<int64_t>(a.num(k, 0) * 1e6);
    };
    const char* trace = a.get("trace");
    double limit_ms = a.num("limit-ms", 10);

    Totals all;
    Json j;
    j.open('{');
    if (ms("warmup-ms") > 0) {
        PhaseResult w = runPhase(ctx, 0, ms("warmup-ms"), 0);
        phaseJson(j, "warmup", w);
        all.merge(w);
    }
    if (ms("fixed-ms") > 0) {
        // Spans of about 10k requests, spread over the phase.
        double rate = a.num("fixed-rate", 100);
        auto every = static_cast<uint64_t>(
            std::max(1.0, rate * static_cast<double>(ms("fixed-ms")) / 1e13));
        PhaseResult f = runPhase(ctx, rate, ms("fixed-ms"),
                                 trace != nullptr ? every : 0);
        phaseJson(j, "fixed", f);
        if (trace != nullptr)
            writeSpans(trace, f.spans);
        f.spans.clear();
        all.merge(f);
    }
    if (ms("capacity-ms") > 0) {
        PhaseResult c = runPhase(ctx, 0, ms("capacity-ms"), 0);
        phaseJson(j, "capacity", c);
        all.merge(c);
        double cap = c.elapsed_s > 0
                         ? static_cast<double>(c.attempted - c.failed) /
                               c.elapsed_s
                         : 0;
        // Bisection over (0, cap]; extra halvings only if nothing passes.
        double lo = 0, hi = cap;
        j.key("probes").open('[');
        for (int i = 0; i < kProbes + 4 && cap > 0; ++i) {
            if (i >= kProbes && lo > 0)
                break;
            double rate = i < kProbes ? (lo + hi) / 2 : hi / 2;
            PhaseResult p = runPhase(ctx, rate, ms("probe-ms"), 0);
            bool pass = p.failed == 0 && p.lat.p99() <= limit_ms * 1e6 &&
                        p.lat.lateP99() <= limit_ms * 1e6 / 2;
            (pass ? lo : hi) = rate;
            j.open('{');
            j.key("rate").num(rate);
            j.key("pass").num(pass);
            j.key("p99_ms").num(p.lat.p99() / 1e6);
            j.key("late_p99_ms").num(p.lat.lateP99() / 1e6);
            j.key("failed").num(static_cast<double>(p.failed));
            j.close('}');
            all.merge(p);
        }
        j.close(']');
        j.key("max_rps").num(lo);
    }
    all.json(j);
    j.close('}');
    std::printf("%s\n", j.text().c_str());
    return 0;
}

/** Each request once, in order; per-label medians. */
int
modeSeq(const Args& a)
{
    pinTo(a.get("cpus"));
    Manifest m = loadManifest(a.get("manifest", ""));
    uint16_t port = portArg(a);
    std::vector<std::string> labels;
    std::vector<std::vector<double>> lat;
    PhaseResult all;
    all.t0 = nowNs();
    for (size_t i = 0; i < m.reqs.size(); ++i) {
        const Request& r = m.reqs[i];
        Outcome o = doRequest(port, m, r);
        o.due = o.start;
        all.add(o, i, a.get("trace") != nullptr);
        auto it = std::find(labels.begin(), labels.end(), r.label);
        if (it == labels.end()) {
            labels.push_back(r.label);
            lat.emplace_back();
            it = labels.end() - 1;
        }
        lat[static_cast<size_t>(it - labels.begin())].push_back(
            static_cast<double>(o.done - o.start) / 1e6);
    }
    if (const char* t = a.get("trace"))
        writeSpans(t, all.spans);
    Json j;
    j.open('{');
    Totals totals;
    totals.merge(all);
    totals.json(j);
    j.key("bytes_out").num(static_cast<double>(all.bytes_out));
    j.key("median_ms").open('{');
    for (size_t i = 0; i < labels.size(); ++i) {
        std::vector<double>& v = lat[i];
        std::sort(v.begin(), v.end());
        double med = v.size() % 2 ? v[v.size() / 2]
                                  : (v[v.size() / 2 - 1] + v[v.size() / 2]) /
                                        2;
        j.key(labels[i].c_str()).num(med);
    }
    j.close('}');
    j.close('}');
    std::printf("%s\n", j.text().c_str());
    return 0;
}

/** A running jsqd started by `setup`, stopped and reaped on scope exit. */
class Daemon
{
  public:
    explicit Daemon(const std::vector<std::string>& argv)
    {
        int out[2];
        if (::pipe2(out, O_CLOEXEC) != 0)
            die("pipe");
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_adddup2(&fa, out[1], STDOUT_FILENO);
        posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, "/dev/null",
                                         O_WRONLY, 0);
        std::vector<char*> av;
        for (const std::string& s : argv)
            av.push_back(const_cast<char*>(s.c_str()));
        av.push_back(nullptr);
        int rc = ::posix_spawn(&pid_, av[0], &fa, nullptr, av.data(),
                               environ);
        posix_spawn_file_actions_destroy(&fa);
        ::close(out[1]);
        out_ = out[0];
        if (rc != 0)
            die("cannot start " + argv[0] + ": " + std::strerror(rc));
    }

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    ~Daemon()
    {
        ::kill(pid_, SIGTERM);
        int st = 0;
        while (::waitpid(pid_, &st, 0) < 0 && errno == EINTR) {
        }
        ::close(out_);
    }

    /** Port from the "listening on HOST:PORT" line; 0 on failure. */
    uint16_t
    waitListening()
    {
        std::string line;
        int64_t deadline = nowNs() + 10 * int64_t{1000000000};
        char c = 0;
        while (line.find('\n') == std::string::npos) {
            pollfd p{out_, POLLIN, 0};
            int left = static_cast<int>((deadline - nowNs()) / 1000000);
            if (left <= 0 || ::poll(&p, 1, left) <= 0 ||
                ::read(out_, &c, 1) != 1)
                return 0;
            line += c;
        }
        size_t at = line.find("listening on ");
        size_t colon = line.find(':', at == std::string::npos ? 0 : at + 13);
        if (at == std::string::npos || colon == std::string::npos)
            return 0;
        return static_cast<uint16_t>(
            std::strtoul(line.c_str() + colon + 1, nullptr, 10));
    }

  private:
    pid_t pid_ = -1;
    int out_ = -1;
};

/** Spawn -> first ok answer on every request of the manifest, K times. */
int
modeSetup(const Args& a)
{
    Manifest m = loadManifest(a.get("manifest", ""));
    if (a.rest.empty())
        die("setup needs the jsqd command after --");
    int reps = static_cast<int>(a.num("reps", 5));
    std::vector<double> secs;
    Totals totals;
    for (int i = 0; i < reps; ++i) {
        PhaseResult rep;
        pinTo(a.get("server-cpus"));
        rep.t0 = nowNs();
        Daemon d(a.rest);
        pinTo(a.get("cpus"));
        uint16_t port = d.waitListening();
        if (port == 0) {
            std::fprintf(stderr, "bench_client: jsqd reported no port\n");
            return 1;
        }
        for (size_t k = 0; k < m.reqs.size(); ++k) {
            Outcome o = doRequest(port, m, m.reqs[k]);
            o.due = o.start;
            rep.add(o, k, false);
        }
        secs.push_back(static_cast<double>(nowNs() - rep.t0) / 1e9);
        totals.merge(rep);
    }
    Json j;
    j.open('{');
    totals.json(j);
    j.key("setup_s").open('[');
    for (double s : secs)
        j.num(s);
    j.close(']');
    j.close('}');
    std::printf("%s\n", j.text().c_str());
    return 0;
}

/** Print the `!stats` page. */
int
modeStats(const Args& a)
{
    uint16_t port = portArg(a);
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    timeval tv{kIoTimeoutMs / 1000, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
        die(std::string("connect: ") + std::strerror(errno));
    const char req[] = "jsq/1 !stats\n";
    if (::send(fd, req, sizeof req - 1, MSG_NOSIGNAL) !=
        static_cast<ssize_t>(sizeof req - 1))
        die("send failed");
    ::shutdown(fd, SHUT_WR);
    char buf[65536];
    ssize_t n = 0;
    while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
        std::fwrite(buf, 1, static_cast<size_t>(n), stdout);
    ::close(fd);
    return n < 0 ? 1 : 0;
}

} // namespace

int
main(int argc, char** argv)
{
    ::signal(SIGPIPE, SIG_IGN);
    if (argc < 2)
        die("usage: bench_client load|seq|setup|stats [--key value]...");
    std::string mode = argv[1];
    Args a = parseArgs(argc, argv);
    if (mode == "load")
        return modeLoad(a);
    if (mode == "seq")
        return modeSeq(a);
    if (mode == "setup")
        return modeSetup(a);
    if (mode == "stats")
        return modeStats(a);
    die("unknown mode " + mode);
}
