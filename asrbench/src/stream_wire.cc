#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <queue>

#include "common/rng.hh"
#include "net/client.hh"
#include "net/protocol.hh"
#include "net/socket.hh"
#include "workload.hh"

namespace asrbench {

namespace {

constexpr std::size_t kChunkSamples = 640;  // 40 ms at 16 kHz
constexpr double kChunkS = 0.040;
constexpr double kArrivalsPerS = 24.0;
constexpr double kWarmupS = 2.0;
constexpr unsigned kConnections = 2;
/** Give up on a stream whose FINAL is this late (counts as failed). */
constexpr double kStallS = 30.0;

/** One non-blocking connection and its unsent bytes. */
struct Conn
{
    net::Socket sock;
    net::FrameReader reader;
    std::vector<std::uint8_t> out;
    std::size_t outOff = 0;
    bool broken = false;

    void
    flush()
    {
        while (!broken && outOff < out.size()) {
            const ssize_t n = ::send(sock.fd(), out.data() + outOff,
                                     out.size() - outOff, MSG_NOSIGNAL);
            if (n > 0) {
                outOff += std::size_t(n);
            } else if (n < 0 && errno == EINTR) {
                continue;
            } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                return;  // POLLOUT resumes it
            } else {
                broken = true;
            }
        }
        out.clear();
        outOff = 0;
    }
};

/** One scheduled stream of the open loop. */
struct Stream
{
    std::size_t utt = 0;
    unsigned conn = 0;
    std::uint32_t id = 0;
    std::int64_t arrive = 0;   //!< OPEN due, ns
    std::size_t chunks = 0;
    std::size_t sent = 0;      //!< chunks pushed so far
    std::int64_t finishDue = 0;
    bool inWindow = false;     //!< arrived inside the timed window
    bool opened = false;       //!< OPEN sent
    bool sawPartial = false;   //!< first non-empty PARTIAL seen
    bool done = false;
    std::uint32_t span = SpanLog::kNoSpan;
    /** Outstanding PARTIAL requests (the OPEN ack counts as one):
     *  send time, and whether it is the OPEN ack. */
    std::deque<std::pair<std::int64_t, bool>> partials;
    std::int64_t finishSent = 0;
};

double
msBetween(std::int64_t a, std::int64_t b)
{
    return double(b - a) * 1e-6;
}

} // namespace

Window
runStreamWire(Built &b, const Corpus &corpus, const Reference &ref,
              double seconds, std::uint64_t seed, SpanLog &log,
              Tally &tally)
{
    const std::uint32_t window_span = log.begin("window");

    std::vector<Conn> conns(kConnections);
    for (Conn &c : conns) {
        std::string err;
        c.sock = net::connectTcp("127.0.0.1", b.server->port(), err);
        if (!c.sock.valid() || !net::setNonBlocking(c.sock.fd(), true)) {
            std::fprintf(stderr, "connect failed: %s\n", err.c_str());
            c.broken = true;
        }
    }

    // Seeded Poisson schedule, conditioned on its count: a fixed
    // number of arrivals at uniform random times over the warm-up
    // (which fills the engine) and the timed window, so runs differ
    // in burstiness but not in offered load.  Times are relative to
    // the window start.
    const std::int64_t lead = 20'000'000;  // set-up slack before t0
    const std::int64_t origin =
        nowNs() + lead + std::int64_t(kWarmupS * 1e9);
    const std::int64_t window_end = origin + std::int64_t(seconds * 1e9);
    Rng rng(deriveSeed(seed, 0x51));
    const auto arrivals =
        std::size_t(std::lround(kArrivalsPerS * (kWarmupS + seconds)));
    std::vector<double> at(arrivals);
    for (double &t : at)
        t = -kWarmupS + rng.uniform() * (kWarmupS + seconds);
    std::sort(at.begin(), at.end());
    std::vector<Stream> streams(arrivals);
    for (std::size_t i = 0; i < arrivals; ++i) {
        Stream &s = streams[i];
        s.utt = std::size_t(rng.below(corpus.audio.size()));
        s.conn = unsigned(i % kConnections);
        s.id = std::uint32_t(i + 1);
        s.arrive = origin + std::int64_t(at[i] * 1e9);
        s.chunks = (corpus.audio[s.utt].samples.size() + kChunkSamples -
                    1) / kChunkSamples;
        s.finishDue =
            s.arrive + std::int64_t(double(s.chunks) * kChunkS * 1e9);
        s.inWindow = at[i] >= 0.0;
    }
    tally.attempted += streams.size();

    // Next action of each stream, earliest first: action 0 is OPEN,
    // action k pushes chunk k-1 and polls PARTIAL, and the last one
    // also sends FINISH.
    using Due = std::pair<std::int64_t, std::size_t>;
    std::priority_queue<Due, std::vector<Due>, std::greater<Due>> due;
    for (std::size_t i = 0; i < streams.size(); ++i)
        due.push({streams[i].arrive, i});

    Window w;
    double cpu_start = 0.0;
    bool started = false, ended = false;
    std::size_t remaining = streams.size();
    std::int64_t last_progress = nowNs();

    const auto fail = [&](Stream &s) {
        if (s.done)
            return;
        s.done = true;
        --remaining;
        ++tally.failed;
        log.end(s.span);
    };

    const auto act = [&](std::size_t i, std::int64_t when,
                         std::int64_t now) {
        Stream &s = streams[i];
        if (s.done)
            return;
        Conn &c = conns[s.conn];
        if (when >= origin && when < window_end)
            w.lateMs.push_back(msBetween(when, now));
        std::vector<std::uint8_t> payload;
        if (!s.opened) {
            s.opened = true;
            s.span = log.begin("stream", window_span, s.id);
            net::encodeOpenRequest(payload, net::OpenRequest{});
            net::appendFrame(c.out, net::FrameType::Open, s.id, payload);
            s.partials.emplace_back(now, true);
            c.flush();
            due.push({s.arrive + std::int64_t(kChunkS * 1e9), i});
            return;
        }
        const auto &samples = corpus.audio[s.utt].samples;
        const std::size_t off = s.sent * kChunkSamples;
        const std::size_t len =
            std::min(kChunkSamples, samples.size() - off);
        const std::int64_t p0 = nowNs();
        net::encodeSamples(payload, std::span<const float>(
                                        samples.data() + off, len));
        net::appendFrame(c.out, net::FrameType::Push, s.id, payload);
        c.flush();
        const std::int64_t p1 = nowNs();
        log.record("net.push", p0, p1, s.span, s.id);
        if (p0 >= origin && p0 < window_end) {
            w.pushUs.push_back(double(p1 - p0) * 1e-3);
            w.audioS += double(len) / 16000.0;
        }
        ++s.sent;
        net::appendFrame(c.out, net::FrameType::Partial, s.id, {});
        s.partials.emplace_back(nowNs(), false);
        if (s.sent == s.chunks) {
            net::appendFrame(c.out, net::FrameType::Finish, s.id, {});
            s.finishSent = nowNs();
        } else {
            due.push({s.arrive + std::int64_t(double(s.sent + 1) *
                                              kChunkS * 1e9),
                      i});
        }
        c.flush();
    };

    const auto onFrame = [&](const net::Frame &f, std::int64_t now) {
        if (f.streamId == 0 || f.streamId > streams.size())
            return;
        Stream &s = streams[f.streamId - 1];  // ids are index + 1
        if (s.done)
            return;
        switch (f.type) {
        case net::FrameType::RespPartial: {
            net::PartialResult pr;
            if (s.partials.empty() || !net::decodePartial(f.payload, pr)) {
                fail(s);
                return;
            }
            const auto [sent_at, is_open] = s.partials.front();
            s.partials.pop_front();
            log.record(is_open ? "net.open_rtt" : "net.partial_rtt",
                       sent_at, now, s.span, s.id);
            if (!is_open && sent_at >= origin && sent_at < window_end)
                w.partialRttUs.push_back(double(now - sent_at) * 1e-3);
            if (!pr.words.empty() && !s.sawPartial) {
                s.sawPartial = true;
                if (s.inWindow)
                    w.firstPartialMs.push_back(msBetween(s.arrive, now));
            }
            return;
        }
        case net::FrameType::RespFinal: {
            net::FinalResult fr;
            const bool ok = net::decodeFinal(f.payload, fr) &&
                            ref.matches(s.utt, fr.words, fr.score);
            log.record("net.final_wait", s.finishSent, now, s.span, s.id);
            if (!ok) {
                ++tally.mismatched;
                fail(s);
                return;
            }
            if (s.inWindow)
                w.finalMs.push_back(msBetween(s.finishDue, now));
            s.done = true;
            --remaining;
            log.end(s.span);
            return;
        }
        default:  // ERROR, RETRY_AFTER, DEADLINE_EXCEEDED
            fail(s);
            return;
        }
    };

    std::vector<std::uint8_t> buf(1 << 16);
    while (remaining > 0) {
        std::int64_t now = nowNs();
        if (!started && now >= origin) {
            started = true;
            w.before = b.engine->stats();
            cpu_start = processCpuSeconds();
        }
        if (!ended && now >= window_end) {
            ended = true;
            w.after = b.engine->stats();
            w.cpuS = processCpuSeconds() - cpu_start;
            w.wallS = double(now - origin) * 1e-9;
        }
        while (!due.empty() && due.top().first <= now) {
            const auto [when, i] = due.top();
            due.pop();
            act(i, when, now);
            now = nowNs();
        }

        // Sleep until the next due action, window edge or reply.
        std::int64_t wake = now + 100'000'000;
        if (!due.empty())
            wake = std::min(wake, due.top().first);
        if (!started)
            wake = std::min(wake, origin);
        if (!ended)
            wake = std::min(wake, window_end);
        pollfd pfds[kConnections];
        for (unsigned k = 0; k < kConnections; ++k) {
            pfds[k].fd = conns[k].broken ? -1 : conns[k].sock.fd();
            pfds[k].events = short(
                POLLIN | (conns[k].out.empty() ? 0 : POLLOUT));
            pfds[k].revents = 0;
        }
        const std::int64_t wait = std::max<std::int64_t>(0, wake - now);
        timespec ts{time_t(wait / 1'000'000'000),
                    long(wait % 1'000'000'000)};
        if (::ppoll(pfds, kConnections, &ts, nullptr) < 0 && errno != EINTR)
            for (Conn &c : conns)
                c.broken = true;
        now = nowNs();
        for (unsigned k = 0; k < kConnections; ++k) {
            Conn &c = conns[k];
            if (pfds[k].revents & POLLOUT)
                c.flush();
            if (!(pfds[k].revents & (POLLIN | POLLERR | POLLHUP)))
                continue;
            for (;;) {
                const ssize_t n = ::recv(c.sock.fd(), buf.data(),
                                         buf.size(), 0);
                if (n > 0) {
                    c.reader.feed(std::span<const std::uint8_t>(
                        buf.data(), std::size_t(n)));
                    continue;
                }
                if (n < 0 && errno == EINTR)
                    continue;
                if (n == 0 || !(errno == EAGAIN || errno == EWOULDBLOCK))
                    c.broken = true;
                break;
            }
            net::Frame f;
            while (c.reader.next(f)) {
                onFrame(f, now);
                last_progress = now;
            }
            if (c.reader.malformed())
                c.broken = true;
        }

        // A broken connection fails its streams; a stall fails all.
        const bool stalled =
            due.empty() && now - last_progress > std::int64_t(kStallS * 1e9);
        const bool broken = std::any_of(conns.begin(), conns.end(),
                                        [](const Conn &c) { return c.broken; });
        if (stalled || broken)
            for (Stream &s : streams)
                if (!s.done && (conns[s.conn].broken || stalled))
                    fail(s);
    }
    if (!ended) {  // every stream failed before the window closed
        w.after = b.engine->stats();
        w.cpuS = processCpuSeconds() - cpu_start;
        w.wallS = double(nowNs() - origin) * 1e-9;
    }

    // The server's own count of refused OPENs, over the wire.
    net::Client client;
    net::StatsReply stats;
    if (client.connect("127.0.0.1", b.server->port()) &&
        client.requestStats(stats))
        w.retryAfter = stats.retryAfterSent;
    else
        ++tally.failed;
    log.end(window_span);
    return w;
}

} // namespace asrbench
