#include "fleet/loadgen.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <thread>

#include "net/client.hh"

namespace asr::fleet {

using clock_type = std::chrono::steady_clock;

namespace {

double
millisSince(clock_type::time_point from)
{
    return std::chrono::duration<double, std::milli>(
               clock_type::now() - from)
        .count();
}

} // namespace

// ---------------------------------------------------------------------------
// Arrivals.
// ---------------------------------------------------------------------------

ArrivalProcess::ArrivalProcess(const ArrivalConfig &config)
    : cfg(config), rng(cfg.seed)
{
    cfg.diurnalDepth = std::clamp(cfg.diurnalDepth, 0.0, 1.0);
    if (cfg.ratePerSec <= 0.0)
        cfg.ratePerSec = 1e-9;  // degenerate: arrivals ~never
}

double
ArrivalProcess::next()
{
    if (cfg.kind == ArrivalConfig::Kind::Poisson) {
        // Inverse-CDF of the exponential: -ln(1-U)/rate.  uniform()
        // is in [0, 1), so 1-U is in (0, 1] and the log is finite.
        t += -std::log(1.0 - rng.uniform()) / cfg.ratePerSec;
        return t;
    }
    // Thinning: draw candidates at the peak rate, accept each with
    // probability rate(t)/peak.  The accepted stream is exactly the
    // inhomogeneous Poisson process with the sinusoidal profile.
    const double peak = cfg.ratePerSec * (1.0 + cfg.diurnalDepth);
    for (;;) {
        t += -std::log(1.0 - rng.uniform()) / peak;
        const double rate_t =
            cfg.ratePerSec *
            (1.0 + cfg.diurnalDepth *
                       std::sin(2.0 * M_PI * t /
                                cfg.diurnalPeriodSec));
        if (rng.uniform() * peak <= rate_t)
            return t;
    }
}

// ---------------------------------------------------------------------------
// The open-loop skeleton.
// ---------------------------------------------------------------------------

LoadMetrics
LoadGen::runWith(const Driver &driver,
                 std::span<const frontend::AudioSignal> corpus)
{
    LoadMetrics metrics;
    if (corpus.empty())
        return metrics;

    std::mutex mm;  //!< guards metrics from worker threads
    std::atomic<std::size_t> active{0};
    std::vector<std::thread> workers;

    ArrivalProcess arrivals(cfg.arrivals);
    const clock_type::time_point start = clock_type::now();
    unsigned index = 0;
    for (double at = arrivals.next(); at <= cfg.durationSec;
         at = arrivals.next(), ++index) {
        if (cfg.pace)
            std::this_thread::sleep_until(
                start + std::chrono::duration_cast<
                            clock_type::duration>(
                            std::chrono::duration<double>(at)));
        ++metrics.offered;
        // The open-loop contract: an arrival is never delayed by the
        // system's state.  If too many streams are still in flight
        // the arrival is DROPPED (a client-side shed), not queued --
        // queuing it would quietly turn the generator closed-loop.
        if (active.load(std::memory_order_relaxed) >=
            cfg.maxConcurrent) {
            ++metrics.shedClient;
            continue;
        }
        active.fetch_add(1, std::memory_order_relaxed);
        const unsigned stream_index = index;
        workers.emplace_back([&, stream_index] {
            Rng rng(deriveSeed(cfg.seed, stream_index));
            const frontend::AudioSignal &audio =
                corpus[rng.below(corpus.size())];
            const Outcome out = driver(stream_index, audio, rng);
            active.fetch_sub(1, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(mm);
            switch (out.kind) {
            case Outcome::Kind::Completed:
                ++metrics.completed;
                metrics.finalMs.sample(out.finalMs);
                break;
            case Outcome::Kind::ShedServer:
                ++metrics.shedServer;
                return;  // not admitted; nothing else to record
            case Outcome::Kind::DeadlineExpired:
                ++metrics.deadlineExpired;
                break;
            case Outcome::Kind::Error:
                ++metrics.errors;
                break;
            }
            ++metrics.admitted;
            metrics.audioSecondsPushed += out.audioSeconds;
            if (out.degraded)
                ++metrics.degraded;
            if (out.firstPartialMs >= 0.0)
                metrics.firstPartialMs.sample(out.firstPartialMs);
        });
    }
    for (std::thread &w : workers)
        w.join();
    metrics.elapsedSec =
        std::chrono::duration<double>(clock_type::now() - start)
            .count();
    return metrics;
}

// ---------------------------------------------------------------------------
// In-process driver.
// ---------------------------------------------------------------------------

LoadMetrics
LoadGen::run(api::StreamEndpoint &endpoint,
             std::span<const frontend::AudioSignal> corpus)
{
    return runWith(
        [&](unsigned, const frontend::AudioSignal &audio, Rng &rng) {
            Outcome out;

            // First-partial timing rides the onPartial callback (it
            // fires from an engine thread the moment the hypothesis
            // first changes -- no polling quantization).  Shared
            // state because the callback may outlive this frame's
            // loop iterations.
            struct FirstPartial
            {
                std::mutex mu;
                clock_type::time_point openedAt;
                double ms = -1.0;
            };
            auto fp = std::make_shared<FirstPartial>();
            fp->openedAt = clock_type::now();

            api::StreamOptions sopts;
            sopts.deadlineMs = cfg.deadlineMs;
            sopts.onPartial =
                [fp](const std::vector<wfst::WordId> &words) {
                    if (words.empty())
                        return;
                    std::lock_guard<std::mutex> lock(fp->mu);
                    if (fp->ms < 0.0)
                        fp->ms = millisSince(fp->openedAt);
                };

            api::OpenStatus status = api::OpenStatus::Ok;
            const api::StreamHandle h = endpoint.open(sopts, status);
            if (status != api::OpenStatus::Ok) {
                out.kind = Outcome::Kind::Error;
                return out;
            }

            const std::vector<float> &s = audio.samples;
            auto next_push = clock_type::now();
            for (std::size_t off = 0; off < s.size();
                 off += cfg.chunkSamples) {
                const std::size_t len =
                    std::min(cfg.chunkSamples, s.size() - off);
                if (cfg.pace) {
                    const double gap =
                        double(len) / cfg.sampleRate *
                        (1.0 + rng.uniform() * cfg.paceJitter);
                    next_push += std::chrono::duration_cast<
                        clock_type::duration>(
                        std::chrono::duration<double>(gap));
                    std::this_thread::sleep_until(next_push);
                }
                if (!endpoint.push(
                        h, std::span<const float>(s.data() + off,
                                                  len)))
                    break;  // foreclosed mid-stream (deadline/cancel)
            }
            out.audioSeconds =
                double(s.size()) / cfg.sampleRate;

            const auto finish_at = clock_type::now();
            std::future<pipeline::RecognitionResult> result =
                endpoint.finish(h);
            if (!result.valid()) {
                // finish() raced the deadline watchdog's cancel.
                out.kind = endpoint.deadlineExpired(h)
                               ? Outcome::Kind::DeadlineExpired
                               : Outcome::Kind::Error;
                return out;
            }
            result.get();
            if (endpoint.deadlineExpired(h)) {
                out.kind = Outcome::Kind::DeadlineExpired;
                return out;
            }
            out.kind = Outcome::Kind::Completed;
            out.finalMs = millisSince(finish_at);
            {
                std::lock_guard<std::mutex> lock(fp->mu);
                out.firstPartialMs = fp->ms;
            }
            return out;
        },
        corpus);
}

// ---------------------------------------------------------------------------
// Wire driver.
// ---------------------------------------------------------------------------

LoadMetrics
LoadGen::runNet(const std::string &host, std::uint16_t port,
                std::span<const frontend::AudioSignal> corpus)
{
    return runWith(
        [&](unsigned, const frontend::AudioSignal &audio, Rng &rng) {
            Outcome out;
            net::Client client;
            if (!client.connectRetrying(host, port, 5, 2)) {
                out.kind = Outcome::Kind::Error;
                return out;
            }
            const std::uint32_t id = 1;  //!< own connection per stream
            const auto opened_at = clock_type::now();
            switch (client.openStream(id, cfg.deadlineMs)) {
            case net::Client::OpenOutcome::Ok:
                break;
            case net::Client::OpenOutcome::RetryAfter:
                // Open-loop: a refused arrival is shed and gone; it
                // does not camp on the retry loop (that would be a
                // closed-loop client smoothing the very overload the
                // harness exists to measure).
                out.kind = Outcome::Kind::ShedServer;
                return out;
            case net::Client::OpenOutcome::Error:
                out.kind = Outcome::Kind::Error;
                return out;
            }

            // Over the wire first partials are polled (the protocol
            // is pull-based): one PARTIAL round-trip after each
            // chunk until the hypothesis shows up.
            bool saw_partial = false;
            bool degraded = false;
            const std::vector<float> &s = audio.samples;
            auto next_push = clock_type::now();
            for (std::size_t off = 0; off < s.size();
                 off += cfg.chunkSamples) {
                const std::size_t len =
                    std::min(cfg.chunkSamples, s.size() - off);
                if (cfg.pace) {
                    const double gap =
                        double(len) / cfg.sampleRate *
                        (1.0 + rng.uniform() * cfg.paceJitter);
                    next_push += std::chrono::duration_cast<
                        clock_type::duration>(
                        std::chrono::duration<double>(gap));
                    std::this_thread::sleep_until(next_push);
                }
                if (!client.pushChunk(
                        id, std::span<const float>(s.data() + off,
                                                   len))) {
                    out.kind = Outcome::Kind::Error;
                    return out;
                }
                if (!saw_partial) {
                    net::PartialResult partial;
                    if (client.requestPartial(id, partial) &&
                        !partial.words.empty()) {
                        saw_partial = true;
                        degraded |= partial.degraded;
                        out.firstPartialMs = millisSince(opened_at);
                    }
                }
            }
            out.audioSeconds = double(s.size()) / cfg.sampleRate;

            const auto finish_at = clock_type::now();
            net::FinalResult fin;
            if (!client.finishStream(id, fin)) {
                out.kind = client.deadlineExceeded()
                               ? Outcome::Kind::DeadlineExpired
                               : Outcome::Kind::Error;
                return out;
            }
            out.kind = Outcome::Kind::Completed;
            out.degraded = degraded || fin.degraded;
            out.finalMs = millisSince(finish_at);
            return out;
        },
        corpus);
}

// ---------------------------------------------------------------------------
// Capacity search.
// ---------------------------------------------------------------------------

bool
meetsSlo(const LoadMetrics &metrics, const SloConfig &slo)
{
    if (metrics.offered == 0 || metrics.completed == 0)
        return false;
    if (metrics.errors > 0)
        return false;
    if (metrics.shedRate() > slo.maxShedRate)
        return false;
    if (metrics.firstPartialMs.count() > 0 &&
        metrics.firstPartialMs.quantile(0.99) > slo.firstPartialP99Ms)
        return false;
    if (metrics.finalMs.quantile(0.999) > slo.finalP999Ms)
        return false;
    return true;
}

CapacityResult
findCapacity(const std::function<LoadMetrics(double)> &run_at_rate,
             const SloConfig &slo, double start_rate, double max_rate,
             unsigned refine_steps, double mean_utterance_sec)
{
    CapacityResult result;
    const auto probe = [&](double rate) {
        CapacityProbe p;
        p.ratePerSec = rate;
        p.metrics = run_at_rate(rate);
        p.met = meetsSlo(p.metrics, slo);
        result.probes.push_back(p);
        return p.met;
    };

    // Doubling phase: find a bracketing [good, bad] rate pair.
    double good = 0.0, bad = 0.0;
    double rate = std::min(start_rate, max_rate);
    for (;;) {
        if (probe(rate)) {
            good = rate;
            if (rate >= max_rate) {
                result.ceilingReached = true;
                break;
            }
            rate = std::min(rate * 2.0, max_rate);
        } else {
            bad = rate;
            break;
        }
    }

    // Bisection phase (skipped when the start failed outright or the
    // ceiling held -- nothing to bracket either way).
    if (good > 0.0 && bad > good) {
        for (unsigned i = 0; i < refine_steps; ++i) {
            const double mid = 0.5 * (good + bad);
            if (probe(mid))
                good = mid;
            else
                bad = mid;
        }
    }

    result.sustainedRatePerSec = good;
    result.sustainedStreams = good * mean_utterance_sec;
    return result;
}

} // namespace asr::fleet
