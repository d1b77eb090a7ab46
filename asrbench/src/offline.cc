#include <deque>
#include <future>

#include "common/rng.hh"
#include "workload.hh"

namespace asrbench {

namespace {

constexpr std::size_t kOutstanding = 8;
constexpr double kWarmupS = 1.0;

} // namespace

Window
runOffline(Built &b, const Corpus &corpus, const Reference &ref,
           double seconds, std::uint64_t seed, SpanLog &log, Tally &tally)
{
    struct Job
    {
        std::size_t utt;
        std::uint64_t id;
        std::int64_t submitted;
        std::uint32_t span;
        std::future<pipeline::RecognitionResult> result;
    };

    const std::uint32_t window_span = log.begin("window");
    std::deque<Job> inflight;
    // A seeded random order, so the utterances that share a batch
    // change from wave to wave and their search imbalance averages out.
    Rng order(deriveSeed(seed, 0x0F));
    std::uint64_t seq = 0;

    const std::int64_t warm_until =
        nowNs() + std::int64_t(kWarmupS * 1e9);
    std::int64_t window_start = 0, window_end = 0;
    double cpu_start = 0.0;
    Window w;
    bool submitting = true;

    while (submitting || !inflight.empty()) {
        while (submitting && inflight.size() < kOutstanding) {
            const auto u = std::size_t(order.below(corpus.audio.size()));
            const std::uint64_t id = seq++;
            Job job{u, id, nowNs(), log.begin("job", window_span, id),
                    {}};
            {
                ScopedSpan s(log, "api.submit", job.span, id);
                job.result = b.engine->submit(corpus.audio[u]);
            }
            inflight.push_back(std::move(job));
            ++tally.attempted;
        }

        // Equal-length utterances admitted in order complete in
        // order, so waiting on the oldest loses no completion.
        Job job = std::move(inflight.front());
        inflight.pop_front();
        pipeline::RecognitionResult r;
        {
            ScopedSpan s(log, "api.result_wait", job.span, job.id);
            r = job.result.get();
        }
        const std::int64_t done = nowNs();
        log.end(job.span);
        if (!ref.matches(job.utt, r.words, r.score)) {
            ++tally.failed;
            ++tally.mismatched;
        }

        if (window_start == 0) {
            if (done >= warm_until) {
                window_start = done;
                w.before = b.engine->stats();
                cpu_start = processCpuSeconds();
            }
        } else if (window_end == 0) {
            w.finalMs.push_back(double(done - job.submitted) * 1e-6);
            w.audioS += r.audioSeconds;
            if (double(done - window_start) * 1e-9 >= seconds) {
                window_end = done;
                w.after = b.engine->stats();
                w.cpuS = processCpuSeconds() - cpu_start;
                w.wallS = double(window_end - window_start) * 1e-9;
                submitting = false;
            }
        }
    }
    log.end(window_span);
    return w;
}

} // namespace asrbench
