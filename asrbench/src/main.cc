/**
 * @file
 * The repository benchmark driver.
 *
 *   asrbench --workload <stream_wire|offline_dnn|offline_search>
 *            --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
 *
 * --trace 0 measures the end-to-end metrics with tracing off;
 * --trace 1 splits the run into an untraced and a traced window (the
 * pair gives the tracing overhead), takes the per-layer metrics from
 * the traced one and the layer replays that follow, and writes
 * the spans as Chrome trace-event JSON to --trace-out.  Human-readable
 * detail goes to stdout first; the last line is the JSON result.
 * See README.md for what each workload and metric means.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "common/logging.hh"
#include "workload.hh"

using namespace asrbench;

namespace {

/**
 * setup_s is the median of at least kSetupMinRepeats set-ups, repeated
 * until they took kSetupMinSeconds in all (at most kSetupMaxRepeats),
 * so that a set-up of a few milliseconds is not read off one sample.
 */
constexpr int kSetupMinRepeats = 3;
constexpr int kSetupMaxRepeats = 25;
constexpr double kSetupMinSeconds = 1.5;
/** Generator lateness p99 beyond which a run is flagged. */
constexpr double kBehindMs = 5.0;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const char *k = argv[i];
        const char *v = argv[i + 1];
        char *end = nullptr;
        if (!std::strcmp(k, "--workload")) {
            a.workload = v;
            have_workload = true;
        } else if (!std::strcmp(k, "--seed")) {
            a.seed = std::strtoull(v, &end, 10);
        } else if (!std::strcmp(k, "--seconds")) {
            a.seconds = std::strtod(v, &end);
            if (!(a.seconds > 0.0 && a.seconds <= 600.0))
                return false;
        } else if (!std::strcmp(k, "--trace")) {
            a.trace = std::strtol(v, &end, 10) != 0;
        } else if (!std::strcmp(k, "--trace-out")) {
            a.traceOut = v;
        } else {
            return false;
        }
        if (end && *end)
            return false;
    }
    return have_workload && argc % 2 == 1;
}

/** The engine counters a window moved. */
struct Delta
{
    double batches, batchedFrames, batchSeconds, dnnS, searchS;

    Delta(const server::EngineSnapshot &a, const server::EngineSnapshot &b)
        : batches(double(b.dnnBatches - a.dnnBatches)),
          batchedFrames(double(b.dnnBatchedFrames - a.dnnBatchedFrames)),
          batchSeconds(b.dnnBatchSeconds - a.dnnBatchSeconds),
          dnnS(b.dnnSeconds - a.dnnSeconds),
          searchS(b.searchSeconds - a.searchSeconds)
    {
    }

    double
    meanRows() const
    {
        return batches > 0 ? batchedFrames / batches : 0.0;
    }
};

double
cpuMsPerAudioS(const Window &w)
{
    return 1000.0 * w.cpuS / w.audioS;
}

/** The engine's real-time factor over the window, in ms per audio s. */
double
rtfMsPerAudioS(const Window &w)
{
    return 1000.0 * (w.after.decodeSeconds - w.before.decodeSeconds) /
           (w.after.audioSeconds - w.before.audioSeconds);
}

Window
runWindow(const ModelSpec &spec, Built &b, const Corpus &corpus,
          const Reference &ref, double seconds, std::uint64_t seed,
          SpanLog &log, Tally &tally)
{
    return spec.withServer
               ? runStreamWire(b, corpus, ref, seconds, seed, log, tally)
               : runOffline(b, corpus, ref, seconds, seed, log, tally);
}

void
describeCorpus(const Corpus &corpus, const Reference &ref)
{
    std::vector<double> secs, search_ms;
    for (std::size_t u = 0; u < corpus.audio.size(); ++u) {
        secs.push_back(ref.results[u].audioSeconds);
        search_ms.push_back(ref.results[u].searchSeconds * 1e3);
    }
    std::printf("corpus: %zu utterances, %.2f-%.2f s audio, reference "
                "search %.1f/%.1f/%.1f ms (min/median/max)\n",
                secs.size(), quantile(secs, 0), quantile(secs, 1),
                quantile(search_ms, 0), quantile(search_ms, 0.5),
                quantile(search_ms, 1));
}

void
describeWindow(const char *label, const Window &w)
{
    std::printf("%s: %.2f s wall, %.1f s audio (xrt %.2f), cpu %.2f s, "
                "rtf %.2f ms/s, %zu results, final p50 %.2f ms p90 %.2f "
                "ms\n",
                label, w.wallS, w.audioS, w.audioS / w.wallS, w.cpuS,
                rtfMsPerAudioS(w), w.finalMs.size(),
                quantile(w.finalMs, 0.5), quantile(w.finalMs, 0.9));
    if (w.pushUs.empty())
        return;
    // The wire and the generator exist only on stream_wire, so these
    // are printed rather than reported as metrics of every workload.
    const double late_p99 = quantile(w.lateMs, 0.99);
    std::printf("%s wire: push call p50 %.1f us, partial rtt p50 %.1f us, "
                "first partial p50 %.1f ms, retry_after %llu, generator "
                "late p99 %.3f ms; engine latency p50 %.0f ms, first "
                "partial p50 %.0f ms (1 ms buckets)\n",
                label, quantile(w.pushUs, 0.5),
                quantile(w.partialRttUs, 0.5),
                quantile(w.firstPartialMs, 0.5),
                (unsigned long long)w.retryAfter, late_p99,
                w.after.latencyP50Ms, w.after.firstPartialP50Ms);
    if (late_p99 > kBehindMs)
        std::printf("FLAG: generator fell behind in the %s (late p99 "
                    "%.2f ms); its latencies include the generator's own "
                    "delay\n",
                    label, late_p99);
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    ModelSpec spec;
    if (!parseArgs(argc, argv, a) || !specFor(a.workload, spec)) {
        std::fprintf(stderr,
                     "usage: asrbench --workload <stream_wire|offline_dnn|"
                     "offline_search> --seed <n> --seconds <s> "
                     "--trace <0|1> [--trace-out <path>]\n");
        return 2;
    }
    setQuiet(true);
    std::printf("workload %s seed %llu seconds %.0f trace %d\n",
                a.workload.c_str(), (unsigned long long)a.seed, a.seconds,
                int(a.trace));

    SpanLog off(false);
    SpanLog log(a.trace);
    Report rep;
    Tally tally;
    bool correct = true;

    if (!a.trace) {
        // Set up several times; report the median, keep the last.
        std::vector<double> setup;
        double setup_total = 0.0;
        std::unique_ptr<Built> b;
        while (int(setup.size()) < kSetupMaxRepeats &&
               (int(setup.size()) < kSetupMinRepeats ||
                setup_total < kSetupMinSeconds)) {
            b.reset();
            b = std::make_unique<Built>(build(spec, off));
            setup.push_back(b->totalS);
            setup_total += b->totalS;
            std::printf("setup %zu: %.3f s (graph %.3f, model %.3f, "
                        "engine %.3f)\n",
                        setup.size(), b->totalS, b->generateS, b->trainS,
                        b->startS);
        }
        const Corpus corpus = makeCorpus(*b->model, a.seed, spec.corpusSize);
        std::printf("peak rss after set-up: %.2f MB\n", peakRssMb());
        const Reference ref =
            decodeReference(*b->model, spec.engine, corpus);
        std::printf("peak rss after reference: %.2f MB\n", peakRssMb());
        describeCorpus(corpus, ref);
        const Window w =
            runWindow(spec, *b, corpus, ref, a.seconds, a.seed, off, tally);
        describeWindow("window", w);

        rep.set("setup_s", median(setup), "s");
        rep.set("cpu_ms_per_audio_s", cpuMsPerAudioS(w), "ms");
        rep.set("peak_rss_mb", peakRssMb(), "MB");
        rep.set("rtf_ms_per_audio_s", rtfMsPerAudioS(w), "ms");
    } else {
        const std::uint32_t setup_span = log.begin("setup");
        Built b = build(spec, log, setup_span);
        log.end(setup_span);
        const Corpus corpus = makeCorpus(*b.model, a.seed, spec.corpusSize);
        const Reference ref = decodeReference(*b.model, spec.engine, corpus);

        // Half the run untraced, half traced: the pair gives the
        // tracing overhead, the traced half the per-layer numbers.
        const double half = a.seconds / 2.0;
        const Window base =
            runWindow(spec, b, corpus, ref, half, a.seed, off, tally);
        describeWindow("untraced window", base);
        const Window w =
            runWindow(spec, b, corpus, ref, half, a.seed, log, tally);
        describeWindow("traced window", w);

        const Delta d(w.before, w.after);
        const std::uint32_t replay_span = log.begin("replay");
        const LayerReplay lr = replayLayers(*b.model, spec, corpus, ref,
                                            d.meanRows(), log, replay_span);
        log.end(replay_span);
        if (!lr.searchMatched) {
            std::printf("search replay differs from the reference decode\n");
            correct = false;
        }

        // Fig. 1 analogue: the share of the window's process CPU that
        // each layer's replayed cost per frame, scaled to the frames
        // the window decoded, accounts for.  The residue is the tick,
        // wire, sync and driver cost plus whatever the layers lose to
        // contention inside the run.
        const double frames = w.audioS / 0.010;
        const double mfcc = lr.mfccUsPerFrame * frames * 1e-6 / w.cpuS;
        const double acoustic =
            lr.acousticUsPerFrame * frames * 1e-6 / w.cpuS;
        const double search = lr.searchUsPerFrame * frames * 1e-6 / w.cpuS;

        rep.set("pipeline.wfst_generate_s", b.generateS, "s");
        rep.set("pipeline.model_train_s", b.trainS, "s");
        rep.set("api.engine_start_s", b.startS, "s");
        rep.set("frontend.mfcc_us_per_frame", lr.mfccUsPerFrame, "us");
        rep.set("acoustic.score_us_per_frame", lr.acousticUsPerFrame, "us");
        rep.set("acoustic.gmac_per_s", lr.gmacPerS, "GMAC/s");
        rep.set("acoustic.weight_bytes_per_frame", lr.weightBytesPerFrame,
                "B");
        rep.set("search.us_per_frame", lr.searchUsPerFrame, "us");
        rep.set("search.graph_bytes_per_frame", lr.graphBytesPerFrame, "B");
        rep.set("search.tokens_per_frame", lr.tokensPerFrame, "count");
        rep.set("server.mean_batch_rows", d.meanRows(), "count");
        rep.set("server.gemm_wall_share", d.batchSeconds / w.wallS,
                "fraction");
        rep.set("server.search_share",
                d.searchS / (d.searchS + d.dnnS), "fraction");
        rep.set("cpu_share.mfcc", mfcc, "fraction");
        rep.set("cpu_share.acoustic", acoustic, "fraction");
        rep.set("cpu_share.search", search, "fraction");
        rep.set("api.overhead_cpu_share", 1.0 - mfcc - acoustic - search,
                "fraction");
        rep.set("trace.overhead_pct",
                100.0 * (cpuMsPerAudioS(w) / cpuMsPerAudioS(base) - 1.0),
                "%");

        std::printf("fig1 cpu shares: mfcc %.3f acoustic %.3f search %.3f "
                    "residue %.3f\n",
                    mfcc, acoustic, search, 1.0 - mfcc - acoustic - search);
        std::printf("fig13 bytes/frame: graph %.0f (counted), dnn weights "
                    "%.0f (computed), dnn io %.0f (computed)\n",
                    lr.graphBytesPerFrame, lr.weightBytesPerFrame,
                    lr.ioBytesPerFrame);
        for (const auto &[name, s] : log.selfSeconds())
            std::printf("self %-26s %10.3f ms\n", name.c_str(), s * 1e3);
        if (!a.traceOut.empty()) {
            if (log.writeChromeTrace(a.traceOut))
                std::printf("trace: %zu spans -> %s\n", log.size(),
                            a.traceOut.c_str());
            else
                std::printf("trace: cannot write %s\n", a.traceOut.c_str());
        }
    }

    if (tally.failed > 0)
        correct = false;
    if (!rep.allFinite()) {
        std::printf("a metric is not a finite number\n");
        correct = false;
    }
    std::printf("attempted %llu failed %llu mismatched %llu\n",
                (unsigned long long)tally.attempted,
                (unsigned long long)tally.failed,
                (unsigned long long)tally.mismatched);
    std::printf("%s\n", rep.json(correct, tally).c_str());
    std::fflush(stdout);
    return 0;
}
