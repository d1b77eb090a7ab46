/**
 * @file
 * Serving latency through the network front door: a connections x
 * streams-per-connection sweep over a loopback asr::net::Server,
 * reporting time-to-first-partial and final-result latency
 * percentiles (p50/p99) per configuration.
 *
 * This is the metric the in-process benches cannot see: what a
 * satellite client actually experiences once the wire protocol, the
 * epoll loop and TCP sit between it and the engine.  Each
 * configuration runs a fresh batch-scoring engine (one cross-session
 * GEMM per tick) and a fresh server; every connection runs on its
 * own thread, interleaving its streams' 10 ms chunks the way a
 * multiplexing satellite would.
 *
 * Latency definitions:
 *  - first partial: stream open -> first non-empty partial
 *    hypothesis (a stream whose hypothesis never stabilizes
 *    mid-utterance contributes its final-arrival time: the first
 *    moment the client had any words).
 *  - final: FINISH sent -> FINAL received (tail decode + round
 *    trip).
 *
 * Emits machine-readable results to BENCH_net.json.
 * usage:
 *   net_streaming [--quick] [utterances_per_stream]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hh"
#include "bench_common.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "pipeline/model.hh"
#include "wfst/generate.hh"

using namespace asr;

namespace {

constexpr unsigned kPhonemes = 8;
constexpr std::size_t kChunkSamples = 160;  // 10 ms at 16 kHz

pipeline::AsrModel *
buildModel()
{
    wfst::GeneratorConfig gcfg;
    gcfg.numStates = 800;
    gcfg.numPhonemes = kPhonemes;
    gcfg.numWords = 60;
    gcfg.seed = 2016;
    static wfst::Wfst net = wfst::generateWfst(gcfg);

    pipeline::AsrSystemConfig mcfg;
    mcfg.numPhonemes = kPhonemes;
    mcfg.hiddenLayers = {64};
    mcfg.trainUtterPerPhoneme = 6;
    mcfg.trainEpochs = 6;
    mcfg.beam = 12.0f;
    mcfg.seed = 97;
    static pipeline::AsrModel model(net, mcfg);
    return &model;
}

/** Deterministic corpus: audio depends only on the index. */
std::vector<frontend::AudioSignal>
buildCorpus(const pipeline::AsrModel &model, unsigned count)
{
    std::vector<frontend::AudioSignal> corpus;
    corpus.reserve(count);
    for (unsigned u = 0; u < count; ++u) {
        Rng rng(deriveSeed(4242, u));
        std::vector<std::uint32_t> seq;
        const unsigned phones = 5 + unsigned(rng.below(4));
        for (unsigned i = 0; i < phones; ++i)
            seq.push_back(1 + std::uint32_t(rng.below(kPhonemes)));
        corpus.push_back(model.synthesizer().synthesize(seq, 3));
    }
    return corpus;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = p * double(values.size() - 1);
    const std::size_t lo = std::size_t(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - double(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

struct ConfigResult
{
    unsigned connections = 0;
    unsigned streamsPerConn = 0;
    std::vector<double> firstPartialMs;  //!< one per utterance
    std::vector<double> finalMs;         //!< one per utterance
    double audioSeconds = 0.0;
    double wallSeconds = 0.0;
};

/**
 * One connection's worth of work: open `streams` streams, interleave
 * their chunks round-robin, then finish each in turn.
 */
void
runConnection(std::uint16_t port,
              const std::vector<frontend::AudioSignal> &corpus,
              unsigned streams, unsigned utter_per_stream,
              ConfigResult &result, std::mutex &result_mu)
{
    using clock = std::chrono::steady_clock;
    const auto ms = [](clock::duration d) {
        return std::chrono::duration<double, std::milli>(d).count();
    };

    net::Client client;
    if (!client.connect("127.0.0.1", port)) {
        warn("bench connection failed: %s",
             client.lastError().c_str());
        return;
    }
    std::vector<double> firstPartial, finals;
    double audio_seconds = 0.0;
    for (unsigned round = 0; round < utter_per_stream; ++round) {
        struct Live
        {
            std::uint32_t id;
            const frontend::AudioSignal *audio;
            std::size_t off = 0;
            clock::time_point opened;
            double firstPartialMs = -1.0;
        };
        std::vector<Live> live;
        for (unsigned s = 0; s < streams; ++s) {
            Live l;
            l.id = round * streams + s + 1;
            l.audio = &corpus[(round * streams + s) % corpus.size()];
            l.opened = clock::now();
            if (!client.openStreamRetrying(l.id)) {
                warn("bench open failed: %s",
                     client.lastError().c_str());
                return;
            }
            audio_seconds += l.audio->durationSeconds();
            live.push_back(l);
        }
        // Round-robin 10 ms chunks across the connection's streams,
        // polling each stream's partial after every chunk.
        bool more = true;
        while (more) {
            more = false;
            for (Live &l : live) {
                const std::vector<float> &s = l.audio->samples;
                if (l.off >= s.size())
                    continue;
                const std::size_t len = std::min(
                    kChunkSamples, s.size() - l.off);
                if (!client.pushChunk(
                        l.id, std::span<const float>(
                                  s.data() + l.off, len)))
                    return;
                l.off += len;
                more = true;
                if (l.firstPartialMs < 0.0) {
                    std::vector<wfst::WordId> words;
                    if (!client.requestPartial(l.id, words))
                        return;
                    if (!words.empty())
                        l.firstPartialMs =
                            ms(clock::now() - l.opened);
                }
            }
        }
        for (Live &l : live) {
            const auto finish_sent = clock::now();
            net::FinalResult fin;
            if (!client.finishStream(l.id, fin)) {
                warn("bench finish failed: %s",
                     client.lastError().c_str());
                return;
            }
            finals.push_back(ms(clock::now() - finish_sent));
            firstPartial.push_back(
                l.firstPartialMs >= 0.0
                    ? l.firstPartialMs
                    : ms(clock::now() - l.opened));
        }
    }
    std::lock_guard<std::mutex> lock(result_mu);
    result.firstPartialMs.insert(result.firstPartialMs.end(),
                                 firstPartial.begin(),
                                 firstPartial.end());
    result.finalMs.insert(result.finalMs.end(), finals.begin(),
                          finals.end());
    result.audioSeconds += audio_seconds;
}

ConfigResult
runConfig(const pipeline::AsrModel &model,
          const std::vector<frontend::AudioSignal> &corpus,
          unsigned connections, unsigned streams,
          unsigned utter_per_stream)
{
    api::EngineOptions eopts;
    eopts.numThreads = std::max(
        2u, std::thread::hardware_concurrency() / 2);
    api::Engine engine(model, eopts);
    net::Server server(engine);

    ConfigResult result;
    result.connections = connections;
    result.streamsPerConn = streams;
    std::mutex result_mu;
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < connections; ++c)
        clients.emplace_back([&] {
            runConnection(server.port(), corpus, streams,
                          utter_per_stream, result, result_mu);
        });
    for (std::thread &t : clients)
        t.join();
    result.wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    bool quick = false;
    unsigned utter_per_stream = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else
            utter_per_stream = parseCountArg(
                argv[i], "utterances per stream", 1000);
    }
    if (utter_per_stream == 0)
        utter_per_stream = quick ? 1 : 3;

    bench::banner("net_streaming",
                  "serving latency through the network front door");
    std::printf("building the bench model (deterministic)...\n");
    const pipeline::AsrModel &model = *buildModel();
    const std::vector<frontend::AudioSignal> corpus =
        buildCorpus(model, 8);

    std::vector<std::pair<unsigned, unsigned>> sweep;
    if (quick)
        sweep = {{1, 1}, {2, 2}};
    else
        sweep = {{1, 1}, {1, 4}, {2, 2}, {4, 1}, {4, 4}};

    Table table({"conns", "streams/conn", "utts",
                 "first-partial p50 (ms)", "first-partial p99 (ms)",
                 "final p50 (ms)", "final p99 (ms)", "x realtime"});
    bench::JsonReport report("net");
    for (const auto &[connections, streams] : sweep) {
        const ConfigResult r = runConfig(
            model, corpus, connections, streams, utter_per_stream);
        const double fp50 = percentile(r.firstPartialMs, 0.50);
        const double fp99 = percentile(r.firstPartialMs, 0.99);
        const double fin50 = percentile(r.finalMs, 0.50);
        const double fin99 = percentile(r.finalMs, 0.99);
        const double xrt = r.wallSeconds > 0.0
                               ? r.audioSeconds / r.wallSeconds
                               : 0.0;
        table.row()
            .add(int(connections))
            .add(int(streams))
            .add(std::uint64_t(r.finalMs.size()))
            .add(fp50, 2)
            .add(fp99, 2)
            .add(fin50, 2)
            .add(fin99, 2)
            .addRatio(xrt, 1);

        report.beginRow();
        report.add("connections", int(connections));
        report.add("streams_per_conn", int(streams));
        report.add("utterances",
                   std::uint64_t(r.finalMs.size()));
        report.add("first_partial_p50_ms", fp50);
        report.add("first_partial_p99_ms", fp99);
        report.add("final_p50_ms", fin50);
        report.add("final_p99_ms", fin99);
        report.add("audio_seconds", r.audioSeconds);
        report.add("wall_seconds", r.wallSeconds);
        report.add("x_realtime", xrt);
    }
    table.print();
    report.write();
    return EXIT_SUCCESS;
}
