#include "workload.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "acoustic/matrix.hh"
#include "common/rng.hh"
#include "frontend/mfcc.hh"
#include "pipeline/corpus.hh"
#include "search/backend.hh"

namespace asrbench {

namespace {

double
secondsBetween(std::int64_t a, std::int64_t b)
{
    return double(b - a) * 1e-9;
}

} // namespace

bool
specFor(const std::string &name, ModelSpec &spec)
{
    spec = ModelSpec{};
    api::EngineOptions &e = spec.engine;
    e.batchScoring = true;
    e.baseSeed = 7;
    if (name == "stream_wire") {
        // The model tools/asr_server serves.
        spec.graph.numStates = 1500;
        spec.graph.numPhonemes = 10;
        spec.graph.numWords = 80;
        spec.graph.seed = 7;
        spec.model.numPhonemes = 10;
        spec.model.hiddenLayers = {48};
        spec.model.trainUtterPerPhoneme = 10;
        spec.model.trainEpochs = 10;
        spec.model.beam = 14.0f;
        spec.model.seed = 4242;
        e.numThreads = 2;
        // Room for every stream in flight (~48, more in bursts), so
        // none waits for admission to the coordinator.
        e.maxBatchSessions = 96;
        spec.withServer = true;
        spec.corpusSize = 48;
        spec.searchReplayUtts = 48;
        return true;
    }
    if (name == "offline_dnn") {
        // The throughput_scaling shape: a {1600,1600} DNN whose
        // weights (~10 MB) do not fit in cache.
        spec.graph.numStates = 4000;
        spec.graph.numPhonemes = 12;
        spec.graph.numWords = 200;
        spec.graph.seed = 2016;
        spec.model.numPhonemes = 12;
        spec.model.hiddenLayers = {1600, 1600};
        spec.model.trainUtterPerPhoneme = 6;
        spec.model.trainEpochs = 4;
        spec.model.beam = 12.0f;
        spec.model.seed = 97;
        e.numThreads = 3;
        e.maxBatchSessions = 8;
        spec.corpusSize = 16;
        spec.searchReplayUtts = 16;
        return true;
    }
    if (name == "offline_search") {
        // The paper-scale generated graph, far larger than cache.
        spec.graph = wfst::kaldiLikeConfig(2'000'000, 2016);
        spec.graph.numPhonemes = 12;
        spec.model.numPhonemes = 12;
        spec.model.hiddenLayers = {128};
        spec.model.trainUtterPerPhoneme = 6;
        spec.model.trainEpochs = 4;
        spec.model.beam = 14.0f;
        spec.model.seed = 97;
        // The histogram-pruning cap binds on most frames, so the
        // search work per frame -- and with it the run-to-run cost --
        // does not swing with which utterances a seed drew.
        e.maxActive = 1000;
        e.numThreads = 3;
        e.maxBatchSessions = 8;
        // Utterances still differ in search cost; a large corpus keeps
        // its mean, and so each seed's load, steady.
        spec.corpusSize = 64;
        spec.searchReplayUtts = 8;
        return true;
    }
    return false;
}

Built
build(const ModelSpec &spec, SpanLog &log, std::uint32_t parent)
{
    Built b;
    const std::int64_t t0 = nowNs();
    {
        ScopedSpan s(log, "pipeline.wfst_generate", parent);
        b.net = std::make_unique<wfst::Wfst>(
            wfst::generateWfst(spec.graph));
    }
    const std::int64_t t1 = nowNs();
    {
        ScopedSpan s(log, "pipeline.model_train", parent);
        b.model =
            std::make_unique<pipeline::AsrModel>(*b.net, spec.model);
    }
    const std::int64_t t2 = nowNs();
    {
        ScopedSpan s(log, "api.engine_start", parent);
        b.engine = std::make_unique<api::Engine>(*b.model, spec.engine);
        if (spec.withServer)
            b.server = std::make_unique<net::Server>(*b.engine);
    }
    const std::int64_t t3 = nowNs();
    b.generateS = secondsBetween(t0, t1);
    b.trainS = secondsBetween(t1, t2);
    b.startS = secondsBetween(t2, t3);
    b.totalS = secondsBetween(t0, t3);
    return b;
}

Corpus
makeCorpus(const pipeline::AsrModel &model, std::uint64_t seed,
           unsigned count)
{
    pipeline::CorpusConfig cfg;
    cfg.framesPerUtterance = 200;  // two seconds of speech
    cfg.seed = deriveSeed(seed, 0xC0);
    const auto utts = pipeline::sampleCorpus(model.net(), cfg, count);
    Corpus c;
    c.audio.reserve(utts.size());
    for (const auto &u : utts) {
        const std::vector<std::uint32_t> phones(
            u.framePhonemes.begin(), u.framePhonemes.end());
        c.audio.push_back(
            model.synthesizer().synthesizeFrames(phones));
    }
    return c;
}

bool
Reference::matches(std::size_t u, const std::vector<wfst::WordId> &words,
                   float score) const
{
    const auto &r = results[u];
    return r.words == words && r.score == score;
}

Reference
decodeReference(const pipeline::AsrModel &model,
                const api::EngineOptions &opts, const Corpus &corpus)
{
    api::EngineOptions one = opts;
    one.numThreads = 1;
    one.batchScoring = true;
    api::Engine engine(model, one);
    Reference ref;
    ref.results.reserve(corpus.audio.size());
    for (const auto &audio : corpus.audio)
        ref.results.push_back(engine.recognize(audio));
    return ref;
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

LayerReplay
replayLayers(const pipeline::AsrModel &model, const ModelSpec &spec,
             const Corpus &corpus, const Reference &ref,
             double batch_rows, SpanLog &log, std::uint32_t parent)
{
    LayerReplay out;

    // Front end: MFCC over every utterance.
    std::vector<frontend::FeatureMatrix> feats;
    feats.reserve(corpus.audio.size());
    std::size_t frames = 0;
    std::int64_t busy = 0;
    for (std::size_t u = 0; u < corpus.audio.size(); ++u) {
        ScopedSpan s(log, "frontend.mfcc", parent, u);
        const std::int64_t t0 = nowNs();
        feats.push_back(model.mfcc().compute(corpus.audio[u]));
        busy += nowNs() - t0;
        frames += feats.back().size();
    }
    out.mfccUsPerFrame = double(busy) * 1e-3 / double(frames);

    // Acoustic: scoreBatch over the spliced corpus, in calls of the
    // batch size the engine formed.
    const acoustic::Backend &dnn = model.backend();
    std::vector<std::vector<float>> rows;
    for (const auto &f : feats) {
        auto spliced = frontend::spliceContext(f, model.contextFrames());
        for (auto &r : spliced)
            rows.push_back(std::move(r));
    }
    const std::size_t batch =
        std::max<std::size_t>(1, std::size_t(std::lround(batch_rows)));
    busy = 0;
    std::size_t scored = 0;
    for (std::size_t at = 0; at < rows.size(); at += batch) {
        const std::size_t n = std::min(batch, rows.size() - at);
        acoustic::Matrix in(n, dnn.inputDim());
        for (std::size_t r = 0; r < n; ++r)
            std::copy(rows[at + r].begin(), rows[at + r].end(),
                      in.row(r).begin());
        ScopedSpan s(log, "acoustic.score_batch", parent);
        const std::int64_t t0 = nowNs();
        const acoustic::Matrix scores = dnn.scoreBatch(in);
        busy += nowNs() - t0;
        scored += scores.rows();
    }
    const double acoustic_s = double(busy) * 1e-9;
    out.acousticUsPerFrame = acoustic_s * 1e6 / double(scored);
    out.gmacPerS = double(dnn.macsPerFrame()) * double(scored) /
                   acoustic_s * 1e-9;
    out.weightBytesPerFrame =
        double(dnn.weightBytesPerFrame()) / double(batch);
    out.ioBytesPerFrame =
        double((dnn.inputDim() + dnn.outputDim()) * sizeof(float));

    // Search: the engine's search backend over pre-scored frames.
    search::BackendConfig bcfg;
    bcfg.decoder.beam = spec.engine.beam > 0.0f ? spec.engine.beam
                                                : model.config().beam;
    bcfg.decoder.maxActive = spec.engine.maxActive;
    bcfg.decoder.arenaGcWatermark = spec.engine.arenaGcWatermark;
    auto searcher = search::createBackend(
        spec.engine.effectiveSearchBackend(), model.net(), bcfg);
    busy = 0;
    std::uint64_t searched = 0, graph_bytes = 0, tokens = 0;
    const std::size_t utts =
        std::min<std::size_t>(spec.searchReplayUtts, feats.size());
    for (std::size_t u = 0; u < utts; ++u) {
        const auto likes = model.scorer().score(feats[u]);
        ScopedSpan s(log, "search.decode", parent, u);
        const std::int64_t t0 = nowNs();
        searcher->streamBegin();
        for (std::size_t f = 0; f < likes.numFrames(); ++f)
            searcher->streamFrame(likes.frame(f));
        const decoder::DecodeResult r = searcher->streamFinish();
        busy += nowNs() - t0;
        searched += r.stats.framesDecoded;
        graph_bytes += r.stats.graphBytesTouched;
        tokens += r.stats.tokensExpanded;
        if (!ref.matches(u, r.words, r.score))
            out.searchMatched = false;
    }
    out.searchUsPerFrame = double(busy) * 1e-3 / double(searched);
    out.graphBytesPerFrame = double(graph_bytes) / double(searched);
    out.tokensPerFrame = double(tokens) / double(searched);
    return out;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

void
Report::set(const std::string &name, double value,
            const std::string &unit)
{
    entries.push_back(Entry{name, value, unit});
}

bool
Report::allFinite() const
{
    for (const Entry &e : entries)
        if (!std::isfinite(e.value))
            return false;
    return true;
}

std::string
Report::json(bool correct, const Tally &tally) const
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(tally.attempted);
    s += ", \"failed\": " + std::to_string(tally.failed);
    s += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const Entry &e = entries[i];
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(e.value) ? e.value : 0.0);
        s += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + e.unit + "\"}";
    }
    s += "}}";
    return s;
}

} // namespace asrbench
