/**
 * @file
 * Tests for cross-session batched DNN scoring (api::Engine's
 * coordinator + server::BatchScorer): per-utterance results must be
 * bit-identical to the offline whole-utterance pipeline for any
 * thread count and any batch-session cap, the session scoring
 * protocol must round-trip by hand, and the engine must actually
 * coalesce frames (mean batch > 1 with many concurrent sessions).
 */

#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "offline_reference.hh"
#include "pipeline/model.hh"
#include "server/batch_scorer.hh"
#include "server/session.hh"
#include "wfst/generate.hh"

using namespace asr;
using namespace asr::server;
using api::Engine;
using api::EngineOptions;

namespace {

class QuietEnv : public ::testing::Environment
{
  public:
    void SetUp() override { setQuiet(true); }
};

[[maybe_unused]] const auto *env =
    ::testing::AddGlobalTestEnvironment(new QuietEnv);

constexpr unsigned kPhonemes = 8;

class ServerBatchTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        wfst::GeneratorConfig gcfg;
        gcfg.numStates = 200;
        gcfg.numPhonemes = kPhonemes;
        gcfg.numWords = 40;
        gcfg.seed = 2026;
        net = new wfst::Wfst(wfst::generateWfst(gcfg));

        pipeline::AsrSystemConfig mcfg;
        mcfg.numPhonemes = kPhonemes;
        mcfg.hiddenLayers = {32};
        mcfg.trainUtterPerPhoneme = 8;
        mcfg.trainEpochs = 8;
        mcfg.beam = 14.0f;
        mcfg.seed = 47;
        model = new pipeline::AsrModel(*net, mcfg);
    }

    static void
    TearDownTestSuite()
    {
        delete model;
        delete net;
        model = nullptr;
        net = nullptr;
    }

    static frontend::AudioSignal
    testAudio(std::uint64_t seed, unsigned phones = 6)
    {
        Rng rng(seed);
        std::vector<std::uint32_t> seq;
        for (unsigned i = 0; i < phones; ++i)
            seq.push_back(1 + std::uint32_t(rng.below(kPhonemes)));
        return model->synthesizer().synthesize(seq, 3);
    }

    /** Run @p corpus through an engine and collect the results. */
    static std::vector<pipeline::RecognitionResult>
    runEngine(const EngineOptions &cfg,
              const std::vector<frontend::AudioSignal> &corpus,
              EngineSnapshot *snap = nullptr)
    {
        Engine engine(*model, cfg);
        std::vector<std::future<pipeline::RecognitionResult>> futures;
        futures.reserve(corpus.size());
        for (const auto &audio : corpus)
            futures.push_back(engine.submit(audio));
        std::vector<pipeline::RecognitionResult> results;
        results.reserve(futures.size());
        for (auto &f : futures)
            results.push_back(f.get());
        if (snap) {
            engine.drain();
            *snap = engine.stats();
        }
        return results;
    }

    /**
     * Every result must be the offline decode of its utterance, as
     * session u of an engine configured by @p cfg.
     */
    static void
    expectOffline(const EngineOptions &cfg,
                  const std::vector<frontend::AudioSignal> &audios,
                  const std::vector<pipeline::RecognitionResult> &got,
                  const char *what)
    {
        ASSERT_EQ(got.size(), audios.size()) << what;
        for (std::size_t u = 0; u < got.size(); ++u) {
            const auto want =
                test::offlineDecode(*model, audios[u], cfg, u);
            EXPECT_EQ(got[u].sessionId, u) << what;
            EXPECT_EQ(got[u].words, want.words)
                << what << ", utterance " << u;
            EXPECT_EQ(got[u].score, want.score)
                << what << ", utterance " << u;
        }
    }

    static std::vector<frontend::AudioSignal>
    corpus(unsigned count)
    {
        std::vector<frontend::AudioSignal> out;
        out.reserve(count);
        for (unsigned u = 0; u < count; ++u)
            out.push_back(testAudio(100 + u));
        return out;
    }

    static wfst::Wfst *net;
    static pipeline::AsrModel *model;
};

wfst::Wfst *ServerBatchTest::net = nullptr;
pipeline::AsrModel *ServerBatchTest::model = nullptr;

} // namespace

TEST_F(ServerBatchTest, ThreadCountDoesNotChangeBatchModeResults)
{
    const auto audios = corpus(8);
    for (unsigned threads : {1u, 2u, 4u}) {
        EngineOptions cfg;
        cfg.numThreads = threads;
        cfg.baseSeed = 3;
        cfg.ditherAmplitude = 1e-4f;  // exercise per-session RNG too
        const std::string what =
            std::to_string(threads) + " threads";
        expectOffline(cfg, audios, runEngine(cfg, audios),
                      what.c_str());
    }
}

TEST_F(ServerBatchTest, SessionCapDoesNotChangeResults)
{
    const auto audios = corpus(9);
    EngineOptions cfg;
    cfg.numThreads = 2;
    cfg.baseSeed = 5;
    cfg.maxBatchSessions = 32;
    expectOffline(cfg, audios, runEngine(cfg, audios), "32 sessions");
    cfg.maxBatchSessions = 2;  // forces several admission waves
    expectOffline(cfg, audios, runEngine(cfg, audios), "2 sessions");
}

TEST_F(ServerBatchTest, CoalescesFramesAcrossSessions)
{
    const auto audios = corpus(8);
    EngineOptions cfg;
    cfg.numThreads = 1;
    EngineSnapshot snap;
    runEngine(cfg, audios, &snap);
    EXPECT_EQ(snap.utterances, 8u);
    EXPECT_GT(snap.dnnBatches, 0u);
    EXPECT_GT(snap.dnnBatchedFrames, 0u);
    // With 8 sessions in flight the steady-state tick scores ~8
    // frames per pass; even with ramp-up/drain ticks the mean must
    // be well above per-frame scoring.
    EXPECT_GT(snap.dnnMeanBatchRows(), 2.0);
    EXPECT_GE(snap.dnnMaxBatchRows, 8.0);
}

TEST_F(ServerBatchTest, ZeroLengthAndTinyAudio)
{
    std::vector<frontend::AudioSignal> audios;
    frontend::AudioSignal empty;
    empty.sampleRate = model->mfcc().config().sampleRate;
    audios.push_back(empty);                  // zero samples
    frontend::AudioSignal tiny = testAudio(1);
    tiny.samples.resize(100);                 // shorter than a window
    audios.push_back(tiny);
    audios.push_back(testAudio(2));           // a normal utterance

    EngineOptions cfg;
    cfg.numThreads = 1;
    const auto got = runEngine(cfg, audios);

    ASSERT_EQ(got.size(), 3u);
    EXPECT_TRUE(got[0].words.empty());
    EXPECT_EQ(got[0].searchStats.framesDecoded, 0u);
    EXPECT_EQ(got[1].searchStats.framesDecoded, 0u);
    expectOffline(cfg, audios, got, "degenerate audio");
}

TEST_F(ServerBatchTest, DeferredProtocolRoundTripsByHand)
{
    // Drive one session directly through the BatchScorer and check
    // it against the offline pipeline.
    const frontend::AudioSignal audio = testAudio(42);
    const auto want = test::offlineDecode(*model, audio);

    SessionConfig deferCfg;
    deferCfg.id = 7;
    StreamingSession deferred(*model, deferCfg);
    BatchScorer scorer(*model);
    StreamingSession *sessions[] = {&deferred};

    const auto drainPending = [&] {
        if (scorer.score(sessions, acoustic::serialFor()) > 0)
            deferred.consumePendingScores(scorer.scores(),
                                          scorer.base(0),
                                          scorer.secondsShare(0));
    };
    for (std::size_t base = 0; base < audio.samples.size();
         base += 160) {
        const std::size_t len =
            std::min<std::size_t>(160, audio.samples.size() - base);
        deferred.pushAudio(std::span<const float>(
            audio.samples.data() + base, len));
        drainPending();
    }
    deferred.flushPending();
    drainPending();
    const auto got = deferred.finalizeFinish();

    EXPECT_EQ(want.words, got.words);
    EXPECT_EQ(want.score, got.score);
    EXPECT_EQ(got.audioSeconds,
              double(audio.samples.size()) / audio.sampleRate);
}

TEST_F(ServerBatchTest, AcceleratorBackendInBatchMode)
{
    // Batch scoring composes with the accelerator search backend.
    const auto audios = corpus(4);
    EngineOptions cfg;
    cfg.numThreads = 1;
    cfg.useAccelerator = true;
    const auto got = runEngine(cfg, audios);
    expectOffline(cfg, audios, got, "accel");
    for (const auto &r : got)
        EXPECT_GT(r.accelStats.frames, 0u);
}
