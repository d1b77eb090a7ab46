/**
 * @file
 * Tests for the unified streaming engine (api::Engine): one public
 * path for one-shot and live-streaming serving, and one execution
 * path (the batch coordinator) behind it.
 *
 *  - Bit-identity: a live stream pushed in arbitrary chunks and a
 *    one-shot submit both produce the offline pipeline's words and
 *    score, at any thread count.
 *  - Stream lifecycle edges: cancel mid-utterance (and while still
 *    queued), push-after-finish rejected, zero-frame streams,
 *    double-finish discipline, destruction with open + finishing
 *    streams.
 *  - Concurrency: >= 8 interleaved live streams over a small thread
 *    pool (TSan runs this via the concurrency label),
 *    with live frames provably reaching the cross-session batch
 *    scorer (mean batch rows > 1); a batch GEMM split across the
 *    stage threads matches a 1-thread engine bit for bit.
 *  - Options validation: unknown search/acoustic backend names are
 *    rejected with diagnostics listing the registered ones, and the
 *    removed per-session mode cannot be selected.
 *  - EngineStats: time-to-first-partial is recorded and rendered.
 *  - Deadlines: the watchdog forecloses abandoned streams at their
 *    StreamOptions::deadlineMs, bounds the finish wait, never fires
 *    on prompt streams, and survives a three-way cancel vs deadline
 *    vs finish race (TSan-checked in CI).
 */

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "acoustic/backend.hh"
#include "api/engine.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "offline_reference.hh"
#include "wfst/generate.hh"

using namespace asr;
using api::Engine;
using api::EngineOptions;
using api::StreamHandle;
using api::StreamState;

namespace {

class QuietEnv : public ::testing::Environment
{
  public:
    void SetUp() override { setQuiet(true); }
};

[[maybe_unused]] const auto *env =
    ::testing::AddGlobalTestEnvironment(new QuietEnv);

constexpr unsigned kPhonemes = 8;

/** Shared net + trained model for the whole suite. */
class ApiEngineTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        wfst::GeneratorConfig gcfg;
        gcfg.numStates = 200;
        gcfg.numPhonemes = kPhonemes;
        gcfg.numWords = 40;
        gcfg.seed = 2027;
        net = new wfst::Wfst(wfst::generateWfst(gcfg));
        model = new pipeline::AsrModel(*net, modelConfig());
    }

    static void
    TearDownTestSuite()
    {
        delete model;
        delete net;
        model = nullptr;
        net = nullptr;
    }

    static pipeline::AsrSystemConfig
    modelConfig()
    {
        pipeline::AsrSystemConfig mcfg;
        mcfg.numPhonemes = kPhonemes;
        mcfg.hiddenLayers = {32};
        mcfg.trainUtterPerPhoneme = 8;
        mcfg.trainEpochs = 8;
        mcfg.beam = 14.0f;
        mcfg.seed = 53;
        return mcfg;
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

    /** Stream @p audio through a live handle in @p chunk chunks. */
    static pipeline::RecognitionResult
    streamThrough(Engine &engine, const frontend::AudioSignal &audio,
                  std::size_t chunk)
    {
        const StreamHandle h = engine.open();
        const std::vector<float> &s = audio.samples;
        for (std::size_t base = 0; base < s.size(); base += chunk) {
            const std::size_t len = std::min(chunk, s.size() - base);
            EXPECT_TRUE(engine.push(
                h, std::span<const float>(s.data() + base, len)));
        }
        return engine.finish(h).get();
    }

    static wfst::Wfst *net;
    static pipeline::AsrModel *model;
};

wfst::Wfst *ApiEngineTest::net = nullptr;
pipeline::AsrModel *ApiEngineTest::model = nullptr;

} // namespace

// ---------------------------------------------------------------------------
// One public path: every entry style produces the same bits.
// ---------------------------------------------------------------------------

TEST_F(ApiEngineTest, LiveStreamMatchesOneShotForAnyChunking)
{
    const frontend::AudioSignal audio = testAudio(7);
    const auto offline = test::offlineDecode(*model, audio);
    for (const unsigned threads : {1u, 2u, 4u}) {
        EngineOptions opts;
        opts.numThreads = threads;
        Engine engine(*model, opts);

        const auto oneShot = engine.recognize(audio);
        EXPECT_EQ(oneShot.words, offline.words) << threads;
        EXPECT_EQ(oneShot.score, offline.score) << threads;
        for (const std::size_t chunk :
             {std::size_t(1), std::size_t(160), std::size_t(997),
              std::size_t(1) << 20}) {
            const auto streamed =
                streamThrough(engine, audio, chunk);
            EXPECT_EQ(streamed.words, offline.words)
                << "chunk " << chunk << " threads " << threads;
            EXPECT_EQ(streamed.score, offline.score)
                << "chunk " << chunk << " threads " << threads;
        }
    }
}

TEST_F(ApiEngineTest, SearchBackendNameSelectsTheBackend)
{
    const frontend::AudioSignal audio = testAudio(13);

    EngineOptions viterbi;
    viterbi.searchBackend = "viterbi";
    Engine sw(*model, viterbi);
    const auto r_sw = sw.recognize(audio);

    EngineOptions baseline;
    baseline.searchBackend = "baseline";
    Engine base(*model, baseline);
    const auto r_base = base.recognize(audio);

    EngineOptions accel;
    accel.searchBackend = "accel";
    accel.runTiming = true;
    Engine hw(*model, accel);
    const auto r_hw = hw.recognize(audio);

    // The optimized and baseline software decoders are bit-identical
    // by contract; the accel agrees to float tolerance and reports
    // cycle stats.
    EXPECT_EQ(r_base.words, r_sw.words);
    EXPECT_EQ(r_base.score, r_sw.score);
    EXPECT_EQ(r_hw.words, r_sw.words);
    EXPECT_NEAR(r_hw.score, r_sw.score, 1e-3f);
    EXPECT_GT(r_hw.accelStats.cycles, 0u);

    // Each engine reproduces its own backend's offline decode.
    for (const auto &[opts, got] :
         {std::pair{viterbi, r_sw}, std::pair{baseline, r_base},
          std::pair{accel, r_hw}}) {
        const auto want = test::offlineDecode(*model, audio, opts);
        EXPECT_EQ(got.words, want.words) << opts.searchBackend;
        EXPECT_EQ(got.score, want.score) << opts.searchBackend;
    }
}

// ---------------------------------------------------------------------------
// Stream lifecycle edges.
// ---------------------------------------------------------------------------

TEST_F(ApiEngineTest, CancelMidUtteranceAbandonsOnlyThatStream)
{
    const frontend::AudioSignal audio = testAudio(17);
    const auto reference = test::offlineDecode(*model, audio);
    for (const unsigned threads : {1u, 2u, 4u}) {
        EngineOptions opts;
        opts.numThreads = threads;
        Engine engine(*model, opts);

        const StreamHandle doomed = engine.open();
        const StreamHandle kept = engine.open();
        const std::vector<float> &s = audio.samples;
        // Feed both halfway, then cancel one mid-utterance.
        std::size_t base = 0;
        for (; base < s.size() / 2; base += 160) {
            const std::size_t len =
                std::min<std::size_t>(160, s.size() - base);
            EXPECT_TRUE(engine.push(
                doomed,
                std::span<const float>(s.data() + base, len)));
            EXPECT_TRUE(engine.push(
                kept, std::span<const float>(s.data() + base, len)));
        }
        EXPECT_TRUE(engine.cancel(doomed));
        EXPECT_EQ(engine.state(doomed), StreamState::Cancelled);
        // Cancelled means cancelled: no push, no second cancel, and
        // a late finish() degrades to an invalid future.
        EXPECT_FALSE(engine.push(doomed, s));
        EXPECT_FALSE(engine.cancel(doomed));
        EXPECT_FALSE(engine.finish(doomed).valid());

        // The surviving stream is unaffected: finish feeding and it
        // must land on the reference bits.
        for (; base < s.size(); base += 160) {
            const std::size_t len =
                std::min<std::size_t>(160, s.size() - base);
            EXPECT_TRUE(engine.push(
                kept, std::span<const float>(s.data() + base, len)));
        }
        const auto survived = engine.finish(kept).get();
        EXPECT_EQ(survived.words, reference.words) << threads;
        EXPECT_EQ(survived.score, reference.score) << threads;
        EXPECT_EQ(engine.state(kept), StreamState::Done);

        // And the engine still serves one-shots afterwards.
        const auto after = engine.recognize(audio);
        EXPECT_EQ(after.words, reference.words);
        EXPECT_EQ(after.score, reference.score);
    }
}

TEST_F(ApiEngineTest, PushAfterFinishIsRejected)
{
    EngineOptions opts;
    Engine engine(*model, opts);
    const frontend::AudioSignal audio = testAudio(19);

    const StreamHandle h = engine.open();
    EXPECT_TRUE(engine.push(h, audio.samples));
    auto future = engine.finish(h);
    // From the moment finish() returns, the stream no longer accepts
    // audio -- even while the tail is still decoding.
    EXPECT_FALSE(engine.push(h, audio.samples));
    const auto r = future.get();
    EXPECT_FALSE(engine.push(h, audio.samples));
    EXPECT_EQ(engine.state(h), StreamState::Done);
    EXPECT_GT(r.audioSeconds, 0.0);
    // Cancel and a second finish after finish are too late, and
    // unknown handles are rejected, not crashed on.
    EXPECT_FALSE(engine.cancel(h));
    EXPECT_FALSE(engine.finish(h).valid());
    EXPECT_FALSE(engine.push(StreamHandle{987654}, audio.samples));
    EXPECT_TRUE(engine.partial(StreamHandle{987654}).empty());
    EXPECT_FALSE(engine.finish(StreamHandle{987654}).valid());
}

TEST_F(ApiEngineTest, ZeroFrameStream)
{
    EngineOptions opts;
    Engine engine(*model, opts);

    // finish() immediately after open(): no audio at all.
    const StreamHandle empty = engine.open();
    const auto r = engine.finish(empty).get();
    EXPECT_TRUE(r.words.empty());
    EXPECT_EQ(r.audioSeconds, 0.0);
    EXPECT_EQ(r.searchStats.framesDecoded, 0u);

    // A push shorter than one analysis window: zero frames too.
    const StreamHandle tiny = engine.open();
    const std::vector<float> blip(399, 0.01f);
    EXPECT_TRUE(engine.push(tiny, blip));
    const auto r2 = engine.finish(tiny).get();
    EXPECT_TRUE(r2.words.empty());
    EXPECT_GT(r2.audioSeconds, 0.0);
    EXPECT_EQ(r2.searchStats.framesDecoded, 0u);
}

TEST_F(ApiEngineTest, DestructionCancelsOpenStreams)
{
    // The coordinator + stage workers are mid-tick on the cancelled
    // sessions -- the shutdown ordering that once could deadlock the
    // destructor's join() when stage workers honoured stageStop with
    // a generation pending.
    const frontend::AudioSignal audio = testAudio(23);
    for (const unsigned threads : {1u, 3u}) {
        // Destroy while streams are Open with work still queued: the
        // engine is mid-tick when the destructor cancels them, so
        // drain() has nothing to wait for and shutdown races the
        // in-flight stage machinery.
        EngineOptions opts;
        opts.numThreads = threads;
        {
            Engine engine(*model, opts);
            const StreamHandle open1 = engine.open();
            const StreamHandle open2 = engine.open();
            const std::vector<float> &s = audio.samples;
            for (std::size_t base = 0; base < s.size(); base += 160) {
                const std::size_t len =
                    std::min<std::size_t>(160, s.size() - base);
                EXPECT_TRUE(engine.push(
                    open1,
                    std::span<const float>(s.data() + base, len)));
                EXPECT_TRUE(engine.push(
                    open2,
                    std::span<const float>(s.data() + base, len)));
            }
            // No finish(): the destructor must cancel both, not hang.
        }

        // And with a Finishing stream alongside an Open one: drain()
        // must wait for (only) the finishing stream's result, which
        // stays valid across destruction.
        std::future<pipeline::RecognitionResult> finishing;
        {
            Engine engine(*model, opts);
            const StreamHandle open1 = engine.open();
            const StreamHandle open2 = engine.open();
            EXPECT_TRUE(engine.push(open1, audio.samples));
            EXPECT_TRUE(engine.push(open2, audio.samples));
            finishing = engine.finish(open2);
        }
        ASSERT_TRUE(finishing.valid()) << "threads " << threads;
        const auto r = finishing.get();
        EXPECT_GT(r.audioSeconds, 0.0) << "threads " << threads;
    }
}

TEST_F(ApiEngineTest, InvalidHandleContractCoversEveryAccessor)
{
    // The documented StreamHandle contract (engine.hh): value 0 is
    // never issued, and every accessor degrades cleanly on invalid,
    // never-issued, or terminal handles.
    const frontend::AudioSignal audio = testAudio(61, 3);
    {
        EngineOptions opts;
        opts.numThreads = 2;
        Engine engine(*model, opts);

        const StreamHandle defaulted;  // value == 0
        StreamHandle garbage;
        garbage.value = 0xDEADBEEFull;  // never issued
        for (const StreamHandle h : {defaulted, garbage}) {
            EXPECT_FALSE(engine.push(h, audio.samples));
            EXPECT_TRUE(engine.partial(h).empty());
            EXPECT_FALSE(engine.finish(h).valid());
            EXPECT_FALSE(engine.cancel(h));
            EXPECT_EQ(engine.state(h), StreamState::Done);
        }
        // The rejected finish() attempts above must not have leaked
        // outstanding-result accounting: drain() returns.
        engine.drain();

        // A finished (terminal but still-tracked) handle: same
        // degradation for mutators, state stays queryable.
        const StreamHandle done = engine.open();
        ASSERT_NE(done.value, 0u);
        EXPECT_TRUE(engine.push(done, audio.samples));
        ASSERT_TRUE(engine.finish(done).valid());
        engine.drain();
        EXPECT_EQ(engine.state(done), StreamState::Done);
        EXPECT_FALSE(engine.push(done, audio.samples));
        EXPECT_FALSE(engine.finish(done).valid());
        EXPECT_FALSE(engine.cancel(done));
        engine.drain();
    }
}

TEST_F(ApiEngineTest, OpenStatusDistinguishesFailures)
{
    // A rejected open() must be machine-readable -- a server maps it
    // to a hard ERROR without parsing log text -- and must not stop
    // the engine admitting well-formed streams.
    EngineOptions opts;
    opts.numThreads = 1;
    Engine engine(*model, opts);

    // Any number of streams open on one thread: the coordinator
    // multiplexes them.
    api::OpenStatus status = api::OpenStatus::InvalidOptions;
    std::vector<StreamHandle> opened;
    for (int i = 0; i < 4; ++i) {
        opened.push_back(engine.open(api::StreamOptions(), status));
        ASSERT_NE(opened.back().value, 0u);
        EXPECT_EQ(status, api::OpenStatus::Ok);
    }
    for (const StreamHandle h : opened)
        EXPECT_TRUE(engine.cancel(h));

    // Structurally bad options are permanent: wake-word gating
    // without the endpointer it requires...
    api::StreamOptions gated;
    gated.wakeWord.assign(1600, 0.0f);
    const StreamHandle bad1 = engine.open(gated, status);
    EXPECT_EQ(bad1.value, 0u);
    EXPECT_EQ(status, api::OpenStatus::InvalidOptions);

    // ...and an endpointer detector that names no registered VAD.
    api::StreamOptions unknown;
    unknown.autoEndpoint = true;
    unknown.endpoint.detector = "no-such-detector";
    const StreamHandle bad2 = engine.open(unknown, status);
    EXPECT_EQ(bad2.value, 0u);
    EXPECT_EQ(status, api::OpenStatus::InvalidOptions);

    // The one-argument open() keeps its historical contract.
    const StreamHandle shim = engine.open();
    EXPECT_NE(shim.value, 0u);
    EXPECT_TRUE(engine.cancel(shim));
}

TEST_F(ApiEngineTest, PushForTimesOutInsteadOfBlocking)
{
    // An event loop cannot afford push()'s unbounded wait on a full
    // chunk queue.  maxBatchSessions=1 makes the stall
    // deterministic: stream A is admitted (admission is sticky
    // until a stream retires), so stream B's inbound queue never
    // drains and fills after maxQueuedChunks chunks.
    EngineOptions opts;
    opts.numThreads = 1;
    opts.maxBatchSessions = 1;
    opts.maxQueuedChunks = 4;
    Engine engine(*model, opts);
    const frontend::AudioSignal audio = testAudio(83);
    const std::span<const float> chunk(audio.samples.data(), 160);

    const StreamHandle a = engine.open();
    const StreamHandle b = engine.open();
    ASSERT_NE(a.value, 0u);
    ASSERT_NE(b.value, 0u);

    using api::PushResult;
    for (unsigned i = 0; i < 4; ++i)
        ASSERT_EQ(engine.pushFor(b, chunk,
                                 std::chrono::milliseconds(0)),
                  PushResult::Ok)
            << "chunk " << i;
    // Queue full: a zero-wait push and a bounded-wait push both
    // report WouldBlock -- promptly, without queueing the chunk.
    EXPECT_EQ(engine.pushFor(b, chunk, std::chrono::nanoseconds(0)),
              PushResult::WouldBlock);
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(engine.pushFor(b, chunk,
                             std::chrono::milliseconds(10)),
              PushResult::WouldBlock);
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(5));
    EXPECT_EQ(engine.state(b), StreamState::Open);

    // Retiring A admits B; its queue drains and the same push
    // succeeds -- WouldBlock marked a moment, not the stream.
    EXPECT_TRUE(engine.cancel(a));
    EXPECT_EQ(engine.pushFor(b, chunk, std::chrono::seconds(30)),
              PushResult::Ok);
    const auto result = engine.finish(b).get();
    EXPECT_GT(result.audioSeconds, 0.0);

    // Terminal and never-issued handles are Rejected, not
    // WouldBlock: retrying would never help.
    EXPECT_EQ(engine.pushFor(b, chunk, std::chrono::nanoseconds(0)),
              PushResult::Rejected);
    StreamHandle garbage;
    garbage.value = 0xDEADBEEFull;
    EXPECT_EQ(engine.pushFor(garbage, chunk,
                             std::chrono::nanoseconds(0)),
              PushResult::Rejected);
}

TEST_F(ApiEngineTest, EvictedHandleNeverAliasesALaterStream)
{
    // Eviction audit: retired handles leave the state() map (bounded
    // by EngineOptions::retiredHandleCap), so a stale handle held
    // past the window must degrade cleanly -- and must never alias a
    // younger stream.  Handle values are a monotonic counter, never
    // recycled, which this test pins down.
    const frontend::AudioSignal audio = testAudio(97, 3);
    EngineOptions opts;
    opts.numThreads = 2;
    opts.retiredHandleCap = 4;
    Engine engine(*model, opts);

    std::vector<StreamHandle> handles;
    for (unsigned u = 0; u < 12; ++u) {
        const StreamHandle h = engine.open();
        ASSERT_NE(h.value, 0u);
        if (!handles.empty()) {
            EXPECT_GT(h.value, handles.back().value)
                << "handle values must be strictly increasing";
        }
        handles.push_back(h);
        EXPECT_TRUE(engine.push(h, audio.samples));
        ASSERT_TRUE(engine.finish(h).valid());
        engine.drain();
    }

    // The oldest handles are far outside the 4-entry retention
    // window; every accessor degrades exactly like a never-issued
    // handle, with no crosstalk into live streams.
    const StreamHandle live = engine.open();
    ASSERT_NE(live.value, 0u);
    for (unsigned u = 0; u < 4; ++u) {
        const StreamHandle stale = handles[u];
        EXPECT_NE(stale.value, live.value);
        EXPECT_FALSE(engine.push(stale, audio.samples));
        EXPECT_TRUE(engine.partial(stale).empty());
        EXPECT_FALSE(engine.finish(stale).valid());
        EXPECT_FALSE(engine.cancel(stale));
        EXPECT_EQ(engine.state(stale), StreamState::Done);
    }
    // The live stream is untouched by the stale traffic.
    EXPECT_EQ(engine.state(live), StreamState::Open);
    EXPECT_TRUE(engine.push(live, audio.samples));
    const auto result = engine.finish(live).get();
    EXPECT_GT(result.audioSeconds, 0.0);
}

TEST_F(ApiEngineTest, CancelWhileQueuedInBatchMode)
{
    // Streams cancelled right after open() race the coordinator's
    // admission: whichever side wins, the coordinator must retire
    // them without building (or with discarding) a session and stay
    // healthy for real work.
    EngineOptions opts;
    opts.numThreads = 2;
    Engine engine(*model, opts);
    for (int i = 0; i < 32; ++i) {
        const StreamHandle h = engine.open();
        EXPECT_TRUE(engine.cancel(h));
        EXPECT_EQ(engine.state(h), StreamState::Cancelled);
    }
    const frontend::AudioSignal audio = testAudio(47);
    const auto r = engine.recognize(audio);
    EXPECT_GT(r.audioSeconds, 0.0);
    EXPECT_EQ(engine.stats().utterances, 1u);
}

// ---------------------------------------------------------------------------
// Live streams x batch scoring x concurrency.
// ---------------------------------------------------------------------------

TEST_F(ApiEngineTest, LiveStreamsReachTheBatchScorer)
{
    // The acceptance gate of the unified API: two concurrent live
    // clients must coalesce into cross-session GEMM batches (mean
    // batch rows > 1), while reproducing the offline bits.
    const frontend::AudioSignal a = testAudio(29);
    const frontend::AudioSignal b = testAudio(31);
    const auto want_a = test::offlineDecode(*model, a);
    const auto want_b = test::offlineDecode(*model, b);

    EngineOptions opts;
    opts.numThreads = 2;
    Engine engine(*model, opts);
    const StreamHandle ha = engine.open();
    const StreamHandle hb = engine.open();
    const std::size_t steps =
        std::max(a.samples.size(), b.samples.size());
    for (std::size_t base = 0; base < steps; base += 160) {
        if (base < a.samples.size())
            engine.push(ha, std::span<const float>(
                                a.samples.data() + base,
                                std::min<std::size_t>(
                                    160, a.samples.size() - base)));
        if (base < b.samples.size())
            engine.push(hb, std::span<const float>(
                                b.samples.data() + base,
                                std::min<std::size_t>(
                                    160, b.samples.size() - base)));
    }
    auto fa = engine.finish(ha);
    auto fb = engine.finish(hb);
    const auto got_a = fa.get();
    const auto got_b = fb.get();

    EXPECT_EQ(got_a.words, want_a.words);
    EXPECT_EQ(got_a.score, want_a.score);
    EXPECT_EQ(got_b.words, want_b.words);
    EXPECT_EQ(got_b.score, want_b.score);

    const auto snap = engine.stats();
    EXPECT_GT(snap.dnnBatches, 0u);
    EXPECT_GT(snap.dnnMeanBatchRows(), 1.0)
        << "live streams did not coalesce into the batch scorer";
}

TEST_F(ApiEngineTest, EightInterleavedLiveStreams)
{
    // >= 8 concurrent live clients over a 3-thread engine:
    // interleaved pushes from client threads, partial polling from
    // the driver, per-stream results bit-identical to offline
    // decodes.
    constexpr unsigned kStreams = 8;
    std::vector<frontend::AudioSignal> corpus;
    for (unsigned u = 0; u < kStreams; ++u)
        corpus.push_back(testAudio(200 + u, 4 + u % 3));

    std::vector<decoder::DecodeResult> want;
    for (unsigned u = 0; u < kStreams; ++u)
        want.push_back(test::offlineDecode(*model, corpus[u]));

    EngineOptions opts;
    opts.numThreads = 3;
    Engine engine(*model, opts);

    std::vector<StreamHandle> handles(kStreams);
    for (unsigned u = 0; u < kStreams; ++u)
        handles[u] = engine.open();

    // One pusher thread per stream, all racing.
    std::vector<std::thread> pushers;
    for (unsigned u = 0; u < kStreams; ++u) {
        pushers.emplace_back([&, u] {
            const std::vector<float> &s = corpus[u].samples;
            const std::size_t chunk = 160 + 16 * u;  // vary shapes
            for (std::size_t base = 0; base < s.size();
                 base += chunk) {
                const std::size_t len =
                    std::min(chunk, s.size() - base);
                EXPECT_TRUE(engine.push(
                    handles[u],
                    std::span<const float>(s.data() + base, len)));
            }
        });
    }
    // Poll interleaved partials while the pushers run.
    for (int poll = 0; poll < 50; ++poll)
        for (unsigned u = 0; u < kStreams; ++u)
            (void)engine.partial(handles[u]);
    for (std::thread &t : pushers)
        t.join();

    std::vector<std::future<pipeline::RecognitionResult>> futures;
    for (unsigned u = 0; u < kStreams; ++u)
        futures.push_back(engine.finish(handles[u]));
    for (unsigned u = 0; u < kStreams; ++u) {
        const auto got = futures[u].get();
        EXPECT_EQ(got.words, want[u].words) << "stream " << u;
        EXPECT_EQ(got.score, want[u].score) << "stream " << u;
        EXPECT_EQ(got.sessionId, handles[u].value - 1);
    }

    const auto snap = engine.stats();
    EXPECT_EQ(snap.utterances, kStreams);
    EXPECT_GT(snap.dnnMeanBatchRows(), 1.0);
    // Every stream that produced words showed a first partial.
    EXPECT_GT(snap.firstPartials, 0u);
}

TEST_F(ApiEngineTest, GemmSplitAcrossStageThreadsIsBitIdentical)
{
    // A DNN wide enough that a tick's first layer passes the GEMM
    // split floor, so a 3-thread engine deals that layer's work items
    // to its stage workers (TSan covers the cross-thread writes via
    // the concurrency label).  The 1-thread engine scores the same
    // ticks serially; both must match the offline pipeline bit for
    // bit.
    // Accuracy does not matter here, so training is minimal.
    pipeline::AsrSystemConfig mcfg = modelConfig();
    mcfg.hiddenLayers = {1024};
    mcfg.trainUtterPerPhoneme = 2;
    mcfg.trainEpochs = 1;
    const pipeline::AsrModel wide(*net, mcfg);

    constexpr unsigned kUtterances = 8;
    std::vector<frontend::AudioSignal> corpus;
    for (unsigned u = 0; u < kUtterances; ++u)
        corpus.push_back(testAudio(300 + u, 4 + u % 3));

    const auto runAll = [&](unsigned threads) {
        EngineOptions opts;
        opts.numThreads = threads;
            Engine engine(wide, opts);
        std::vector<std::future<pipeline::RecognitionResult>> futures;
        for (const frontend::AudioSignal &audio : corpus)
            futures.push_back(engine.submit(audio));
        std::vector<pipeline::RecognitionResult> results;
        for (auto &f : futures)
            results.push_back(f.get());
        // The widest tick must have been big enough to split.
        const std::uint64_t macs =
            std::uint64_t(engine.stats().dnnMaxBatchRows) *
            wide.backend().inputDim() * mcfg.hiddenLayers[0];
        EXPECT_GE(macs, acoustic::kGemmSplitFloorMacs)
            << threads << "-thread engine";
        return results;
    };
    const auto serial = runAll(1);
    const auto split = runAll(3);
    ASSERT_EQ(serial.size(), kUtterances);
    ASSERT_EQ(split.size(), kUtterances);
    for (unsigned u = 0; u < kUtterances; ++u) {
        const auto want = test::offlineDecode(wide, corpus[u]);
        EXPECT_EQ(serial[u].words, want.words) << "utterance " << u;
        EXPECT_EQ(serial[u].score, want.score) << "utterance " << u;
        EXPECT_EQ(split[u].words, want.words) << "utterance " << u;
        EXPECT_EQ(split[u].score, want.score) << "utterance " << u;
    }
}

TEST_F(ApiEngineTest, PartialCallbacksFireOnChange)
{
    const frontend::AudioSignal audio = testAudio(37, 8);
    EngineOptions opts;
    Engine engine(*model, opts);

    std::atomic<unsigned> calls{0};
    std::vector<wfst::WordId> last;
    std::mutex lastMu;
    api::StreamOptions sopts;
    sopts.onPartial = [&](const std::vector<wfst::WordId> &words) {
        ++calls;
        std::lock_guard<std::mutex> lock(lastMu);
        last = words;
    };
    const StreamHandle h = engine.open(sopts);
    const std::vector<float> &s = audio.samples;
    for (std::size_t base = 0; base < s.size(); base += 160) {
        const std::size_t len =
            std::min<std::size_t>(160, s.size() - base);
        engine.push(h,
                    std::span<const float>(s.data() + base, len));
    }
    const auto r = engine.finish(h).get();
    if (!r.words.empty()) {
        EXPECT_GT(calls.load(), 0u);
        // The last published partial is a plausible prefix-ish of
        // the final hypothesis: at minimum, non-empty.
        std::lock_guard<std::mutex> lock(lastMu);
        EXPECT_FALSE(last.empty());
    }

    const auto snap = engine.stats();
    EXPECT_EQ(snap.firstPartials, r.words.empty() ? 0u : 1u);
    if (snap.firstPartials > 0) {
        EXPECT_GE(snap.firstPartialP99Ms, snap.firstPartialP50Ms);
        EXPECT_NE(snap.render().find("first partial"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------------
// Options validation.
// ---------------------------------------------------------------------------

TEST_F(ApiEngineTest, ValidateRejectsUnknownBackendsListingKnown)
{
    EngineOptions opts;
    EXPECT_TRUE(opts.validate().empty());

    opts.searchBackend = "warp-speed";
    const std::string searchErr = opts.validate();
    ASSERT_FALSE(searchErr.empty());
    EXPECT_NE(searchErr.find("warp-speed"), std::string::npos);
    for (const char *name : {"viterbi", "baseline", "accel"})
        EXPECT_NE(searchErr.find(name), std::string::npos) << name;

    opts.searchBackend = "viterbi";
    opts.acousticBackend = "float128";
    const std::string acousticErr = opts.validate();
    ASSERT_FALSE(acousticErr.empty());
    EXPECT_NE(acousticErr.find("float128"), std::string::npos);
    for (const char *name :
         {"reference", "blocked", "blocked-avx2", "int8", "int8-avx2"})
        EXPECT_NE(acousticErr.find(name), std::string::npos) << name;

    opts.acousticBackend = "blocked";
    EXPECT_TRUE(opts.validate().empty());

    // The legacy switch resolves through the same validation.
    EngineOptions legacy;
    legacy.useAccelerator = true;
    EXPECT_EQ(legacy.effectiveSearchBackend(), "accel");
    EXPECT_TRUE(legacy.validate().empty());
}

TEST_F(ApiEngineTest, ValidateRejectsPerSessionMode)
{
    // The batch coordinator is the engine's only execution path; the
    // field that once selected per-session mode must stay true.
    EngineOptions opts;
    EXPECT_TRUE(opts.batchScoring);
    EXPECT_TRUE(opts.validate().empty());
    opts.batchScoring = false;
    const std::string err = opts.validate();
    ASSERT_FALSE(err.empty());
    EXPECT_NE(err.find("per-session mode was removed"),
              std::string::npos)
        << err;
}

TEST_F(ApiEngineTest, StatsAndDrainCoverAllEntryStyles)
{
    EngineOptions opts;
    opts.numThreads = 2;
    Engine engine(*model, opts);

    const frontend::AudioSignal audio = testAudio(41);
    auto f1 = engine.submit(audio);
    const StreamHandle h = engine.open();
    engine.push(h, audio.samples);
    auto f2 = engine.finish(h);
    f1.get();
    f2.get();
    engine.drain();

    const auto snap = engine.stats();
    EXPECT_EQ(snap.utterances, 2u);
    EXPECT_EQ(engine.submittedCount(), 2u);
    EXPECT_GT(snap.audioSeconds, 0.0);
}

// ---------------------------------------------------------------------------
// Deadline watchdog.
// ---------------------------------------------------------------------------

TEST_F(ApiEngineTest, DeadlineForeclosesAnAbandonedOpenStream)
{
    for (const unsigned threads : {1u, 2u}) {
        EngineOptions opts;
        opts.numThreads = threads;
        Engine engine(*model, opts);

        api::StreamOptions sopts;
        sopts.deadlineMs = 40;
        const StreamHandle h = engine.open(sopts);
        const frontend::AudioSignal audio = testAudio(103, 3);
        engine.push(h, std::span<const float>(audio.samples.data(),
                                              1600));

        // Abandoned: no finish() ever comes.  The watchdog must
        // foreclose it like a cancel, marked as a deadline.
        const auto give_up = std::chrono::steady_clock::now() +
                             std::chrono::seconds(10);
        while (engine.state(h) == StreamState::Open &&
               std::chrono::steady_clock::now() < give_up)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        EXPECT_EQ(engine.state(h), StreamState::Cancelled)
            << "threads=" << threads;
        EXPECT_TRUE(engine.deadlineExpired(h));
        EXPECT_FALSE(engine.push(h, audio.samples));
        EXPECT_GE(engine.stats().deadlinesExpired, 1u);
        engine.drain();
    }
}

TEST_F(ApiEngineTest, PromptFinishBeatsItsDeadline)
{
    const frontend::AudioSignal audio = testAudio(107);
    for (const unsigned threads : {1u, 2u}) {
        EngineOptions opts;
        opts.numThreads = threads;

        // Reference without a deadline (fresh engine: session id 0).
        pipeline::RecognitionResult want;
        {
            Engine reference(*model, opts);
            want = reference.recognize(audio);
        }

        Engine engine(*model, opts);
        api::StreamOptions sopts;
        sopts.deadlineMs = 60'000;  // cannot plausibly expire
        const StreamHandle h = engine.open(sopts);
        engine.push(h, audio.samples);
        const pipeline::RecognitionResult got = engine.finish(h).get();
        EXPECT_EQ(got.words, want.words) << "threads=" << threads;
        EXPECT_EQ(got.score, want.score);
        EXPECT_FALSE(engine.deadlineExpired(h));
        EXPECT_EQ(engine.stats().deadlinesExpired, 0u);
    }
}

TEST_F(ApiEngineTest, DeadlineBoundsTheFinishWait)
{
    // A finish() racing its own deadline resolves either way: the
    // decode wins (real result) or the watchdog wins (empty result,
    // stream marked expired).  Either is legal; an unresolved future
    // or a wedge is not.
    const frontend::AudioSignal audio = testAudio(109, 8);
    for (const unsigned threads : {1u, 2u}) {
        EngineOptions opts;
        opts.numThreads = threads;
        Engine engine(*model, opts);

        api::StreamOptions sopts;
        sopts.deadlineMs = 2;  // tighter than a full decode
        const StreamHandle h = engine.open(sopts);
        engine.push(h, std::span<const float>(audio.samples.data(),
                                              1600));
        auto future = engine.finish(h);
        ASSERT_TRUE(future.valid());
        ASSERT_EQ(future.wait_for(std::chrono::seconds(10)),
                  std::future_status::ready)
            << "threads=" << threads;
        const pipeline::RecognitionResult result = future.get();
        if (engine.deadlineExpired(h)) {
            EXPECT_TRUE(result.words.empty());
        }
        engine.drain();
    }
}

TEST_F(ApiEngineTest, CancelDeadlineFinishRaceNeverWedges)
{
    // Three-way race on every stream: a pusher/finisher thread, a
    // cancelling thread, and the deadline watchdog, with budgets of
    // 1..20 ms straddling the decode time.  Any interleaving of the
    // three terminations is legal; the assertions are that every
    // valid finish future resolves, terminal states are consistent,
    // and drain() completes (no outstanding-result leaks, no wedge).
    // The concurrency label runs this under TSan in CI.
    constexpr unsigned kStreams = 24;
    const frontend::AudioSignal audio = testAudio(113, 4);
    for (const unsigned threads : {1u, 3u}) {
        EngineOptions opts;
        opts.numThreads = threads;
        Engine engine(*model, opts);

        std::vector<StreamHandle> handles(kStreams);
        for (unsigned i = 0; i < kStreams; ++i) {
            api::StreamOptions sopts;
            sopts.deadlineMs = 1 + i % 20;
            handles[i] = engine.open(sopts);
            ASSERT_NE(handles[i].value, 0u) << "threads=" << threads;
        }

        std::vector<std::future<pipeline::RecognitionResult>> futures(
            kStreams);
        std::thread finisher([&] {
            for (unsigned i = 0; i < kStreams; ++i) {
                engine.push(handles[i],
                            std::span<const float>(audio.samples.data(),
                                                   1600));
                if (i % 3 != 2)
                    futures[i] = engine.finish(handles[i]);
            }
        });
        std::thread canceller([&] {
            for (unsigned i = 0; i < kStreams; ++i) {
                if (i % 2 == 0)
                    engine.cancel(handles[i]);
                if (i % 5 == 0)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
            }
        });
        finisher.join();
        canceller.join();

        for (unsigned i = 0; i < kStreams; ++i) {
            if (!futures[i].valid())
                continue;
            ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(10)),
                      std::future_status::ready)
                << "stream " << i << " threads=" << threads;
            futures[i].get();
        }
        // Every stream must leave Open -- by cancel, finish, or its
        // deadline (at most 20 ms out).
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        for (unsigned i = 0; i < kStreams; ++i) {
            while (engine.state(handles[i]) == StreamState::Open &&
                   std::chrono::steady_clock::now() < give_up)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            EXPECT_NE(engine.state(handles[i]), StreamState::Open)
                << i << " threads=" << threads;
        }
        engine.drain();
    }
}
