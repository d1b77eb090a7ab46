/**
 * @file
 * Tests for the TokenStore search rewrite: the epoch-tagged flat
 * hash itself (insert/improve discipline, growth, epoch rollover),
 * the backpointer-arena garbage collector (bit-identity under load,
 * bounded streaming memory), the skip-doomed-appends optimization,
 * the cached streamPartial, and a property sweep pinning the
 * optimized decoder to the frozen baseline and the accelerator
 * model.
 */

#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "accel/accelerator.hh"
#include "acoustic/scorer.hh"
#include "common/logging.hh"
#include "decoder/baseline.hh"
#include "decoder/token_store.hh"
#include "decoder/viterbi.hh"
#include "token_store_support.hh"

using namespace asr;
using namespace asr::decoder;
using namespace asr::test_support;

namespace {

class QuietEnv : public ::testing::Environment
{
  public:
    void SetUp() override { setQuiet(true); }
};

[[maybe_unused]] const auto *env =
    ::testing::AddGlobalTestEnvironment(new QuietEnv);

void
expectSameDecode(const DecodeResult &a, const DecodeResult &b,
                 const char *what)
{
    EXPECT_EQ(a.words, b.words) << what;
    EXPECT_EQ(a.score, b.score) << what;  // bitwise, not NEAR
    EXPECT_EQ(a.bestState, b.bestState) << what;
    EXPECT_EQ(a.stats.tokensExpanded, b.stats.tokensExpanded) << what;
    EXPECT_EQ(a.stats.tokensPruned, b.stats.tokensPruned) << what;
    EXPECT_EQ(a.stats.arcsExpanded, b.stats.arcsExpanded) << what;
    EXPECT_EQ(a.stats.epsArcsExpanded, b.stats.epsArcsExpanded)
        << what;
}

} // namespace

// ---- The store itself ----

TEST(TokenStore, InsertImproveAndWorklistDiscipline)
{
    TokenStore store(16);
    // New token: queued pending.
    Token *t = store.relax(7, -1.0f);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.worklistSize(), 1u);
    EXPECT_FLOAT_EQ(store.bestScore(), -1.0f);

    // Worse score: rejected, nothing queued.
    EXPECT_EQ(store.relax(7, -2.0f), nullptr);
    EXPECT_EQ(store.worklistSize(), 1u);

    // Improving a still-pending token must not requeue it.
    ASSERT_NE(store.relax(7, -0.5f), nullptr);
    EXPECT_EQ(store.worklistSize(), 1u);
    EXPECT_FLOAT_EQ(store.bestScore(), -0.5f);

    // Read it (clears pending), then improve: requeued.
    const Token read = store.readForProcess(0);
    EXPECT_EQ(read.state, 7u);
    EXPECT_FLOAT_EQ(read.score, -0.5f);
    ASSERT_NE(store.relax(7, -0.25f), nullptr);
    EXPECT_EQ(store.worklistSize(), 2u);
    EXPECT_EQ(store.size(), 1u);  // still one distinct token
}

TEST(TokenStore, GrowthPreservesTokensAndWorklist)
{
    TokenStore store(4);  // forces several doublings
    const std::size_t n = 300;
    for (std::uint32_t s = 0; s < n; ++s)
        ASSERT_NE(store.relax(s * 977u + 3u, -float(s)), nullptr);
    ASSERT_EQ(store.size(), n);
    ASSERT_EQ(store.worklistSize(), n);
    EXPECT_GE(store.capacity(), 2 * n);  // <= 50% load kept

    // Every token survives the rehashes with its score, in
    // insertion order.
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(store.entry(i).state, i * 977u + 3u);
        EXPECT_FLOAT_EQ(store.entry(i).score, -float(i));
        EXPECT_EQ(store.readForProcess(i).state, i * 977u + 3u);
    }
}

TEST(TokenStore, ClearIsEpochBumpNotWipe)
{
    TokenStore store(16);
    ASSERT_NE(store.relax(1, -1.0f), nullptr);
    ASSERT_NE(store.relax(2, -2.0f), nullptr);
    const std::uint32_t cap = store.capacity();
    const std::uint32_t e0 = store.epoch();

    store.clear();
    EXPECT_EQ(store.size(), 0u);
    EXPECT_EQ(store.worklistSize(), 0u);
    EXPECT_EQ(store.capacity(), cap);
    EXPECT_EQ(store.epoch(), e0 + 1);
    EXPECT_FLOAT_EQ(store.bestScore(), wfst::kLogZero);

    // Stale slots must not resurrect: re-relax sees a fresh insert.
    Token *t = store.relax(1, -5.0f);  // worse than the stale -1.0
    ASSERT_NE(t, nullptr);
    EXPECT_FLOAT_EQ(t->score, -5.0f);
    EXPECT_EQ(t->backpointer, -1);
    EXPECT_EQ(store.size(), 1u);
}

TEST(TokenStore, EpochRolloverWipesStaleTags)
{
    TokenStore store(16);
    // Plant a token, then jump the epoch to the last value before
    // wrap-around.
    ASSERT_NE(store.relax(3, -1.0f), nullptr);
    store.clear();
    store.setEpochForTest(std::numeric_limits<std::uint32_t>::max());

    // A token written at epoch 2^32-1 ...
    ASSERT_NE(store.relax(3, -7.0f), nullptr);
    EXPECT_EQ(store.size(), 1u);

    // ... must not survive the wrap: clear() wipes every tag and
    // restarts at epoch 1.
    store.clear();
    EXPECT_EQ(store.epoch(), 1u);
    EXPECT_EQ(store.size(), 0u);
    Token *t = store.relax(3, -9.0f);
    ASSERT_NE(t, nullptr);
    EXPECT_FLOAT_EQ(t->score, -9.0f);  // fresh insert, not an improve
    EXPECT_EQ(store.size(), 1u);

    // And tokens from the pre-jump epochs (tag 1, 2) cannot alias
    // the post-wrap epochs either: state 3's old tag was wiped too.
    store.clear();  // epoch 2 now
    Token *u = store.relax(3, -11.0f);
    ASSERT_NE(u, nullptr);
    EXPECT_FLOAT_EQ(u->score, -11.0f);
}

TEST(TokenStoreDeath, EpochJumpRequiresEmptyStore)
{
    TokenStore store(16);
    ASSERT_NE(store.relax(1, -1.0f), nullptr);
    EXPECT_DEATH(store.setEpochForTest(100),
                 "only safe on an empty store");
}

// Decoding across an epoch rollover mid-utterance must not change
// results: the store's wrap handling is invisible to the search.
TEST(TokenStore, DecodeAcrossEpochRolloverIsBitIdentical)
{
    const wfst::Wfst net = netFor(5);
    const auto scores = scoresFor(5, 24);
    DecoderConfig cfg;
    cfg.beam = 6.0f;

    ViterbiDecoder plain(net, cfg);
    const auto expected = plain.decode(scores);

    // Walk a store across the wrap boundary the way the decoder
    // does (one clear per frame per store) and check each epoch
    // behaves like a fresh frame.
    TokenStore store(16);
    store.setEpochForTest(
        std::numeric_limits<std::uint32_t>::max() - 10);
    for (int gen = 0; gen < 30; ++gen) {
        Token *t = store.relax(1, -1.0f);
        ASSERT_NE(t, nullptr);  // always a fresh insert, never stale
        EXPECT_EQ(t->backpointer, -1);
        EXPECT_EQ(store.size(), 1u);
        store.clear();
    }

    // And the decoder itself stays bit-identical across many
    // utterances on one instance (each walks the epochs forward).
    ViterbiDecoder reused(net, cfg);
    for (int round = 0; round < 5; ++round) {
        const auto r = reused.decode(scores);
        expectSameDecode(r, expected, "decoder reuse round");
    }
}

// ---- Arena GC ----

TEST(ArenaGc, BitIdenticalToNoGcDecode)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const wfst::Wfst net = netFor(seed);
        const auto scores = scoresFor(seed, 40);

        DecoderConfig plain;
        plain.beam = 8.0f;
        ViterbiDecoder noGc(net, plain);
        const auto expected = noGc.decode(scores);

        // An aggressively small watermark forces many collections.
        DecoderConfig gc = plain;
        gc.arenaGcWatermark = 64;
        ViterbiDecoder withGc(net, gc);
        const auto r = withGc.decode(scores);

        expectSameDecode(r, expected, "GC vs no-GC");
        EXPECT_GT(r.stats.arenaGcRuns, 0u) << "seed " << seed;
        EXPECT_GT(r.stats.arenaEntriesReclaimed, 0u)
            << "seed " << seed;
    }
}

TEST(ArenaGc, StreamingPartialsSurviveCollection)
{
    const wfst::Wfst net = netFor(2);
    const auto scores = scoresFor(2, 30);
    DecoderConfig plain;
    plain.beam = 8.0f;
    DecoderConfig gc = plain;
    gc.arenaGcWatermark = 64;

    ViterbiDecoder a(net, plain), b(net, gc);
    a.streamBegin();
    b.streamBegin();
    for (std::size_t f = 0; f < scores.numFrames(); ++f) {
        a.streamFrame(scores.frame(f));
        b.streamFrame(scores.frame(f));
        // The partial hypothesis must be identical even when b's
        // arena was just compacted (indices moved under the cache).
        EXPECT_EQ(a.streamPartial(), b.streamPartial())
            << "frame " << f;
    }
    expectSameDecode(b.streamFinish(), a.streamFinish(),
                     "streaming GC");
}

TEST(ArenaGc, LongSessionStaysUnderWatermark)
{
    // A 10k-frame streaming session (100 seconds of speech) must
    // hold the arena under the watermark throughout; without GC the
    // arena grows without bound (checked via the reclaim counter).
    const wfst::Wfst net = netFor(3, 600);
    const auto scores = scoresFor(3, 50);

    DecoderConfig cfg;
    cfg.beam = 6.0f;
    cfg.arenaGcWatermark = 20'000;
    ViterbiDecoder dec(net, cfg);
    dec.streamBegin();
    for (std::size_t f = 0; f < 10'000; ++f)
        dec.streamFrame(scores.frame(f % scores.numFrames()));
    const auto r = dec.streamFinish();

    EXPECT_LE(r.stats.arenaPeakEntries, cfg.arenaGcWatermark);
    EXPECT_GT(r.stats.arenaGcRuns, 0u);
    // The stream appended far more than the watermark in total.
    EXPECT_GT(r.stats.arenaEntriesReclaimed,
              4 * cfg.arenaGcWatermark);
}

// ---- streamPartial caching ----

TEST(StreamPartial, CachedReferenceStaysCorrect)
{
    const wfst::Wfst net = netFor(4);
    const auto scores = scoresFor(4, 16);
    DecoderConfig cfg;
    cfg.beam = 8.0f;

    ViterbiDecoder dec(net, cfg);
    BaselineViterbiDecoder oracle(net, cfg);
    dec.streamBegin();
    oracle.streamBegin();
    for (std::size_t f = 0; f < scores.numFrames(); ++f) {
        dec.streamFrame(scores.frame(f));
        oracle.streamFrame(scores.frame(f));
        // Repeated calls between frames hit the cache; all must
        // agree with the baseline's fresh backtrack.
        const auto &p1 = dec.streamPartial();
        const auto &p2 = dec.streamPartial();
        EXPECT_EQ(&p1, &p2);  // same buffer, no realloc
        EXPECT_EQ(p1, oracle.streamPartial()) << "frame " << f;
    }
    expectSameDecode(dec.streamFinish(), oracle.streamFinish(),
                     "partial-cache decode");
}

// ---- Doomed-append skipping ----

TEST(SkipDoomedAppends, SkipsHappenAndResultsMatchBaseline)
{
    std::uint64_t total_skips = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const wfst::Wfst net = netFor(seed, 800);
        const auto scores = scoresFor(seed, 25);
        DecoderConfig cfg;
        cfg.beam = 3.0f;  // tight beam: many doomed candidates

        ViterbiDecoder opt(net, cfg);
        BaselineViterbiDecoder base(net, cfg);
        const auto r = opt.decode(scores);
        expectSameDecode(r, base.decode(scores), "skip-append");
        total_skips += r.stats.bpAppendsSkipped;
        // The skips are real savings: every improvement the baseline
        // recorded is either an arena append or a counted skip here.
        EXPECT_GT(r.stats.arenaPeakEntries, 0u);
    }
    EXPECT_GT(total_skips, 0u);
}

TEST(SkipDoomedAppends, FinalWeightDecodesKeepEveryAppend)
{
    // With final weights a sub-threshold token of the last frame can
    // still win, so the decoder must not skip next-frame appends --
    // and must stay identical to the baseline.
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const wfst::Wfst net = netFor(seed, 300);
        const auto scores = scoresFor(seed, 15);
        DecoderConfig cfg;
        cfg.beam = 2.5f;
        cfg.useFinalWeights = true;

        ViterbiDecoder opt(net, cfg);
        BaselineViterbiDecoder base(net, cfg);
        const auto a = opt.decode(scores);
        const auto b = base.decode(scores);
        EXPECT_EQ(a.words, b.words) << "seed " << seed;
        EXPECT_EQ(a.score, b.score) << "seed " << seed;
        EXPECT_EQ(a.bestState, b.bestState) << "seed " << seed;
    }
}

// ---- Property sweep: optimized == baseline == accel ----
//
// The full-DP reference applies only to the grid's unpruned corner;
// that comparison lives in token_store_reference_test.cc.

class TokenStoreSweep : public ::testing::TestWithParam<SweepCase>
{
};

TEST_P(TokenStoreSweep, MatchesBaselineBitwise)
{
    const SweepCase &c = GetParam();
    const wfst::Wfst net = netFor(c.seed);
    const auto scores = scoresFor(c.seed);

    DecoderConfig cfg;
    cfg.beam = c.beam;
    cfg.maxActive = c.maxActive;

    ViterbiDecoder opt(net, cfg);
    BaselineViterbiDecoder base(net, cfg);
    expectSameDecode(opt.decode(scores), base.decode(scores),
                     "sweep vs baseline");

    // And with GC thrashing, still bitwise identical.
    DecoderConfig gc = cfg;
    gc.arenaGcWatermark = 128;
    ViterbiDecoder gcDec(net, gc);
    BaselineViterbiDecoder base2(net, cfg);
    expectSameDecode(gcDec.decode(scores), base2.decode(scores),
                     "sweep vs baseline, GC on");
}

TEST_P(TokenStoreSweep, MatchesAccelModel)
{
    const SweepCase &c = GetParam();
    const wfst::Wfst net = netFor(c.seed);
    const auto scores = scoresFor(c.seed);

    DecoderConfig cfg;
    cfg.beam = c.beam;
    cfg.maxActive = c.maxActive;
    ViterbiDecoder opt(net, cfg);
    const auto sw = opt.decode(scores);

    accel::AcceleratorConfig acfg;
    acfg.beam = c.beam;
    acfg.maxActive = c.maxActive;
    accel::Accelerator acc(net, acfg);
    const auto hw = acc.decode(scores, /*run_timing=*/false);

    EXPECT_EQ(hw.words, sw.words);
    EXPECT_NEAR(hw.score, sw.score, 1e-3f);
    EXPECT_EQ(hw.bestState, sw.bestState);
}

namespace {

std::vector<SweepCase>
sweepGrid()
{
    std::vector<SweepCase> cases;
    const float beams[] = {2.0f, 6.0f, 10.0f, 1e9f};
    const std::uint32_t caps[] = {0, 8, 64};
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
        for (const float beam : beams)
            for (const std::uint32_t cap : caps)
                cases.push_back({seed, beam, cap});
    return cases;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(SeedsBeamsCaps, TokenStoreSweep,
                         ::testing::ValuesIn(sweepGrid()));
