/**
 * @file
 * The TokenStore search against the brute-force full-Viterbi
 * reference (decoder/reference.hh).  The reference has no beam, so
 * the comparison covers only the unpruned corner of the sweep grid in
 * token_store_test.cc: every seed at an effectively infinite beam
 * with no histogram cap.  gtest cannot instantiate one TEST_P of a
 * suite on a subset of its grid, so the corner is its own binary,
 * keeping the suite and case names it has always had there.
 *
 * Each case decodes twice: once with an unbounded arena and once
 * with a small GC watermark, so the collector's link remapping is
 * checked against the oracle too, not just against another run of
 * the same decoder.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "decoder/reference.hh"
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

std::vector<SweepCase>
unprunedGrid()
{
    std::vector<SweepCase> cases;
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
        cases.push_back({seed, 1e9f, 0});
    return cases;
}

} // namespace

class TokenStoreSweep : public ::testing::TestWithParam<SweepCase>
{
};

TEST_P(TokenStoreSweep, WideBeamMatchesFullViterbiReference)
{
    const SweepCase &c = GetParam();
    const wfst::Wfst net = netFor(c.seed);
    const auto scores = scoresFor(c.seed);
    const auto ref = fullViterbiReference(net, scores);

    DecoderConfig cfg;
    cfg.beam = c.beam;
    cfg.maxActive = c.maxActive;
    const auto r = ViterbiDecoder(net, cfg).decode(scores);
    EXPECT_EQ(r.words, ref.words);
    EXPECT_NEAR(r.score, ref.score, 1e-3f);

    DecoderConfig gc = cfg;
    gc.arenaGcWatermark = 64;
    const auto g = ViterbiDecoder(net, gc).decode(scores);
    EXPECT_GT(g.stats.arenaGcRuns, 0u);
    EXPECT_EQ(g.words, ref.words);
    EXPECT_EQ(g.score, r.score);  // collection never changes a result
}

INSTANTIATE_TEST_SUITE_P(SeedsBeamsCaps, TokenStoreSweep,
                         ::testing::ValuesIn(unprunedGrid()));
