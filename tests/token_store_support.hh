/**
 * @file
 * The random workloads and the sweep grid shared by the TokenStore
 * test binaries (token_store_test.cc and
 * token_store_reference_test.cc), so both decode the same networks
 * and name their cases the same way.
 */

#ifndef ASR_TESTS_TOKEN_STORE_SUPPORT_HH
#define ASR_TESTS_TOKEN_STORE_SUPPORT_HH

#include <cstdint>
#include <ostream>

#include "acoustic/scorer.hh"
#include "wfst/generate.hh"

namespace asr::test_support {

inline wfst::Wfst
netFor(std::uint64_t seed, wfst::StateId states = 400)
{
    wfst::GeneratorConfig gcfg;
    gcfg.numStates = states;
    gcfg.numPhonemes = 32;
    gcfg.numWords = 60;
    gcfg.forwardEpsilonOnly = (seed % 2) == 0;
    gcfg.epsilonFraction = (seed % 3) == 0 ? 0.25 : 0.115;
    gcfg.seed = seed;
    return wfst::generateWfst(gcfg);
}

inline acoustic::AcousticLikelihoods
scoresFor(std::uint64_t seed, std::size_t frames = 18)
{
    acoustic::SyntheticScorerConfig scfg;
    scfg.numPhonemes = 32;
    scfg.seed = seed * 11 + 3;
    return acoustic::SyntheticScorer(scfg).generate(frames);
}

/** One point of the seed x beam x histogram-cap sweep. */
struct SweepCase
{
    std::uint64_t seed;
    float beam;
    std::uint32_t maxActive;
};

inline void
PrintTo(const SweepCase &c, std::ostream *os)
{
    *os << "seed=" << c.seed << " beam=" << c.beam
        << " maxActive=" << c.maxActive;
}

} // namespace asr::test_support

#endif // ASR_TESTS_TOKEN_STORE_SUPPORT_HH
