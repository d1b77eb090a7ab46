/**
 * @file
 * Bit-identity gate for the planned FFT and MFCC front end: every
 * fft(), powerSpectrum() and Mfcc::computeFrame() output must equal
 * the frozen std::complex reference (tests/frontend_reference.hh)
 * bit for bit -- seeded and edge-case frames, non-default configs,
 * every power-of-two FFT size up to 1024 in both directions, and
 * threads sharing one const Mfcc.
 */

#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "frontend/audio.hh"
#include "frontend/fft.hh"
#include "frontend/mfcc.hh"
#include "frontend_reference.hh"

using namespace asr;
using namespace asr::frontend;

namespace {

template <typename T>
bool
sameBits(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

std::vector<Complex>
randomSignal(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Complex> v(n);
    for (auto &x : v)
        x = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    return v;
}

/** One window of frameLength() samples plus its pre-emphasis lead. */
struct Frame
{
    std::vector<float> samples;
    float prev;
};

/** Frames whose cepstra differ from the reference, as "#i" list. */
std::string
mismatches(const Mfcc &mfcc, const reference::Mfcc &ref,
           const std::vector<Frame> &frames)
{
    std::string bad;
    for (std::size_t f = 0; f < frames.size(); ++f) {
        const std::span<const float> window(frames[f].samples);
        if (!sameBits(mfcc.computeFrame(window, frames[f].prev),
                      ref.computeFrame(window, frames[f].prev)))
            bad += " #" + std::to_string(f);
    }
    return bad;
}

/** @p count windows of uniform noise at amplitudes 1e-4 .. 1. */
std::vector<Frame>
noiseFrames(std::size_t len, std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Frame> frames(count);
    for (auto &fr : frames) {
        const double amp = std::pow(10.0, -4.0 * rng.uniform());
        fr.samples.resize(len);
        for (auto &x : fr.samples)
            x = float(amp * rng.uniform(-1.0, 1.0));
        fr.prev = float(amp * rng.uniform(-1.0, 1.0));
    }
    return frames;
}

} // namespace

/** fft() forward and inverse, every power of two from 1 to 1024. */
class FftIdentity : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(FftIdentity, ForwardAndInverseMatchFrozenReference)
{
    const std::size_t n = GetParam();
    for (const bool inverse : {false, true}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            std::vector<Complex> planned = randomSignal(n, seed * 1000 + n);
            std::vector<Complex> frozen = planned;
            fft(planned, inverse);
            reference::fft(frozen, inverse);
            EXPECT_TRUE(sameBits(planned, frozen))
                << "n " << n << " inverse " << inverse << " seed "
                << seed;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftIdentity,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128,
                                           256, 512, 1024));

TEST(FftIdentity, PowerSpectrumMatchesFrozenReference)
{
    Rng rng(5);
    for (std::size_t n = 1; n <= 1024; n <<= 1) {
        // Full-length, zero-padded and empty frames.
        for (const std::size_t len : {n, n / 2 + 1, std::size_t(0)}) {
            std::vector<double> frame(len);
            for (auto &x : frame)
                x = rng.uniform(-1.0, 1.0);
            EXPECT_TRUE(sameBits(powerSpectrum(frame, n),
                                 reference::powerSpectrum(frame, n)))
                << "n " << n << " frame " << len;
        }
    }
}

TEST(MfccIdentity, SeededFramesMatchFrozenReference)
{
    const MfccConfig cfg;
    const Mfcc mfcc(cfg);
    const reference::Mfcc ref(cfg);

    // 2 000 noise windows across four decades of amplitude ...
    const std::vector<Frame> noise =
        noiseFrames(mfcc.frameLength(), 2000, 11);
    EXPECT_EQ(mismatches(mfcc, ref, noise), "");

    // ... and every frame of synthesized speech, through compute().
    Synthesizer synth(12);
    const AudioSignal audio =
        synth.synthesize({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 20);
    const FeatureMatrix rows = mfcc.compute(audio);
    ASSERT_GE(rows.size(), 200u);
    for (std::size_t f = 0; f < rows.size(); ++f) {
        const std::size_t base = f * mfcc.frameHop();
        const float prev =
            base > 0 ? audio.samples[base - 1] : audio.samples[0];
        EXPECT_TRUE(sameBits(
            rows[f], ref.computeFrame(std::span<const float>(
                                          audio.samples.data() + base,
                                          mfcc.frameLength()),
                                      prev)))
            << "speech frame " << f;
    }
}

TEST(MfccIdentity, EdgeFramesMatchFrozenReference)
{
    const MfccConfig cfg;
    const Mfcc mfcc(cfg);
    const reference::Mfcc ref(cfg);
    const std::size_t len = mfcc.frameLength();

    std::vector<Frame> frames;
    // Silence: every mel energy hits the 1e-10 log floor.
    frames.push_back({std::vector<float>(len, 0.0f), 0.0f});
    // DC at full scale, both signs.
    frames.push_back({std::vector<float>(len, 1.0f), 1.0f});
    frames.push_back({std::vector<float>(len, -1.0f), -1.0f});
    // Impulses at the window's edges and centre.
    for (const std::size_t at : {std::size_t(0), len / 2, len - 1}) {
        Frame fr{std::vector<float>(len, 0.0f), 0.0f};
        fr.samples[at] = 1.0f;
        frames.push_back(fr);
    }
    // Alternating +-1: a Nyquist tone.
    Frame nyquist{std::vector<float>(len), -1.0f};
    for (std::size_t i = 0; i < len; ++i)
        nyquist.samples[i] = i % 2 ? -1.0f : 1.0f;
    frames.push_back(nyquist);
    // 1e-30 scale: the whole spectrum lands below the log floor.
    Rng rng(3);
    Frame tiny{std::vector<float>(len), 1e-30f};
    for (auto &x : tiny.samples)
        x = float(1e-30 * rng.uniform(-1.0, 1.0));
    frames.push_back(tiny);

    EXPECT_EQ(mismatches(mfcc, ref, frames), "");
}

TEST(MfccIdentity, NonDefaultConfigsMatchFrozenReference)
{
    MfccConfig fft256;  // 25 ms at 8 kHz fits a 256-point FFT
    fft256.sampleRate = 8000;
    fft256.fftSize = 256;
    MfccConfig fft1024;
    fft1024.fftSize = 1024;
    MfccConfig narrowband;
    narrowband.sampleRate = 8000;
    MfccConfig window20ms;
    window20ms.frameLengthMs = 20.0;

    for (const MfccConfig &cfg : {fft256, fft1024, narrowband, window20ms}) {
        const Mfcc mfcc(cfg);
        const reference::Mfcc ref(cfg);
        ASSERT_EQ(mfcc.frameLength(), ref.frameLength());
        EXPECT_EQ(mismatches(mfcc, ref,
                             noiseFrames(mfcc.frameLength(), 300,
                                         cfg.fftSize + cfg.sampleRate)),
                  "")
            << "fftSize " << cfg.fftSize << " rate " << cfg.sampleRate
            << " window " << cfg.frameLengthMs << " ms";
    }
}

TEST(MfccIdentity, InterleavedConfigsOnOneThread)
{
    // One thread alternating between extractors of different sizes
    // re-sizes its scratch every frame.
    MfccConfig wide;
    wide.fftSize = 1024;
    const Mfcc a{MfccConfig()}, b{wide};
    const reference::Mfcc ref_a{MfccConfig()}, ref_b{wide};
    const std::vector<Frame> frames = noiseFrames(a.frameLength(), 200, 21);
    for (std::size_t f = 0; f < frames.size(); ++f) {
        const Mfcc &mfcc = f % 2 ? b : a;
        const reference::Mfcc &ref = f % 2 ? ref_b : ref_a;
        const std::span<const float> window(frames[f].samples);
        EXPECT_TRUE(sameBits(mfcc.computeFrame(window, frames[f].prev),
                             ref.computeFrame(window, frames[f].prev)))
            << "frame " << f;
    }
}

TEST(MfccIdentity, ThreadsSharingOneMfccMatchFrozenReference)
{
    const MfccConfig cfg;
    const Mfcc mfcc(cfg);
    const reference::Mfcc ref(cfg);
    constexpr unsigned kThreads = 4;
    std::vector<std::vector<Frame>> work(kThreads);
    std::vector<std::string> bad(kThreads);
    for (unsigned t = 0; t < kThreads; ++t)
        work[t] = noiseFrames(mfcc.frameLength(), 150, 40 + t);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back(
            [&, t] { bad[t] = mismatches(mfcc, ref, work[t]); });
    for (auto &th : threads)
        th.join();
    for (unsigned t = 0; t < kThreads; ++t)
        EXPECT_EQ(bad[t], "") << "thread " << t;
}
