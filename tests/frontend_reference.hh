/**
 * @file
 * Frozen reference for the MFCC front end's arithmetic (tests only).
 *
 * A verbatim copy of the std::complex<double> radix-2 FFT, power
 * spectrum and per-frame MFCC pipeline the planned implementation
 * (frontend::FftPlan, frontend::Mfcc) replaced: twiddles rebuilt per
 * block by the serial `w *= wl` recurrence, fresh vectors per call.
 * The planned code must reproduce these results bit for bit, so the
 * trained models, the search and every recorded word stay unchanged.
 *
 * Whatever includes this must be compiled without FMA contraction and
 * without the vectorizer (tests/CMakeLists.txt pins both): on an FMA
 * target GCC turns the interleaved std::complex multiplies into
 * vfmaddsub even under -ffp-contract=off, and a fused multiply-add
 * rounds differently.  Do not "improve" it.
 */

#ifndef ASR_TESTS_FRONTEND_REFERENCE_HH
#define ASR_TESTS_FRONTEND_REFERENCE_HH

#include <algorithm>
#include <cmath>
#include <complex>
#include <span>
#include <utility>
#include <vector>

#include "frontend/mfcc.hh"

namespace asr::frontend::reference {

using Complex = std::complex<double>;

inline void
fft(std::vector<Complex> &data, bool inverse = false)
{
    const std::size_t n = data.size();
    if (n <= 1)
        return;

    // Bit-reversal permutation.
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j)
            std::swap(data[i], data[j]);
    }

    for (std::size_t len = 2; len <= n; len <<= 1) {
        const double ang =
            2.0 * M_PI / double(len) * (inverse ? 1.0 : -1.0);
        const Complex wl(std::cos(ang), std::sin(ang));
        for (std::size_t i = 0; i < n; i += len) {
            Complex w(1.0, 0.0);
            for (std::size_t k = 0; k < len / 2; ++k) {
                const Complex u = data[i + k];
                const Complex v = data[i + k + len / 2] * w;
                data[i + k] = u + v;
                data[i + k + len / 2] = u - v;
                w *= wl;
            }
        }
    }

    if (inverse) {
        for (auto &x : data)
            x /= double(n);
    }
}

inline std::vector<double>
powerSpectrum(const std::vector<double> &frame, std::size_t fft_size)
{
    std::vector<Complex> buf(fft_size, Complex(0.0, 0.0));
    for (std::size_t i = 0; i < frame.size(); ++i)
        buf[i] = Complex(frame[i], 0.0);
    fft(buf);

    std::vector<double> power(fft_size / 2 + 1);
    for (std::size_t i = 0; i < power.size(); ++i)
        power[i] = std::norm(buf[i]);
    return power;
}

/** The MFCC constructor and computeFrame, frozen. */
class Mfcc
{
  public:
    explicit Mfcc(const MfccConfig &config)
        : cfg(config)
    {
        frameLen =
            std::size_t(cfg.frameLengthMs * cfg.sampleRate / 1000.0);

        // Hamming window.
        window.resize(frameLen);
        for (std::size_t i = 0; i < frameLen; ++i)
            window[i] = 0.54 - 0.46 * std::cos(2.0 * M_PI * double(i) /
                                               double(frameLen - 1));

        // Triangular mel filterbank.
        const double high =
            std::min(cfg.highFreqHz, double(cfg.sampleRate) / 2.0);
        const double mel_lo = hzToMel(cfg.lowFreqHz);
        const double mel_hi = hzToMel(high);
        std::vector<double> centers(cfg.numFilters + 2);
        for (unsigned m = 0; m < cfg.numFilters + 2; ++m)
            centers[m] = melToHz(mel_lo + (mel_hi - mel_lo) * double(m) /
                                 double(cfg.numFilters + 1));

        const std::size_t num_bins = cfg.fftSize / 2 + 1;
        const double bin_hz = double(cfg.sampleRate) / double(cfg.fftSize);
        filters.resize(cfg.numFilters);
        for (unsigned m = 0; m < cfg.numFilters; ++m) {
            const double left = centers[m];
            const double center = centers[m + 1];
            const double right = centers[m + 2];
            for (std::size_t b = 0; b < num_bins; ++b) {
                const double f = double(b) * bin_hz;
                double w = 0.0;
                if (f > left && f < center)
                    w = (f - left) / (center - left);
                else if (f >= center && f < right)
                    w = (right - f) / (right - center);
                if (w > 0.0)
                    filters[m].emplace_back(b, w);
            }
        }

        // Orthonormal DCT-II.
        dct.assign(cfg.numCeps, std::vector<double>(cfg.numFilters));
        const double norm0 = std::sqrt(1.0 / cfg.numFilters);
        const double norm = std::sqrt(2.0 / cfg.numFilters);
        for (unsigned c = 0; c < cfg.numCeps; ++c)
            for (unsigned m = 0; m < cfg.numFilters; ++m)
                dct[c][m] = (c == 0 ? norm0 : norm) *
                            std::cos(M_PI * double(c) * (double(m) + 0.5) /
                                     double(cfg.numFilters));
    }

    std::size_t frameLength() const { return frameLen; }

    std::vector<float>
    computeFrame(std::span<const float> samples, float prev) const
    {
        std::vector<double> buf(frameLen);
        for (std::size_t i = 0; i < frameLen; ++i) {
            const double cur = samples[i];
            const double p = i > 0 ? samples[i - 1] : prev;
            buf[i] = (cur - cfg.preEmphasis * p) * window[i];
        }

        const std::vector<double> power = powerSpectrum(buf, cfg.fftSize);

        // Mel energies (log, floored to avoid -inf on silence).
        std::vector<double> mel(cfg.numFilters);
        for (unsigned m = 0; m < cfg.numFilters; ++m) {
            double e = 0.0;
            for (const auto &[bin, w] : filters[m])
                e += power[bin] * w;
            mel[m] = std::log(std::max(e, 1e-10));
        }

        // DCT-II to cepstra.
        std::vector<float> ceps(cfg.numCeps);
        for (unsigned c = 0; c < cfg.numCeps; ++c) {
            double acc = 0.0;
            for (unsigned m = 0; m < cfg.numFilters; ++m)
                acc += dct[c][m] * mel[m];
            ceps[c] = float(acc);
        }
        return ceps;
    }

  private:
    static double
    hzToMel(double hz)
    {
        return 2595.0 * std::log10(1.0 + hz / 700.0);
    }

    static double
    melToHz(double mel)
    {
        return 700.0 * (std::pow(10.0, mel / 2595.0) - 1.0);
    }

    MfccConfig cfg;
    std::size_t frameLen;
    std::vector<double> window;
    std::vector<std::vector<std::pair<std::size_t, double>>> filters;
    std::vector<std::vector<double>> dct;
};

} // namespace asr::frontend::reference

#endif // ASR_TESTS_FRONTEND_REFERENCE_HH
