/**
 * @file
 * Radix-2 FFT used by the MFCC pipeline, plus a naive DFT reference
 * for testing.
 */

#ifndef ASR_FRONTEND_FFT_HH
#define ASR_FRONTEND_FFT_HH

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace asr::frontend {

using Complex = std::complex<double>;

/**
 * A precomputed in-place iterative radix-2 Cooley-Tukey FFT of one
 * power-of-two size: the bit-reverse index table and, per stage and
 * direction, the twiddle factors.  Building the plan once takes the
 * per-transform cost down to the butterflies themselves; transforms
 * run on caller-owned split re/im buffers and allocate nothing.
 *
 * Bit-identity contract: the twiddles come from the same serial
 * `w *= wl` complex recurrence the textbook loop runs per block, and
 * each butterfly spells out std::complex's multiply,
 * (xr*wr - xi*wi, xr*wi + xi*wr), so every output is the exact double
 * a std::complex<double> radix-2 loop produces for finite input.  The
 * translation unit is compiled with -ffp-contract=off: a fused
 * multiply-add would round differently.
 *
 * A plan is immutable after construction and safe to share between
 * threads.
 */
class FftPlan
{
  public:
    /** @param n transform size; must be a power of two */
    explicit FftPlan(std::size_t n);

    std::size_t size() const { return n; }

    /**
     * In-place transform of the split complex signal re[i] + j*im[i].
     * @param re,im size() values each
     * @param inverse true for the inverse transform (includes 1/N
     *        scale)
     */
    void transform(std::span<double> re, std::span<double> im,
                   bool inverse = false) const;

    /**
     * Power spectrum of a real frame zero-padded to size(): |X[k]|^2
     * for k = 0..size()/2.
     * @param frame at most size() real samples
     * @param re,im size() values each of scratch
     * @param power receives size()/2 + 1 values
     */
    void powerSpectrum(std::span<const double> frame, std::span<double> re,
                       std::span<double> im, std::span<double> power) const;

  private:
    /** The butterfly stages over bit-reversed input. */
    void stages(double *re, double *im, bool inverse) const;

    std::size_t n;
    /** bitReverse[i] = i with its log2(n) index bits reversed. */
    std::vector<std::size_t> bitReverse;
    /**
     * Twiddles by direction ([0] forward, [1] inverse): the stage of
     * half-width h keeps its h factors at [h - 1, 2h - 1).
     */
    std::vector<double> twiddleRe[2];
    std::vector<double> twiddleIm[2];
};

/**
 * In-place radix-2 FFT of any power-of-two size (builds a plan for
 * the call).
 * @param data complex buffer; size must be a power of two
 * @param inverse true for the inverse transform (includes 1/N scale)
 */
void fft(std::vector<Complex> &data, bool inverse = false);

/**
 * Power spectrum of a real signal: |FFT(x)|^2 for bins 0..N/2 (builds
 * a plan for the call).
 * @param frame     real input (zero-padded to @p fft_size)
 * @param fft_size  power-of-two transform size >= frame.size()
 * @return fft_size/2 + 1 power values
 */
std::vector<double> powerSpectrum(const std::vector<double> &frame,
                                  std::size_t fft_size);

/** O(N^2) reference DFT (tests only). */
std::vector<Complex> naiveDft(const std::vector<Complex> &data);

} // namespace asr::frontend

#endif // ASR_FRONTEND_FFT_HH
