#include "frontend/fft.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/bits.hh"
#include "common/logging.hh"

namespace asr::frontend {

FftPlan::FftPlan(std::size_t n)
    : n(n)
{
    ASR_ASSERT(isPowerOf2(n), "FFT size must be a power of two");

    // The classic bit-reversed counter.
    bitReverse.assign(n, 0);
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        bitReverse[i] = j;
    }

    // Each stage's twiddles run the serial recurrence w_{k+1} = w_k *
    // wl from w_0 = 1, exactly as a per-block loop would recompute
    // them; storing them keeps every factor bit for bit.
    for (int dir = 0; dir < 2; ++dir) {
        const bool inverse = dir == 1;
        twiddleRe[dir].resize(n > 1 ? n - 1 : 0);
        twiddleIm[dir].resize(n > 1 ? n - 1 : 0);
        for (std::size_t len = 2; len <= n; len <<= 1) {
            const double ang =
                2.0 * M_PI / double(len) * (inverse ? 1.0 : -1.0);
            const Complex wl(std::cos(ang), std::sin(ang));
            Complex w(1.0, 0.0);
            for (std::size_t k = 0; k < len / 2; ++k) {
                twiddleRe[dir][len / 2 - 1 + k] = w.real();
                twiddleIm[dir][len / 2 - 1 + k] = w.imag();
                w *= wl;
            }
        }
    }
}

namespace {

/** One radix-2 butterfly: (a, b) <- (a + b*w, a - b*w). */
inline void
butterfly(double *__restrict re, double *__restrict im, std::size_t a,
          std::size_t b, double wr, double wi)
{
    // b*w in std::complex's operand order.
    const double xr = re[b], xi = im[b];
    const double pr = xr * wr - xi * wi;
    const double pi = xr * wi + xi * wr;
    const double ar = re[a], ai = im[a];
    re[a] = ar + pr;
    im[a] = ai + pi;
    re[b] = ar - pr;
    im[b] = ai - pi;
}

/**
 * A stage of half-width @p Half known at compile time.  Its unrolled
 * twiddle loop, factors held in registers, lets the compiler
 * vectorize a short stage across blocks, where a run-time width
 * leaves a loop only one to eight butterflies long.
 */
template <std::size_t Half>
void
shortStage(double *__restrict re, double *__restrict im, std::size_t n,
           const double *wr, const double *wi)
{
    double c[Half], s[Half];
    for (std::size_t k = 0; k < Half; ++k) {
        c[k] = wr[k];
        s[k] = wi[k];
    }
    for (std::size_t i = 0; i < n; i += 2 * Half)
        for (std::size_t k = 0; k < Half; ++k)
            butterfly(re, im, i + k, i + k + Half, c[k], s[k]);
}

} // namespace

void
FftPlan::stages(double *__restrict re, double *__restrict im,
                bool inverse) const
{
    const double *tw_re = twiddleRe[inverse ? 1 : 0].data();
    const double *tw_im = twiddleIm[inverse ? 1 : 0].data();
    const std::size_t n = this->n;
    // Stage half-width h: blocks of 2h values, butterfly k of a block
    // pairs (i + k, i + k + h) under twiddle k.  A stage's butterflies
    // are independent, so the order they run in is free.
    for (std::size_t half = 1; half < n; half <<= 1) {
        const double *wr = tw_re + half - 1;
        const double *wi = tw_im + half - 1;
        if (half == 1)
            shortStage<1>(re, im, n, wr, wi);
        else if (half == 2)
            shortStage<2>(re, im, n, wr, wi);
        else if (half == 4)
            shortStage<4>(re, im, n, wr, wi);
        else if (half == 8)
            shortStage<8>(re, im, n, wr, wi);
        else
            for (std::size_t i = 0; i < n; i += 2 * half)
                for (std::size_t k = 0; k < half; ++k)
                    butterfly(re, im, i + k, i + k + half, wr[k], wi[k]);
    }
}

void
FftPlan::transform(std::span<double> re, std::span<double> im,
                   bool inverse) const
{
    ASR_ASSERT(re.size() == n && im.size() == n,
               "FFT buffers must hold exactly %zu values", n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j = bitReverse[i];
        if (i < j) {
            std::swap(re[i], re[j]);
            std::swap(im[i], im[j]);
        }
    }
    stages(re.data(), im.data(), inverse);
    if (inverse) {
        for (std::size_t i = 0; i < n; ++i) {
            re[i] /= double(n);
            im[i] /= double(n);
        }
    }
}

void
FftPlan::powerSpectrum(std::span<const double> frame, std::span<double> re,
                       std::span<double> im, std::span<double> power) const
{
    ASR_ASSERT(frame.size() <= n, "frame longer than the FFT size");
    ASR_ASSERT(re.size() == n && im.size() == n,
               "FFT buffers must hold exactly %zu values", n);
    ASR_ASSERT(power.size() == n / 2 + 1,
               "power spectrum holds n/2 + 1 bins");

    // Zero-pad and bit-reverse in one scatter.
    std::fill(re.begin(), re.end(), 0.0);
    std::fill(im.begin(), im.end(), 0.0);
    for (std::size_t i = 0; i < frame.size(); ++i)
        re[bitReverse[i]] = frame[i];
    stages(re.data(), im.data(), /*inverse=*/false);
    for (std::size_t k = 0; k < power.size(); ++k)
        power[k] = std::norm(Complex(re[k], im[k]));
}

void
fft(std::vector<Complex> &data, bool inverse)
{
    const std::size_t n = data.size();
    ASR_ASSERT(isPowerOf2(n), "FFT size must be a power of two");
    if (n <= 1)
        return;

    const FftPlan plan(n);
    std::vector<double> re(n), im(n);
    for (std::size_t i = 0; i < n; ++i) {
        re[i] = data[i].real();
        im[i] = data[i].imag();
    }
    plan.transform(re, im, inverse);
    for (std::size_t i = 0; i < n; ++i)
        data[i] = Complex(re[i], im[i]);
}

std::vector<double>
powerSpectrum(const std::vector<double> &frame, std::size_t fft_size)
{
    ASR_ASSERT(isPowerOf2(fft_size), "FFT size must be a power of two");
    ASR_ASSERT(frame.size() <= fft_size,
               "frame longer than the FFT size");

    const FftPlan plan(fft_size);
    std::vector<double> re(fft_size), im(fft_size);
    std::vector<double> power(fft_size / 2 + 1);
    plan.powerSpectrum(frame, re, im, power);
    return power;
}

std::vector<Complex>
naiveDft(const std::vector<Complex> &data)
{
    const std::size_t n = data.size();
    std::vector<Complex> out(n, Complex(0.0, 0.0));
    for (std::size_t k = 0; k < n; ++k) {
        for (std::size_t t = 0; t < n; ++t) {
            const double ang = -2.0 * M_PI * double(k) * double(t) /
                               double(n);
            out[k] += data[t] * Complex(std::cos(ang), std::sin(ang));
        }
    }
    return out;
}

} // namespace asr::frontend
