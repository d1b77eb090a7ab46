#include "acoustic/backend.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/compiler.hh"
#include "common/cpuinfo.hh"
#include "common/logging.hh"

// The AVX2 kernels are compiled with per-function target attributes
// (no global -mavx2), so the same binary carries both code paths and
// cpu::hasAvx2() picks one at backend construction.  Non-x86 builds
// compile only the scalar paths; the *-avx2 backend names still exist
// there and simply always run scalar.
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
#define ASR_HAVE_AVX2_KERNELS 1
#include <immintrin.h>
#else
#define ASR_HAVE_AVX2_KERNELS 0
#endif

namespace asr::acoustic {

std::string_view
backendName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Reference:   return "reference";
      case BackendKind::Blocked:     return "blocked";
      case BackendKind::BlockedAvx2: return "blocked-avx2";
      case BackendKind::Int8:        return "int8";
      case BackendKind::Int8Avx2:    return "int8-avx2";
    }
    panic("unknown backend kind %d", int(kind));
}

BackendKind
backendKindFromName(std::string_view name)
{
    BackendKind kind;
    if (tryBackendKindFromName(name, kind))
        return kind;
    fatal("%s", unknownBackendMessage(name).c_str());
}

std::string
unknownBackendMessage(std::string_view name)
{
    std::string msg = "unknown acoustic backend '";
    msg += name;
    msg += "' (registered:";
    for (const std::string_view n : acousticBackendNames()) {
        msg += ' ';
        msg += n;
    }
    msg += ')';
    return msg;
}

bool
tryBackendKindFromName(std::string_view name, BackendKind &kind)
{
    for (const BackendKind k : {BackendKind::Reference,
                                BackendKind::Blocked,
                                BackendKind::BlockedAvx2,
                                BackendKind::Int8,
                                BackendKind::Int8Avx2}) {
        if (name == backendName(k)) {
            kind = k;
            return true;
        }
    }
    return false;
}

std::vector<std::string_view>
acousticBackendNames()
{
    return {backendName(BackendKind::Reference),
            backendName(BackendKind::Blocked),
            backendName(BackendKind::BlockedAvx2),
            backendName(BackendKind::Int8),
            backendName(BackendKind::Int8Avx2)};
}

const ParallelFor &
serialFor()
{
    static const ParallelFor serial =
        [](std::size_t count, const std::function<void(std::size_t)> &fn) {
            for (std::size_t i = 0; i < count; ++i)
                fn(i);
        };
    return serial;
}

namespace {

/** Total weight + bias bytes of the trained net at @p bytes_per_weight. */
std::uint64_t
parameterBytes(const Dnn &dnn, std::size_t bytes_per_weight,
               std::size_t extra_per_channel_floats)
{
    std::uint64_t bytes = 0;
    for (std::size_t l = 0; l < dnn.numLayers(); ++l) {
        const Matrix &w = dnn.layerWeights(l);
        bytes += std::uint64_t(w.rows()) * w.cols() * bytes_per_weight;
        bytes += std::uint64_t(w.rows()) *
                 (1 + extra_per_channel_floats) * sizeof(float);
    }
    return bytes;
}

// ---------------------------------------------------------------------------
// Reference backend: the training-time matmulTransposed path.
// ---------------------------------------------------------------------------

class ReferenceBackend final : public Backend
{
  public:
    explicit ReferenceBackend(const Dnn &dnn)
        : Backend(dnn.config().inputDim, dnn.config().outputDim),
          net(dnn), macs(dnn.macsPerFrame()),
          weightBytes(parameterBytes(dnn, sizeof(float), 0))
    {
    }

    BackendKind kind() const override { return BackendKind::Reference; }
    bool bitIdenticalToReference() const override { return true; }

    Matrix
    scoreBatch(const Matrix &input, const ParallelFor &) const override
    {
        return net.forward(input);
    }

    std::uint64_t macsPerFrame() const override { return macs; }
    std::uint64_t
    weightBytesPerFrame() const override
    {
        return weightBytes;
    }

  private:
    const Dnn &net;
    std::uint64_t macs;
    std::uint64_t weightBytes;
};

// ---------------------------------------------------------------------------
// Blocked backend: packed-tile float GEMM, bit-identical to reference.
// ---------------------------------------------------------------------------

/**
 * Output-channel tile width of the packed layout.  Wide on purpose:
 * with 32 independent accumulator lanes GCC/Clang emit the clean
 * broadcast-multiply-accumulate vector form and enough parallel
 * add chains to hide FP-add latency (narrow tiles fall into a
 * shuffle-heavy code path an order of magnitude slower); the padding
 * waste on a tail tile is at most 31 output channels' worth of MACs.
 */
constexpr std::size_t kTile = 32;

/** Rows of the input batch processed per packed panel pass. */
constexpr std::size_t kRowBlock = 32;

/**
 * One layer repacked for the blocked kernel: output channels grouped
 * into tiles of kTile, each tile stored k-major so the inner loop
 * reads kTile consecutive weights per input value -- a contiguous
 * vector load with an independent accumulator per lane, which keeps
 * ascending-k order per output element (the bit-identity contract)
 * while letting the compiler vectorize across the tile.
 */
struct PackedLayer
{
    std::size_t in = 0;
    std::size_t out = 0;
    std::size_t tiles = 0;
    std::vector<float> packed;  //!< tiles x in x kTile, zero padded
    std::vector<float> bias;    //!< out
};

PackedLayer
packLayer(const Matrix &weights, std::span<const float> bias)
{
    PackedLayer layer;
    layer.in = weights.cols();
    layer.out = weights.rows();
    layer.tiles = (layer.out + kTile - 1) / kTile;
    layer.packed.assign(layer.tiles * layer.in * kTile, 0.0f);
    layer.bias.assign(bias.begin(), bias.end());
    for (std::size_t j = 0; j < layer.out; ++j) {
        const auto wrow = weights.row(j);
        const std::size_t tile = j / kTile, lane = j % kTile;
        float *panel = layer.packed.data() + tile * layer.in * kTile;
        for (std::size_t k = 0; k < layer.in; ++k)
            panel[k * kTile + lane] = wrow[k];
    }
    return layer;
}

/**
 * y[r][j] = sum_k x[r][k] * W[j][k] + bias[j] for rows [r0, r1) and
 * the output channels of one packed panel.
 */
void
gemmPanel(const float *ASR_RESTRICT xd, std::size_t in,
          const float *ASR_RESTRICT panel,
          const float *ASR_RESTRICT bias, std::size_t j0,
          std::size_t jn, float *ASR_RESTRICT yd, std::size_t out,
          std::size_t r0, std::size_t r1)
{
    for (std::size_t r = r0; r < r1; ++r) {
        const float *ASR_RESTRICT xrow = xd + r * in;
        float acc[kTile] = {};
        for (std::size_t k = 0; k < in; ++k) {
            const float xv = xrow[k];
            const float *ASR_RESTRICT p = panel + k * kTile;
            for (std::size_t t = 0; t < kTile; ++t)
                acc[t] += xv * p[t];
        }
        float *ASR_RESTRICT yrow = yd + r * out;
        for (std::size_t t = 0; t < jn; ++t)
            yrow[j0 + t] = acc[t] + bias[j0 + t];
    }
}

/** Signature shared by gemmPanel and its AVX2 twins. */
using PanelKernel = void (*)(const float *ASR_RESTRICT, std::size_t,
                             const float *ASR_RESTRICT,
                             const float *ASR_RESTRICT, std::size_t,
                             std::size_t, float *ASR_RESTRICT,
                             std::size_t, std::size_t, std::size_t);

#if ASR_HAVE_AVX2_KERNELS

/**
 * k values per slice of the AVX2 panel kernel: 128 k x 32 lanes x 4 B
 * = 16 KiB of packed weights, which stays in a 32 KiB L1 while every
 * row of the row block streams past it.
 */
constexpr std::size_t kSlice = 128;

/**
 * Rows the AVX2 micro-kernel register-blocks: 3 rows x 4 vectors =
 * 12 accumulators, leaving 4 of the 16 ymm registers for the
 * broadcast and the products.
 */
constexpr std::size_t kMicroRows = 3;

/**
 * acc + x * w per lane.  Unfused rounds the product and then the sum,
 * exactly like the scalar kernel; fused is one FMA rounding.  The
 * kernels are compiled for plain AVX2, so the compiler has no FMA to
 * contract the unfused form into -- and the fused form has to be
 * spelled in assembly.  Fused only runs where cpu::hasAvx2() also
 * confirmed FMA.
 */
template <bool Fused>
__attribute__((target("avx2"), always_inline)) inline __m256
mulAdd(__m256 acc, __m256 x, __m256 w)
{
    if constexpr (Fused) {
        __asm__("vfmadd231ps %2, %1, %0" : "+x"(acc) : "x"(x), "xm"(w));
        return acc;
    } else {
        return _mm256_add_ps(acc, _mm256_mul_ps(x, w));
    }
}

/**
 * One k-slice of @p R rows x one 32-lane tile.  @p x points at row 0,
 * column k0 of the input; @p p at row k0 of the packed panel; @p y at
 * row 0, channel j0 of the output.  The first slice starts from zero,
 * later ones resume from the partial sums the previous slice left in
 * the output rows; the last adds the bias.  @p mask selects the
 * tile's real output channels, so a tail tile never touches y past
 * its row.
 */
template <bool Fused, std::size_t R>
__attribute__((target("avx2"), always_inline)) inline void
microTile(const float *ASR_RESTRICT x, std::size_t in,
          const float *ASR_RESTRICT p, std::size_t kn,
          const float *ASR_RESTRICT bias, float *ASR_RESTRICT y,
          std::size_t out, const __m256i (&mask)[4], bool first,
          bool last)
{
    __m256 acc[R][4];
    for (std::size_t r = 0; r < R; ++r)
        for (std::size_t v = 0; v < 4; ++v)
            acc[r][v] = first ? _mm256_setzero_ps()
                              : _mm256_maskload_ps(y + r * out + 8 * v,
                                                   mask[v]);
    for (std::size_t k = 0; k < kn; ++k) {
        const float *ASR_RESTRICT pk = p + k * kTile;
        for (std::size_t r = 0; r < R; ++r) {
            const __m256 xv = _mm256_broadcast_ss(x + r * in + k);
            for (std::size_t v = 0; v < 4; ++v)
                acc[r][v] = mulAdd<Fused>(acc[r][v], xv,
                                          _mm256_loadu_ps(pk + 8 * v));
        }
    }
    for (std::size_t r = 0; r < R; ++r)
        for (std::size_t v = 0; v < 4; ++v) {
            __m256 sum = acc[r][v];
            if (last)
                sum = _mm256_add_ps(
                    sum, _mm256_maskload_ps(bias + 8 * v, mask[v]));
            _mm256_maskstore_ps(y + r * out + 8 * v, mask[v], sum);
        }
}

/**
 * gemmPanel with explicit AVX2: the panel is walked in kSlice-deep
 * k-slices, and each slice is applied to every row in [r0, r1),
 * kMicroRows at a time, before the next slice is touched.  Every
 * output element is still one accumulator over ascending k with the
 * bias added last, so the unfused kernel is bit-identical to the
 * scalar one (and to the reference); the fused one differs by the FMA
 * rounding delta only.
 */
template <bool Fused>
__attribute__((target("avx2"))) void
gemmPanelAvx2(const float *ASR_RESTRICT xd, std::size_t in,
              const float *ASR_RESTRICT panel,
              const float *ASR_RESTRICT bias, std::size_t j0,
              std::size_t jn, float *ASR_RESTRICT yd, std::size_t out,
              std::size_t r0, std::size_t r1)
{
    static_assert(kTile == 32, "kernel hard-codes four 8-lane vectors");
    static_assert(kMicroRows == 3, "row tails below cover 1 and 2 rows");
    const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    __m256i mask[4];
    for (std::size_t v = 0; v < 4; ++v)
        mask[v] = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(int(jn) - int(8 * v)), lanes);
    // Runs at least once, so in == 0 still writes the bias.
    for (std::size_t k0 = 0;; k0 += kSlice) {
        const std::size_t kn = std::min(kSlice, in - k0);
        const bool first = k0 == 0;
        const bool last = k0 + kn == in;
        const float *p = panel + k0 * kTile;
        std::size_t r = r0;
        for (; r + kMicroRows <= r1; r += kMicroRows)
            microTile<Fused, kMicroRows>(xd + r * in + k0, in, p, kn,
                                         bias + j0, yd + r * out + j0,
                                         out, mask, first, last);
        if (r1 - r == 2)
            microTile<Fused, 2>(xd + r * in + k0, in, p, kn, bias + j0,
                                yd + r * out + j0, out, mask, first,
                                last);
        else if (r1 - r == 1)
            microTile<Fused, 1>(xd + r * in + k0, in, p, kn, bias + j0,
                                yd + r * out + j0, out, mask, first,
                                last);
        if (last)
            break;
    }
}

#endif // ASR_HAVE_AVX2_KERNELS

/**
 * The panel kernel cpu::hasAvx2() resolves to right now: the AVX2
 * kernel, fused or not, or the scalar gemmPanel.
 */
template <bool Fused>
PanelKernel
pickPanelKernel()
{
#if ASR_HAVE_AVX2_KERNELS
    if (cpu::hasAvx2())
        return &gemmPanelAvx2<Fused>;
#endif
    return &gemmPanel;
}

/**
 * Full packed-layer GEMM with row blocking for cache reuse.  The
 * (row block x tile) items are independent -- each writes its own
 * rows x channels of @p y -- so from kGemmSplitFloorMacs on they go to
 * @p par, in any order, on any threads, without changing a bit.
 */
void
gemmPacked(const Matrix &x, const PackedLayer &layer, Matrix &y,
           PanelKernel kernel, const ParallelFor &par)
{
    const std::size_t rows = x.rows();
    const float *xd = x.data().data();
    float *yd = y.data().data();
    const std::size_t blocks = (rows + kRowBlock - 1) / kRowBlock;
    const auto item = [&](std::size_t i) {
        const std::size_t r0 = (i / layer.tiles) * kRowBlock;
        const std::size_t r1 = std::min(rows, r0 + kRowBlock);
        const std::size_t tile = i % layer.tiles;
        const float *panel = layer.packed.data() + tile * layer.in * kTile;
        const std::size_t j0 = tile * kTile;
        const std::size_t jn = std::min(kTile, layer.out - j0);
        kernel(xd, layer.in, panel, layer.bias.data(), j0, jn, yd,
               layer.out, r0, r1);
    };
    const std::size_t items = blocks * layer.tiles;
    if (std::uint64_t(rows) * layer.in * layer.out >=
        kGemmSplitFloorMacs) {
        par(items, item);
        return;
    }
    for (std::size_t i = 0; i < items; ++i)
        item(i);
}

/**
 * Shared implementation of the packed-layout float backends; the
 * concrete classes pick the panel kernel (and with it the identity
 * guarantee) at construction.
 */
class PackedFloatBackend : public Backend
{
  public:
    Matrix
    scoreBatch(const Matrix &input, const ParallelFor &par) const override
    {
        ASR_ASSERT(input.cols() == inputDim(),
                   "backend input dim %zu != %zu", input.cols(),
                   inputDim());
        ASR_ASSERT(!layers.empty(), "backend has no layers");
        // Layer 0 reads the caller's matrix directly (no batch copy
        // -- this is the serving hot path, one call per tick).
        const Matrix *x = &input;
        Matrix cur;
        for (std::size_t l = 0; l < layers.size(); ++l) {
            Matrix y(x->rows(), layers[l].out);
            gemmPacked(*x, layers[l], y, kernel, par);
            if (l + 1 < layers.size())
                reluInPlace(y);
            cur = std::move(y);
            x = &cur;
        }
        logSoftmaxRows(cur);
        return cur;
    }

    std::string_view
    isa() const override
    {
        return kernel == &gemmPanel ? "scalar" : "avx2";
    }

    std::uint64_t macsPerFrame() const override { return macs; }
    std::uint64_t
    weightBytesPerFrame() const override
    {
        return weightBytes;
    }

  protected:
    PackedFloatBackend(const Dnn &dnn, PanelKernel kernel_fn)
        : Backend(dnn.config().inputDim, dnn.config().outputDim),
          kernel(kernel_fn), macs(dnn.macsPerFrame()),
          weightBytes(parameterBytes(dnn, sizeof(float), 0))
    {
        for (std::size_t l = 0; l < dnn.numLayers(); ++l)
            layers.push_back(packLayer(dnn.layerWeights(l),
                                       dnn.layerBias(l)));
    }

  private:
    std::vector<PackedLayer> layers;
    PanelKernel kernel;
    std::uint64_t macs;
    std::uint64_t weightBytes;
};

/**
 * The default float backend: the unfused AVX2 kernel, or the scalar
 * one without AVX2 -- bit-identical to reference either way.
 */
class BlockedBackend final : public PackedFloatBackend
{
  public:
    explicit BlockedBackend(const Dnn &dnn)
        : PackedFloatBackend(dnn, pickPanelKernel<false>())
    {
    }

    BackendKind kind() const override { return BackendKind::Blocked; }
    bool bitIdenticalToReference() const override { return true; }
};

/**
 * The same kernel with FMA.  Bit-identical to reference only when it
 * had to fall back to the scalar kernel; with SIMD active, FMA's
 * single rounding per step voids the contract (error-bound tested).
 */
class BlockedAvx2Backend final : public PackedFloatBackend
{
  public:
    explicit BlockedAvx2Backend(const Dnn &dnn)
        : PackedFloatBackend(dnn, pickPanelKernel<true>())
    {
    }

    BackendKind
    kind() const override
    {
        return BackendKind::BlockedAvx2;
    }
    bool
    bitIdenticalToReference() const override
    {
        return isa() == "scalar";
    }
};

// ---------------------------------------------------------------------------
// Int8 backends: per-output-channel weight quantization, dynamic
// per-frame activation quantization, int32 accumulation.
// ---------------------------------------------------------------------------

struct QuantLayer
{
    std::size_t in = 0;
    std::size_t out = 0;
    std::size_t tiles = 0;
    std::vector<std::int8_t> packed;  //!< tiles x in x kTile
    std::vector<float> scale;         //!< per-output-channel weight scale
    std::vector<float> bias;
};

QuantLayer
quantizeLayer(const Matrix &weights, std::span<const float> bias)
{
    QuantLayer layer;
    layer.in = weights.cols();
    layer.out = weights.rows();
    layer.tiles = (layer.out + kTile - 1) / kTile;
    layer.packed.assign(layer.tiles * layer.in * kTile, 0);
    layer.scale.assign(layer.out, 1.0f);
    layer.bias.assign(bias.begin(), bias.end());
    for (std::size_t j = 0; j < layer.out; ++j) {
        const auto wrow = weights.row(j);
        float amax = 0.0f;
        for (std::size_t k = 0; k < layer.in; ++k)
            amax = std::max(amax, std::abs(wrow[k]));
        const float scale = amax > 0.0f ? amax / 127.0f : 1.0f;
        layer.scale[j] = scale;
        const std::size_t tile = j / kTile, lane = j % kTile;
        std::int8_t *panel =
            layer.packed.data() + tile * layer.in * kTile;
        for (std::size_t k = 0; k < layer.in; ++k) {
            const long q = std::lround(double(wrow[k]) / scale);
            panel[k * kTile + lane] =
                std::int8_t(std::clamp<long>(q, -127, 127));
        }
    }
    return layer;
}

/**
 * Scalar int8 tile accumulation over the lane-major packed panel:
 * acc[t] += sum_k qx[k] * panel[k][t], int32 accumulators.
 */
void
int8PanelScalar(const std::int8_t *ASR_RESTRICT qx, std::size_t in,
                const std::int8_t *ASR_RESTRICT panel,
                std::int32_t *ASR_RESTRICT acc)
{
    for (std::size_t k = 0; k < in; ++k) {
        const std::int32_t xq = qx[k];
        const std::int8_t *ASR_RESTRICT p = panel + k * kTile;
        for (std::size_t t = 0; t < kTile; ++t)
            acc[t] += xq * std::int32_t(p[t]);
    }
}

#if ASR_HAVE_AVX2_KERNELS

/**
 * AVX2 int8 tile accumulation over the group-packed panel (see
 * packAvx2Panel).  Per k-group of 4: broadcast the 4 activation
 * bytes, then maddubs(|x|, sign(w, x)) pairs u8*s8 products into s16
 * and madd-with-ones widens to the per-lane s32 sums.  The sign
 * trick supplies maddubs's required unsigned operand while keeping
 * x*w == |x| * sign(w, x); saturation cannot trigger because
 * quantization clamps both sides to +/-127 (pair sums <= 32258).
 * Integer addition is associative, so the result is bit-identical to
 * int8PanelScalar.
 */
__attribute__((target("avx2"))) void
int8PanelAvx2(const std::int8_t *ASR_RESTRICT qx, std::size_t groups,
              const std::int8_t *ASR_RESTRICT panel,
              std::int32_t *ASR_RESTRICT acc)
{
    static_assert(kTile == 32, "kernel hard-codes four 8-lane vectors");
    const __m256i ones = _mm256_set1_epi16(1);
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    __m256i acc2 = _mm256_setzero_si256();
    __m256i acc3 = _mm256_setzero_si256();
    for (std::size_t g = 0; g < groups; ++g) {
        std::int32_t raw;
        std::memcpy(&raw, qx + g * 4, 4);
        const __m256i xs = _mm256_set1_epi32(raw);
        const __m256i xa = _mm256_abs_epi8(xs);
        const std::int8_t *ASR_RESTRICT p = panel + g * kTile * 4;
        const __m256i w0 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
        const __m256i w1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p + 32));
        const __m256i w2 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p + 64));
        const __m256i w3 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p + 96));
        acc0 = _mm256_add_epi32(
            acc0, _mm256_madd_epi16(
                      _mm256_maddubs_epi16(
                          xa, _mm256_sign_epi8(w0, xs)),
                      ones));
        acc1 = _mm256_add_epi32(
            acc1, _mm256_madd_epi16(
                      _mm256_maddubs_epi16(
                          xa, _mm256_sign_epi8(w1, xs)),
                      ones));
        acc2 = _mm256_add_epi32(
            acc2, _mm256_madd_epi16(
                      _mm256_maddubs_epi16(
                          xa, _mm256_sign_epi8(w2, xs)),
                      ones));
        acc3 = _mm256_add_epi32(
            acc3, _mm256_madd_epi16(
                      _mm256_maddubs_epi16(
                          xa, _mm256_sign_epi8(w3, xs)),
                      ones));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc), acc0);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc + 8), acc1);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc + 16), acc2);
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(acc + 24), acc3);
}

#endif // ASR_HAVE_AVX2_KERNELS

/** ceil(in / 4): k-groups one AVX2 int8 panel pass consumes. */
std::size_t
int8KGroups(std::size_t in)
{
    return (in + 3) / 4;
}

/**
 * Repack one QuantLayer panel for int8PanelAvx2: per k-group of 4,
 * per lane, the 4 consecutive k weights -- so one 32-byte load per
 * group covers 8 lanes x 4 k-values, matching maddubs's pairwise
 * byte layout.  k beyond layer.in pads with zero (contributes 0).
 */
std::vector<std::int8_t>
packAvx2Panels(const QuantLayer &layer)
{
    const std::size_t groups = int8KGroups(layer.in);
    std::vector<std::int8_t> out(layer.tiles * groups * kTile * 4, 0);
    for (std::size_t tile = 0; tile < layer.tiles; ++tile) {
        const std::int8_t *src =
            layer.packed.data() + tile * layer.in * kTile;
        std::int8_t *dst = out.data() + tile * groups * kTile * 4;
        for (std::size_t k = 0; k < layer.in; ++k)
            for (std::size_t lane = 0; lane < kTile; ++lane)
                dst[(k / 4) * kTile * 4 + lane * 4 + k % 4] =
                    src[k * kTile + lane];
    }
    return out;
}

/** Per-row activation buffers, reused across one batch's rows. */
struct RowScratch
{
    std::vector<float> a;           //!< ping activation buffer
    std::vector<float> b;           //!< pong activation buffer
    std::vector<std::int8_t> q;     //!< quantized activations
};

/**
 * Shared implementation of the int8 backends; the concrete classes
 * supply the per-tile accumulation kernel.  Quantization, dequant and
 * bias arithmetic all live here, so scalar and AVX2 int8 differ only
 * in how the associative int32 sum is formed -- which makes them
 * bit-identical to each other (tested).
 */
class Int8BackendBase : public Backend
{
  public:
    Matrix
    scoreBatch(const Matrix &input, const ParallelFor &) const override
    {
        ASR_ASSERT(input.cols() == inputDim(),
                   "backend input dim %zu != %zu", input.cols(),
                   inputDim());
        Matrix out(input.rows(), outputDim());
        RowScratch scratch;
        for (std::size_t r = 0; r < input.rows(); ++r)
            scoreRow(input.row(r), out.row(r), scratch);
        return out;
    }

    std::uint64_t macsPerFrame() const override { return macs; }
    std::uint64_t
    weightBytesPerFrame() const override
    {
        return weightBytes;
    }

  protected:
    explicit Int8BackendBase(const Dnn &dnn)
        : Backend(dnn.config().inputDim, dnn.config().outputDim),
          macs(dnn.macsPerFrame()),
          weightBytes(parameterBytes(dnn, sizeof(std::int8_t), 1))
    {
        for (std::size_t l = 0; l < dnn.numLayers(); ++l)
            layers.push_back(quantizeLayer(dnn.layerWeights(l),
                                           dnn.layerBias(l)));
    }

    /**
     * acc[kTile] = int32 dot products of the quantized row @p qx
     * (padded with zeros to a multiple of 4 entries) against tile
     * @p tile of layer @p l.
     */
    virtual void accumTile(std::size_t l, std::size_t tile,
                           const std::int8_t *qx,
                           std::int32_t *acc) const = 0;

    std::vector<QuantLayer> layers;

  private:
    /**
     * Score one row.  Quantization is per row, so a row's scores do
     * not depend on the rest of the batch -- the row-independence
     * contract, bit for bit, though not bitwise against the float
     * backends.
     */
    void
    scoreRow(std::span<const float> input, std::span<float> out,
             RowScratch &scratch) const
    {
        const float *x = input.data();
        std::size_t xn = input.size();
        for (std::size_t l = 0; l < layers.size(); ++l) {
            const QuantLayer &layer = layers[l];
            const bool last = l + 1 == layers.size();
            ASR_ASSERT(xn == layer.in, "layer dim mismatch");
            float *y;
            if (last) {
                y = out.data();
            } else {
                std::vector<float> &buf =
                    (l % 2 == 0) ? scratch.a : scratch.b;
                if (buf.size() < layer.out)
                    buf.resize(layer.out);
                y = buf.data();
            }

            // Dynamic symmetric activation quantization.
            float amax = 0.0f;
            for (std::size_t k = 0; k < xn; ++k)
                amax = std::max(amax, std::abs(x[k]));
            if (amax == 0.0f) {
                for (std::size_t j = 0; j < layer.out; ++j)
                    y[j] = layer.bias[j];
            } else {
                const float ascale = amax / 127.0f;
                // Padded to a k-group multiple so the AVX2 kernel's
                // 4-byte activation loads stay in bounds; the zero
                // tail contributes nothing either way.
                const std::size_t qn = int8KGroups(xn) * 4;
                if (scratch.q.size() < qn)
                    scratch.q.resize(qn);
                for (std::size_t k = 0; k < xn; ++k) {
                    const long q =
                        std::lround(double(x[k]) / ascale);
                    scratch.q[k] =
                        std::int8_t(std::clamp<long>(q, -127, 127));
                }
                for (std::size_t k = xn; k < qn; ++k)
                    scratch.q[k] = 0;
                const std::int8_t *qx = scratch.q.data();
                for (std::size_t tile = 0; tile < layer.tiles;
                     ++tile) {
                    alignas(32) std::int32_t acc[kTile] = {};
                    accumTile(l, tile, qx, acc);
                    const std::size_t j0 = tile * kTile;
                    const std::size_t jn =
                        std::min(kTile, layer.out - j0);
                    for (std::size_t t = 0; t < jn; ++t) {
                        const std::size_t j = j0 + t;
                        y[j] = float(acc[t]) *
                                   (ascale * layer.scale[j]) +
                               layer.bias[j];
                    }
                }
            }
            if (!last)
                for (std::size_t j = 0; j < layer.out; ++j)
                    y[j] = std::max(y[j], 0.0f);
            x = y;
            xn = layer.out;
        }
        logSoftmaxRow(out);
    }

    std::uint64_t macs;
    std::uint64_t weightBytes;
};

class Int8Backend final : public Int8BackendBase
{
  public:
    explicit Int8Backend(const Dnn &dnn) : Int8BackendBase(dnn) {}

    BackendKind kind() const override { return BackendKind::Int8; }
    bool bitIdenticalToReference() const override { return false; }

  protected:
    void
    accumTile(std::size_t l, std::size_t tile, const std::int8_t *qx,
              std::int32_t *acc) const override
    {
        const QuantLayer &layer = layers[l];
        int8PanelScalar(qx, layer.in,
                        layer.packed.data() + tile * layer.in * kTile,
                        acc);
    }
};

/**
 * AVX2 int8 backend.  Keeps the scalar lane-major panels (fallback
 * path) and adds the group-packed panels the AVX2 kernel walks; the
 * two kernels produce identical int32 sums, so which one runs is
 * unobservable in the scores.
 */
class Int8Avx2Backend final : public Int8BackendBase
{
  public:
    explicit Int8Avx2Backend(const Dnn &dnn)
        : Int8BackendBase(dnn), simd(haveAvx2Kernels() && cpu::hasAvx2())
    {
        if (simd)
            for (const QuantLayer &layer : layers)
                avxPanels.push_back(packAvx2Panels(layer));
    }

    BackendKind kind() const override { return BackendKind::Int8Avx2; }
    bool bitIdenticalToReference() const override { return false; }
    std::string_view
    isa() const override
    {
        return simd ? "avx2" : "scalar";
    }

  protected:
    void
    accumTile(std::size_t l, std::size_t tile, const std::int8_t *qx,
              std::int32_t *acc) const override
    {
        const QuantLayer &layer = layers[l];
#if ASR_HAVE_AVX2_KERNELS
        if (simd) {
            const std::size_t groups = int8KGroups(layer.in);
            int8PanelAvx2(qx, groups,
                          avxPanels[l].data() + tile * groups * kTile * 4,
                          acc);
            return;
        }
#endif
        int8PanelScalar(qx, layer.in,
                        layer.packed.data() + tile * layer.in * kTile,
                        acc);
    }

  private:
    static constexpr bool
    haveAvx2Kernels()
    {
        return ASR_HAVE_AVX2_KERNELS != 0;
    }

    std::vector<std::vector<std::int8_t>> avxPanels;
    bool simd;
};

} // namespace

std::unique_ptr<Backend>
Backend::create(BackendKind kind, const Dnn &dnn)
{
    switch (kind) {
      case BackendKind::Reference:
        return std::make_unique<ReferenceBackend>(dnn);
      case BackendKind::Blocked:
        return std::make_unique<BlockedBackend>(dnn);
      case BackendKind::BlockedAvx2:
        return std::make_unique<BlockedAvx2Backend>(dnn);
      case BackendKind::Int8:
        return std::make_unique<Int8Backend>(dnn);
      case BackendKind::Int8Avx2:
        return std::make_unique<Int8Avx2Backend>(dnn);
    }
    panic("unknown backend kind %d", int(kind));
}

} // namespace asr::acoustic
