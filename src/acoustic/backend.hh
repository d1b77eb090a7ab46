/**
 * @file
 * Pluggable acoustic-scoring backends.
 *
 * The paper's system gets its DNN throughput from batching frames
 * into large GEMMs on a throughput device (Sec. II/III-A: the GPU
 * scores batch i while the accelerator searches batch i-1).  This
 * interface is the reproduction's seam for that: everything that
 * turns spliced MFCC rows into per-senone log-softmax scores goes
 * through an acoustic::Backend's one entry point, scoreBatch: the
 * GEMM path both the offline DnnScorer and the server's
 * cross-session BatchScorer drive.
 *
 * Five implementations:
 *  - Reference:   the naive matmulTransposed path the DNN trains
 *    with; the correctness oracle every other backend is measured
 *    against.
 *  - Blocked:     the same arithmetic over weights repacked at
 *    construction into 32-wide k-major column tiles.  With AVX2 it
 *    runs an explicit kernel that register-blocks 3 rows x one tile
 *    and walks the panel in L1-sized k-slices, with separate
 *    multiply and add (compiled without FMA, so nothing contracts);
 *    without it, the scalar tile kernel.  Bit-identical to Reference
 *    on both paths (see below) and the default in
 *    pipeline::AsrModel.
 *  - BlockedAvx2: the same AVX2 kernel with fused multiply-add.  FMA
 *    rounds each multiply-add once, so this backend is NOT bitwise
 *    against Reference; it is validated by the error-bound harness
 *    instead (same ascending-k order, so the error is the FMA
 *    rounding delta only).  Falls back to the scalar Blocked kernel
 *    -- and full bit-identity -- when the host lacks AVX2/FMA
 *    (common/cpuinfo.hh).
 *  - Int8:        per-output-channel symmetric weight quantization
 *    with dynamic per-frame activation quantization; 4x smaller
 *    weight traffic (the gpu:: analytical models read the byte
 *    counts).  Validated by bounded score error and WER delta, not
 *    bitwise.
 *  - Int8Avx2:    the Int8 quantization scheme driven by an AVX2
 *    maddubs/madd int32-accumulation kernel.  Integer addition is
 *    associative, so this backend is bit-identical to the scalar
 *    Int8 backend (asserted in tests) -- and therefore covered by
 *    the same score-bound + WER-delta validation.  Scalar fallback
 *    as above.
 *
 * Bit-identity contract (float paths)
 * -----------------------------------
 * Every float backend must produce, for every output element, the
 * exact float sequence of the reference kernel: a single f32
 * accumulator over k in ascending order (acoustic::matmulTransposed),
 * bias added after the full dot product, ReLU between hidden layers,
 * and normalization through acoustic::logSoftmaxRow.
 *
 * Row independence (every backend)
 * --------------------------------
 * Each output row depends only on its input row: scoring any subset
 * of a batch's rows gives bit-for-bit the corresponding rows of the
 * full batch, on every backend (the int8 ones quantize activations
 * per row).  This is what lets the server batch frames from
 * unrelated sessions -- and a one-utterance offline pass score the
 * same frames -- without touching the determinism contract.
 *
 * Thread safety: backends are immutable after construction;
 * scoreBatch is const and uses only local scratch, so one backend
 * instance serves any number of concurrent sessions.  A
 * batch can also be split across threads: scoreBatch hands the
 * packed backends' per-layer GEMM work items to a caller-supplied
 * ParallelFor.  Each output element is written by exactly one item,
 * with the same arithmetic, so the split never changes a bit.
 */

#ifndef ASR_ACOUSTIC_BACKEND_HH
#define ASR_ACOUSTIC_BACKEND_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "acoustic/dnn.hh"
#include "acoustic/matrix.hh"

namespace asr::acoustic {

/** The available scoring implementations. */
enum class BackendKind
{
    Reference,    //!< naive float GEMM (the training-time path)
    Blocked,      //!< packed-tile float GEMM (AVX2 or scalar kernel)
    BlockedAvx2,  //!< Blocked's AVX2 kernel with FMA (scalar fallback)
    Int8,         //!< int8 weight-quantized GEMM
    Int8Avx2,     //!< Int8 scheme, AVX2 maddubs kernel (scalar fallback)
};

/**
 * Stable lower-case name ("reference", "blocked", "blocked-avx2",
 * "int8", "int8-avx2").
 */
std::string_view backendName(BackendKind kind);

/** Inverse of backendName; fatal on an unknown name. */
BackendKind backendKindFromName(std::string_view name);

/**
 * Non-fatal variant of backendKindFromName for config validation.
 * @return false when @p name is unknown (@p kind untouched)
 */
bool tryBackendKindFromName(std::string_view name, BackendKind &kind);

/** The stable names, in BackendKind declaration order. */
std::vector<std::string_view> acousticBackendNames();

/**
 * Diagnostic for an unresolvable @p name, listing the known backends
 * -- the one message every entry point (backendKindFromName,
 * api::EngineOptions::validate) reports so a typo always shows the
 * valid choices.
 */
std::string unknownBackendMessage(std::string_view name);

/**
 * Runs fn(0) .. fn(count - 1) -- in any order, on any threads -- and
 * returns once every call has finished.
 */
using ParallelFor = std::function<void(
    std::size_t count, const std::function<void(std::size_t)> &fn)>;

/** The ParallelFor that runs every index in order on the caller. */
const ParallelFor &serialFor();

/**
 * rows x in x out MACs from which scoreBatch hands a layer's GEMM to
 * its ParallelFor: a split costs one barrier across the caller's
 * threads (tens of microseconds of wake-ups), which 2^21 MACs --
 * about 0.15 ms of one core's kernel time -- amortizes.
 */
inline constexpr std::uint64_t kGemmSplitFloorMacs = std::uint64_t(1)
                                                     << 21;

/** Abstract scorer over a trained Dnn's parameters. */
class Backend
{
  public:
    virtual ~Backend() = default;

    virtual BackendKind kind() const = 0;
    std::string_view name() const { return backendName(kind()); }

    /** True when this backend honours the float bit-identity contract. */
    virtual bool bitIdenticalToReference() const = 0;

    /**
     * Instruction set the hot kernel actually dispatches to:
     * "scalar", or "avx2" when an explicitly vectorized backend
     * resolved cpu::hasAvx2() at construction.  Diagnostics and
     * bench JSON; never affects results beyond the documented
     * backend bounds.
     */
    virtual std::string_view isa() const { return "scalar"; }

    std::size_t inputDim() const { return inDim; }
    std::size_t outputDim() const { return outDim; }

    /**
     * Score @p input, batch x inputDim spliced feature rows; returns
     * batch x outputDim log-softmax scores.  Row r of the result
     * depends only on row r of the input.  Each layer's
     * GEMM work goes through @p par once it is large enough to be
     * worth a split (layers stay sequential); the result is
     * bit-identical to the serial overload's.
     */
    virtual Matrix scoreBatch(const Matrix &input,
                              const ParallelFor &par) const = 0;

    /** scoreBatch on the calling thread alone. */
    Matrix
    scoreBatch(const Matrix &input) const
    {
        return scoreBatch(input, serialFor());
    }

    /** Multiply-accumulates one frame costs (analytical models). */
    virtual std::uint64_t macsPerFrame() const = 0;

    /**
     * Weight + bias bytes one frame must read when nothing is cached
     * (analytical models: the traffic a batch amortizes).
     */
    virtual std::uint64_t weightBytesPerFrame() const = 0;

    /** Build a backend of @p kind over the trained @p dnn. */
    static std::unique_ptr<Backend> create(BackendKind kind,
                                           const Dnn &dnn);

  protected:
    Backend(std::size_t input_dim, std::size_t output_dim)
        : inDim(input_dim), outDim(output_dim)
    {
    }

  private:
    std::size_t inDim;
    std::size_t outDim;
};

} // namespace asr::acoustic

#endif // ASR_ACOUSTIC_BACKEND_HH
