/**
 * @file
 * Backend equivalence tests: the blocked float backend must reproduce
 * the reference bit-for-bit across shapes (including tile-tail
 * dimensions and context-splice edge frames), every backend must
 * score rows independently (any subset of a batch's rows scores to
 * exactly those rows of the full batch -- the contract cross-session
 * batching rests on), and the int8 backend must stay within bounded
 * score error of the float paths.
 *
 * The AVX2 variants have their own contracts: blocked must stay
 * bitwise on its AVX2 kernel and on the scalar fallback alike;
 * int8-avx2 must be bit-identical to scalar int8 (integer addition is
 * associative); blocked-avx2 trades bitwise identity for an FMA error
 * bound when SIMD is active, and must degrade to the bit-identical
 * scalar kernel when AVX2 is unavailable (exercised via the test
 * override).
 *
 * Splitting a batch across threads (scoreBatch with a ParallelFor)
 * must not change a bit on any backend, whatever order and threads
 * the items run on, and must engage exactly from the split floor.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "acoustic/backend.hh"
#include "acoustic/scorer.hh"
#include "common/cpuinfo.hh"
#include "common/rng.hh"

using namespace asr;
using namespace asr::acoustic;

namespace {

Dnn
makeNet(std::size_t input, std::vector<std::size_t> hidden,
        std::size_t output, std::uint64_t seed)
{
    DnnConfig cfg;
    cfg.inputDim = input;
    cfg.hidden = std::move(hidden);
    cfg.outputDim = output;
    cfg.seed = seed;
    return Dnn(cfg);
}

Matrix
randomInput(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    Matrix m(rows, cols);
    Rng rng(seed);
    for (float &v : m.data())
        v = float(rng.uniform(-2.0, 2.0));
    return m;
}

/**
 * makeNet plus one SGD step on random data.  A fresh Dnn has all-zero
 * biases, which would hide a kernel that adds the bias at the wrong
 * point (say, once per k-slice).
 */
Dnn
makeBiasedNet(std::size_t input, std::vector<std::size_t> hidden,
              std::size_t output, std::uint64_t seed)
{
    Dnn net = makeNet(input, std::move(hidden), output, seed);
    std::vector<std::uint32_t> labels(16);
    for (std::size_t i = 0; i < labels.size(); ++i)
        labels[i] = std::uint32_t(i % output);
    net.trainStep(randomInput(labels.size(), input, seed), labels);
    return net;
}

/** Exact float equality, element by element. */
void
expectBitIdentical(const Matrix &a, const Matrix &b)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            ASSERT_EQ(a.at(r, c), b.at(r, c))
                << "mismatch at (" << r << ", " << c << ")";
}

/** Restores the SIMD test override on scope exit. */
struct ScalarOverrideGuard
{
    explicit ScalarOverrideGuard(bool force)
    {
        cpu::setForceScalarForTest(force);
    }
    ~ScalarOverrideGuard() { cpu::clearForceScalarForTest(); }
};

constexpr BackendKind kAllKinds[] = {
    BackendKind::Reference, BackendKind::Blocked,
    BackendKind::BlockedAvx2, BackendKind::Int8,
    BackendKind::Int8Avx2};

/**
 * Blocked vs reference over shapes chosen to exercise the packed
 * layout's tails: output dims below one tile, exactly one tile, and
 * off-tile remainders; odd input dims, and one (300) deeper than the
 * AVX2 kernel's 128-k slice and not a multiple of it; zero, one and
 * two hidden layers.  Batch sizes 1-7 and 33 cover the 3-row
 * register-block tails and the 32-row block tail.
 */
void
expectBlockedMatchesReference()
{
    struct Shape
    {
        std::size_t in;
        std::vector<std::size_t> hidden;
        std::size_t out;
    };
    const Shape shapes[] = {
        {5, {7}, 3},        // everything smaller than a tile
        {16, {16}, 8},      // exact tile multiples
        {33, {17, 9}, 13},  // off-tile everywhere, two hidden layers
        {65, {96, 96}, 24}, // the demo model's shape
        {13, {}, 5},        // no hidden layer at all
        {300, {200}, 37},   // several k-slices, ragged last slice
    };
    std::uint64_t seed = 1;
    for (const Shape &s : shapes) {
        const Dnn net =
            makeBiasedNet(s.in, s.hidden, s.out, 1000 + seed);
        const auto ref = Backend::create(BackendKind::Reference, net);
        const auto blk = Backend::create(BackendKind::Blocked, net);
        ASSERT_EQ(blk->isa(), cpu::hasAvx2() ? "avx2" : "scalar");
        for (std::size_t batch :
             {1u, 2u, 3u, 4u, 5u, 6u, 7u, 17u, 33u, 64u}) {
            SCOPED_TRACE(::testing::Message()
                         << "shape in=" << s.in << " out=" << s.out
                         << " batch=" << batch);
            const Matrix input = randomInput(batch, s.in, seed++);
            expectBitIdentical(ref->scoreBatch(input),
                               blk->scoreBatch(input));
        }
    }
}

/**
 * A ParallelFor that runs the items in reverse order, dealt across
 * @p threads std::threads -- as unlike the serial loop as possible.
 */
ParallelFor
reversedOnThreads(unsigned threads)
{
    return [threads](std::size_t count,
                     const std::function<void(std::size_t)> &fn) {
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back([&fn, count, threads, t] {
                for (std::size_t i = count; i-- > 0;)
                    if (i % threads == t)
                        fn(i);
            });
        for (std::thread &th : pool)
            th.join();
    };
}

} // namespace

TEST(BackendNames, RoundTrip)
{
    for (auto kind :
         {BackendKind::Reference, BackendKind::Blocked,
          BackendKind::BlockedAvx2, BackendKind::Int8,
          BackendKind::Int8Avx2})
        EXPECT_EQ(backendKindFromName(backendName(kind)), kind);
    EXPECT_EQ(backendKindFromName("blocked"), BackendKind::Blocked);
    EXPECT_EQ(backendKindFromName("blocked-avx2"),
              BackendKind::BlockedAvx2);
    EXPECT_EQ(backendKindFromName("int8-avx2"),
              BackendKind::Int8Avx2);
}

TEST(BackendEquivalence, BlockedMatchesReferenceBitExact)
{
    expectBlockedMatchesReference();
}

TEST(BackendEquivalence, BlockedMatchesReferenceBitExactForcedScalar)
{
    // The same sweep on the scalar fallback (the override is read at
    // construction, so it wraps backend creation).
    const ScalarOverrideGuard guard(true);
    ASSERT_FALSE(cpu::hasAvx2());
    expectBlockedMatchesReference();
}

TEST(BackendEquivalence, ScoreBatchRowsAreIndependent)
{
    // Cross-session batching scores a session's frames in whatever
    // batch the tick assembles, and the offline pass scores them all
    // at once; both must give the same bits.  So scoring any subset
    // of rows, in any order, must reproduce exactly those rows of the
    // full batch.  The shape has tile tails on every layer, and the
    // subsets cover the 3-row register-block remainders, single
    // rows, a stride and a reversal -- on every backend, on its
    // dispatched kernel and on the scalar fallback.
    const Dnn net = makeBiasedNet(21, {40, 19}, 37, 77);
    const Matrix full = randomInput(35, 21, 5);

    std::vector<std::vector<std::size_t>> subsets;
    for (std::size_t len : {1u, 2u, 3u, 4u, 5u, 7u, 32u, 33u, 34u}) {
        for (std::size_t first : {std::size_t(0), full.rows() - len}) {
            std::vector<std::size_t> rows(len);
            for (std::size_t i = 0; i < len; ++i)
                rows[i] = first + i;
            subsets.push_back(std::move(rows));
        }
    }
    std::vector<std::size_t> strided, reversed;
    for (std::size_t r = 1; r < full.rows(); r += 3)
        strided.push_back(r);
    for (std::size_t r = full.rows(); r-- > 0;)
        reversed.push_back(r);
    subsets.push_back(strided);
    subsets.push_back(reversed);

    for (const bool forceScalar : {false, true}) {
        const ScalarOverrideGuard guard(forceScalar);
        for (const BackendKind kind : kAllKinds) {
            const auto backend = Backend::create(kind, net);
            const Matrix want = backend->scoreBatch(full);
            for (const auto &rows : subsets) {
                Matrix part(rows.size(), full.cols());
                for (std::size_t i = 0; i < rows.size(); ++i)
                    std::copy(full.row(rows[i]).begin(),
                              full.row(rows[i]).end(),
                              part.row(i).begin());
                const Matrix got = backend->scoreBatch(part);
                for (std::size_t i = 0; i < rows.size(); ++i)
                    for (std::size_t c = 0; c < got.cols(); ++c)
                        ASSERT_EQ(got.at(i, c), want.at(rows[i], c))
                            << backendName(kind) << " scalar="
                            << forceScalar << " subset of "
                            << rows.size() << " rows, row " << rows[i]
                            << " col " << c;
            }
        }
    }
}

TEST(BackendEquivalence, DnnScorerAgreesAcrossBackendsOnEdgeFrames)
{
    // Context splicing replicates edge frames; utterances shorter
    // than the splice window are all edge.  The scorer must produce
    // bit-identical likelihoods through reference and blocked for
    // every length, including 1- and 2-frame utterances.
    const unsigned ctx = 2;
    const std::size_t dim = 13;
    const Dnn net = makeNet((2 * ctx + 1) * dim, {24}, 10, 31);
    const auto ref = Backend::create(BackendKind::Reference, net);
    const auto blk = Backend::create(BackendKind::Blocked, net);
    const DnnScorer refScorer(*ref, ctx);
    const DnnScorer blkScorer(*blk, ctx);

    Rng rng(9);
    for (std::size_t frames : {1u, 2u, 3u, 5u, 8u, 40u}) {
        frontend::FeatureMatrix feats(frames,
                                      std::vector<float>(dim));
        for (auto &row : feats)
            for (float &v : row)
                v = float(rng.uniform(-1.0, 1.0));
        const auto a = refScorer.score(feats);
        const auto b = blkScorer.score(feats);
        ASSERT_EQ(a.numFrames(), frames);
        ASSERT_EQ(b.numFrames(), frames);
        for (std::size_t f = 0; f < frames; ++f)
            for (std::uint32_t p = 0; p <= a.numPhonemes(); ++p)
                ASSERT_EQ(a.score(f, p), b.score(f, p))
                    << frames << "-frame utterance, frame " << f
                    << ", phoneme " << p;
    }
}

TEST(BackendEquivalence, Int8ScoreErrorBounded)
{
    const Dnn net = makeNet(65, {96, 96}, 24, 4242);
    const auto ref = Backend::create(BackendKind::Reference, net);
    const auto q = Backend::create(BackendKind::Int8, net);
    const Matrix input = randomInput(64, 65, 123);
    const Matrix a = ref->scoreBatch(input);
    const Matrix b = q->scoreBatch(input);
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());

    float maxErr = 0.0f;
    std::size_t argmaxAgree = 0;
    for (std::size_t r = 0; r < a.rows(); ++r) {
        std::size_t ba = 0, bb = 0;
        for (std::size_t c = 0; c < a.cols(); ++c) {
            maxErr = std::max(maxErr,
                              std::abs(a.at(r, c) - b.at(r, c)));
            if (a.at(r, c) > a.at(r, ba))
                ba = c;
            if (b.at(r, c) > b.at(r, bb))
                bb = c;
        }
        if (ba == bb)
            ++argmaxAgree;
    }
    // 8-bit symmetric quantization of a 2-hidden-layer net keeps the
    // log-softmax scores within a fraction of a log unit; anything
    // larger indicates a broken scale chain.
    EXPECT_LT(maxErr, 0.5f);
    EXPECT_GE(argmaxAgree, (a.rows() * 9) / 10)
        << "int8 disagreed on the best senone too often";
}

TEST(BackendCostModel, MacsAndWeightBytes)
{
    const Dnn net = makeNet(10, {20}, 30, 3);
    const auto ref = Backend::create(BackendKind::Reference, net);
    const auto blk = Backend::create(BackendKind::Blocked, net);
    const auto q = Backend::create(BackendKind::Int8, net);

    const std::uint64_t macs = 10 * 20 + 20 * 30;
    EXPECT_EQ(ref->macsPerFrame(), macs);
    EXPECT_EQ(blk->macsPerFrame(), macs);
    EXPECT_EQ(q->macsPerFrame(), macs);

    // Float: 4 bytes per weight + 4 per bias entry.
    const std::uint64_t floatBytes =
        (10 * 20 + 20 * 30) * 4 + (20 + 30) * 4;
    EXPECT_EQ(ref->weightBytesPerFrame(), floatBytes);
    EXPECT_EQ(blk->weightBytesPerFrame(), floatBytes);
    // Int8: 1 byte per weight + per-channel scale + bias.
    const std::uint64_t int8Bytes =
        (10 * 20 + 20 * 30) * 1 + (20 + 30) * 8;
    EXPECT_EQ(q->weightBytesPerFrame(), int8Bytes);
    EXPECT_LT(q->weightBytesPerFrame(), ref->weightBytesPerFrame());

    EXPECT_TRUE(ref->bitIdenticalToReference());
    EXPECT_TRUE(blk->bitIdenticalToReference());
    EXPECT_FALSE(q->bitIdenticalToReference());
}

TEST(BackendSimd, BlockedAvx2WithinErrorBoundOfReference)
{
    // FMA contraction and lane-parallel accumulation reorder the
    // float sums, so blocked-avx2 promises a bound, not identity --
    // on the post-log-softmax scores a handful of ULPs.  When the
    // host lacks AVX2 the backend reports bitIdenticalToReference()
    // and must then match exactly.
    const Dnn net = makeNet(65, {96, 96}, 24, 4242);
    const auto ref = Backend::create(BackendKind::Reference, net);
    const auto avx = Backend::create(BackendKind::BlockedAvx2, net);
    std::uint64_t seed = 900;
    for (std::size_t batch : {1u, 3u, 17u, 64u}) {
        const Matrix input = randomInput(batch, 65, seed++);
        const Matrix a = ref->scoreBatch(input);
        const Matrix b = avx->scoreBatch(input);
        ASSERT_EQ(a.rows(), b.rows());
        ASSERT_EQ(a.cols(), b.cols());
        if (avx->bitIdenticalToReference()) {
            expectBitIdentical(a, b);
            continue;
        }
        for (std::size_t r = 0; r < a.rows(); ++r)
            for (std::size_t c = 0; c < a.cols(); ++c)
                ASSERT_NEAR(a.at(r, c), b.at(r, c), 1e-4f)
                    << "batch " << batch << " (" << r << ", " << c
                    << ")";
    }
}

TEST(BackendSimd, BlockedAvx2HandlesTileTails)
{
    // Same tail-heavy shape sweep as the scalar blocked test: the
    // AVX2 kernel's partial-tile store path must not read or write
    // past the packed panel edges.
    struct Shape
    {
        std::size_t in;
        std::vector<std::size_t> hidden;
        std::size_t out;
    };
    const Shape shapes[] = {
        {5, {7}, 3},
        {16, {16}, 8},
        {33, {17, 9}, 13},
        {13, {}, 5},
    };
    std::uint64_t seed = 3000;
    for (const Shape &s : shapes) {
        const Dnn net = makeNet(s.in, s.hidden, s.out, 2000 + seed);
        const auto ref = Backend::create(BackendKind::Reference, net);
        const auto avx =
            Backend::create(BackendKind::BlockedAvx2, net);
        for (std::size_t batch : {1u, 2u, 33u}) {
            const Matrix input = randomInput(batch, s.in, seed++);
            const Matrix a = ref->scoreBatch(input);
            const Matrix b = avx->scoreBatch(input);
            for (std::size_t r = 0; r < a.rows(); ++r)
                for (std::size_t c = 0; c < a.cols(); ++c)
                    ASSERT_NEAR(a.at(r, c), b.at(r, c), 1e-4f);
        }
    }
}

TEST(BackendSimd, Int8Avx2BitwiseMatchesScalarInt8)
{
    // Integer accumulation is associative, so the vpmaddubsw kernel
    // must reproduce the scalar int8 scores exactly -- including on
    // shapes whose input dim is not a multiple of the 4-wide k
    // groups, where the packed panels are zero-padded.
    struct Shape
    {
        std::size_t in;
        std::vector<std::size_t> hidden;
        std::size_t out;
    };
    const Shape shapes[] = {
        {5, {7}, 3},
        {16, {16}, 8},
        {33, {17, 9}, 13},
        {65, {96, 96}, 24},
        {13, {}, 5},
    };
    std::uint64_t seed = 5000;
    for (const Shape &s : shapes) {
        const Dnn net = makeNet(s.in, s.hidden, s.out, 4000 + seed);
        const auto scalar = Backend::create(BackendKind::Int8, net);
        const auto avx = Backend::create(BackendKind::Int8Avx2, net);
        for (std::size_t batch : {1u, 2u, 17u, 64u}) {
            const Matrix input = randomInput(batch, s.in, seed++);
            expectBitIdentical(scalar->scoreBatch(input),
                               avx->scoreBatch(input));
        }
    }
}

TEST(BackendSimd, ForcedScalarFallbackIsBitIdentical)
{
    // With the override asserting "no AVX2", both SIMD backends must
    // construct on the scalar kernels: blocked-avx2 regains bitwise
    // identity with the reference and int8-avx2 still equals scalar
    // int8.  The override is read at construction, so the guard
    // wraps backend creation.
    const ScalarOverrideGuard guard(true);
    ASSERT_FALSE(cpu::hasAvx2());
    const Dnn net = makeNet(33, {17, 9}, 13, 808);
    const auto ref = Backend::create(BackendKind::Reference, net);
    const auto blk = Backend::create(BackendKind::Blocked, net);
    const auto avx = Backend::create(BackendKind::BlockedAvx2, net);
    const auto int8 = Backend::create(BackendKind::Int8, net);
    const auto qavx = Backend::create(BackendKind::Int8Avx2, net);
    EXPECT_EQ(blk->isa(), "scalar");
    EXPECT_TRUE(blk->bitIdenticalToReference());
    EXPECT_EQ(avx->isa(), "scalar");
    EXPECT_EQ(qavx->isa(), "scalar");
    EXPECT_TRUE(avx->bitIdenticalToReference());
    const Matrix input = randomInput(19, 33, 606);
    expectBitIdentical(ref->scoreBatch(input),
                       avx->scoreBatch(input));
    expectBitIdentical(int8->scoreBatch(input),
                       qavx->scoreBatch(input));
}

TEST(BackendSimd, IsaReportsDispatchDecision)
{
    const Dnn net = makeNet(12, {8}, 6, 99);
    const auto ref = Backend::create(BackendKind::Reference, net);
    const auto blk = Backend::create(BackendKind::Blocked, net);
    const auto avx = Backend::create(BackendKind::BlockedAvx2, net);
    const auto qavx = Backend::create(BackendKind::Int8Avx2, net);
    EXPECT_EQ(ref->isa(), "scalar");
    const std::string_view expect =
        cpu::hasAvx2() ? "avx2" : "scalar";
    EXPECT_EQ(blk->isa(), expect);
    // blocked keeps the contract on either kernel; blocked-avx2
    // keeps it only on the scalar fallback.
    EXPECT_TRUE(blk->bitIdenticalToReference());
    EXPECT_EQ(avx->bitIdenticalToReference(), expect == "scalar");
    EXPECT_EQ(avx->isa(), expect);
    EXPECT_EQ(qavx->isa(), expect);
    // The dispatch predicate and the human-readable level agree.
    EXPECT_EQ(cpu::simdLevel(),
              cpu::hasAvx2() ? "avx2+fma" : "scalar");
}

TEST(BackendSimd, Avx2CostModelMatchesScalarSiblings)
{
    const Dnn net = makeNet(10, {20}, 30, 3);
    const auto blk = Backend::create(BackendKind::Blocked, net);
    const auto avx = Backend::create(BackendKind::BlockedAvx2, net);
    const auto q = Backend::create(BackendKind::Int8, net);
    const auto qavx = Backend::create(BackendKind::Int8Avx2, net);
    EXPECT_EQ(avx->macsPerFrame(), blk->macsPerFrame());
    EXPECT_EQ(qavx->macsPerFrame(), q->macsPerFrame());
    EXPECT_EQ(avx->weightBytesPerFrame(), blk->weightBytesPerFrame());
    EXPECT_EQ(qavx->weightBytesPerFrame(), q->weightBytesPerFrame());
    // int8-avx2 shares int8's accuracy contract, never bitwise.
    EXPECT_FALSE(qavx->bitIdenticalToReference());
}

TEST(BackendEquivalence, ZeroInputRow)
{
    // Digital silence: the int8 dynamic quantizer hits its amax == 0
    // special case; float paths must agree with each other too.
    const Dnn net = makeNet(12, {8}, 6, 55);
    const auto ref = Backend::create(BackendKind::Reference, net);
    const auto blk = Backend::create(BackendKind::Blocked, net);
    const auto q = Backend::create(BackendKind::Int8, net);
    Matrix zero(2, 12);  // all-zero batch
    expectBitIdentical(ref->scoreBatch(zero), blk->scoreBatch(zero));
    const Matrix qi = q->scoreBatch(zero);
    // Log-softmax rows must still normalize.
    for (std::size_t r = 0; r < qi.rows(); ++r) {
        double sum = 0.0;
        for (std::size_t c = 0; c < qi.cols(); ++c)
            sum += std::exp(double(qi.at(r, c)));
        ASSERT_NEAR(sum, 1.0, 1e-4);
    }
}

// ---------------------------------------------------------------------------
// Splitting a batch across threads.
// ---------------------------------------------------------------------------

TEST(BackendSplit, ParallelScoreBatchMatchesSerialBitExact)
{
    // Nets whose first layer is past the split floor at these batch
    // sizes, so the packed backends really hand their items out; the
    // other backends ignore the ParallelFor and must agree anyway.
    const Dnn nets[] = {makeBiasedNet(300, {200}, 37, 71),
                        makeBiasedNet(256, {256, 256}, 256, 72)};
    const ParallelFor par = reversedOnThreads(3);
    std::uint64_t seed = 7000;
    for (const Dnn &net : nets)
        for (const BackendKind kind : kAllKinds) {
            const auto backend = Backend::create(kind, net);
            for (std::size_t batch : {1u, 33u, 64u, 100u}) {
                SCOPED_TRACE(::testing::Message()
                             << backendName(kind) << " batch "
                             << batch);
                const Matrix input =
                    randomInput(batch, net.config().inputDim, seed++);
                expectBitIdentical(backend->scoreBatch(input),
                                   backend->scoreBatch(input, par));
            }
        }
}

TEST(BackendSplit, SplitEngagesFromTheFloor)
{
    // One 256 x 256 layer: 32 rows is exactly kGemmSplitFloorMacs,
    // 31 rows is just under it.
    static_assert(32 * 256 * 256 == kGemmSplitFloorMacs);
    const Dnn net = makeBiasedNet(256, {}, 256, 73);
    std::vector<std::size_t> calls;  // item count of each split
    const ParallelFor counting =
        [&calls](std::size_t count,
                 const std::function<void(std::size_t)> &fn) {
            calls.push_back(count);
            serialFor()(count, fn);
        };
    for (const BackendKind kind : kAllKinds) {
        const auto backend = Backend::create(kind, net);
        const bool packed = kind == BackendKind::Blocked ||
                            kind == BackendKind::BlockedAvx2;
        for (std::size_t batch : {31u, 32u}) {
            SCOPED_TRACE(::testing::Message()
                         << backendName(kind) << " batch " << batch);
            calls.clear();
            const Matrix input = randomInput(batch, 256, 8000 + batch);
            expectBitIdentical(backend->scoreBatch(input),
                               backend->scoreBatch(input, counting));
            if (packed && batch == 32) {
                // One split for the one layer: one 32-row block x 8
                // 32-channel tiles.
                ASSERT_EQ(calls.size(), 1u);
                EXPECT_EQ(calls[0], 8u);
            } else {
                EXPECT_TRUE(calls.empty());
            }
        }
    }
}
