/** @file Unit tests for the matrix-multiply workload variants. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <vector>

#include "cachesim/hierarchy.hh"
#include "cachesim_counts_check.hh"
#include "machine/machine_config.hh"
#include "workloads/matmul.hh"

namespace
{

using namespace lsched::workloads;

/** Naive reference multiply. */
Matrix
reference(const Matrix &a, const Matrix &b)
{
    const std::size_t n = a.rows();
    Matrix c(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            double s = 0;
            for (std::size_t k = 0; k < n; ++k)
                s += a(i, k) * b(k, j);
            c(i, j) = s;
        }
    return c;
}

class MatmulTest : public ::testing::TestWithParam<std::size_t>
{
  protected:
    void
    SetUp() override
    {
        n_ = GetParam();
        a_ = std::make_unique<Matrix>(n_, n_);
        b_ = std::make_unique<Matrix>(n_, n_);
        randomize(*a_, 1);
        randomize(*b_, 2);
        ref_ = std::make_unique<Matrix>(reference(*a_, *b_));
    }

    std::size_t n_ = 0;
    std::unique_ptr<Matrix> a_, b_, ref_;
};

TEST_P(MatmulTest, InterchangedMatchesReference)
{
    Matrix c(n_, n_);
    NativeModel m;
    matmulInterchanged(*a_, *b_, c, m);
    EXPECT_LT(c.maxAbsDiff(*ref_), 1e-9 * static_cast<double>(n_));
}

TEST_P(MatmulTest, TransposedMatchesReference)
{
    Matrix c(n_, n_);
    NativeModel m;
    matmulTransposed(*a_, *b_, c, m);
    EXPECT_LT(c.maxAbsDiff(*ref_), 1e-9 * static_cast<double>(n_));
}

TEST_P(MatmulTest, TiledInterchangedMatchesReference)
{
    Matrix c(n_, n_);
    NativeModel m;
    matmulTiledInterchanged(*a_, *b_, c, m, 16 * 1024, 128 * 1024);
    EXPECT_LT(c.maxAbsDiff(*ref_), 1e-9 * static_cast<double>(n_));
}

TEST_P(MatmulTest, TiledTransposedMatchesReference)
{
    Matrix c(n_, n_);
    NativeModel m;
    matmulTiledTransposed(*a_, *b_, c, m, 16 * 1024, 128 * 1024);
    EXPECT_LT(c.maxAbsDiff(*ref_), 1e-9 * static_cast<double>(n_));
}

TEST_P(MatmulTest, ThreadedMatchesReference)
{
    Matrix c(n_, n_);
    NativeModel m;
    lsched::threads::SchedulerConfig cfg;
    cfg.dims = 2;
    cfg.blockBytes = 4096;
    lsched::threads::LocalityScheduler sched(cfg);
    matmulThreaded(*a_, *b_, c, sched, m);
    EXPECT_LT(c.maxAbsDiff(*ref_), 1e-9 * static_cast<double>(n_));
    EXPECT_EQ(sched.stats().executedThreads, n_ * n_);
}

TEST_P(MatmulTest, ThreadedBitIdenticalToTransposed)
{
    // Both run the one dot-product kernel, so C matches bit for bit.
    NativeModel m;
    Matrix c_transposed(n_, n_);
    matmulTransposed(*a_, *b_, c_transposed, m);
    lsched::threads::SchedulerConfig cfg;
    cfg.dims = 2;
    cfg.blockBytes = 4096;
    lsched::threads::LocalityScheduler sched(cfg);
    Matrix c_threaded(n_, n_);
    matmulThreaded(*a_, *b_, c_threaded, sched, m);
    EXPECT_EQ(c_threaded.maxAbsDiff(c_transposed), 0.0);
}

// Sizes straddle the 3x3 register-block and tile boundaries, and the
// dot kernel's 16-sum width: below it, at multiples of it, and with
// tails of several lengths.
INSTANTIATE_TEST_SUITE_P(Sizes, MatmulTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 16,
                                           17, 24, 33, 48, 100));

/** The bits of @p v, so EXPECT_EQ tells -0.0 from 0.0 and NaNs apart. */
std::uint64_t
bitsOf(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** One model call, as RecordingModel logs it. */
struct ModelEvent
{
    char kind; // 'L'oad, 'S'tore, 'I'nstructions, 'K'ernel entry
    std::uint64_t value; // address, instruction count or kernel id
    std::uint32_t bytes;

    bool operator==(const ModelEvent &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const ModelEvent &e)
{
    return os << e.kind << ":" << std::hex << e.value << std::dec << "/"
              << e.bytes;
}

/** Memory model that logs every call in order, for stream guards. */
struct RecordingModel
{
    void
    load(const void *p, std::uint32_t bytes)
    {
        log.push_back({'L', reinterpret_cast<std::uintptr_t>(p), bytes});
    }
    void
    store(const void *p, std::uint32_t bytes)
    {
        log.push_back({'S', reinterpret_cast<std::uintptr_t>(p), bytes});
    }
    void instructions(std::uint64_t n) { log.push_back({'I', n, 0}); }
    void enterKernel(unsigned id) { log.push_back({'K', id, 0}); }

    std::vector<ModelEvent> log;
};

ModelEvent
loadOf(const double *p)
{
    return {'L', reinterpret_cast<std::uintptr_t>(p), 8};
}

ModelEvent
storeOf(const double *p)
{
    return {'S', reinterpret_cast<std::uintptr_t>(p), 8};
}

/**
 * The stream one dot product of columns x and y must reference, as
 * the simulated tables were measured: x[k] then y[k] for k ascending.
 */
void
appendDotLoads(std::vector<ModelEvent> &out, const double *x,
               const double *y, std::size_t n)
{
    for (std::size_t k = 0; k < n; ++k) {
        out.push_back(loadOf(&x[k]));
        out.push_back(loadOf(&y[k]));
    }
}

/** Stream guards at n below the kernel's width, at a multiple of it,
 *  and with a tail. */
class DotReferenceStream : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(DotReferenceStream, ThreadBodyLoadsXThenYPerElement)
{
    const std::size_t n = GetParam();
    Matrix at(n, n), b(n, n), c(n, n);
    randomize(at, 5);
    randomize(b, 6);
    RecordingModel rm;
    DotProductCtx<RecordingModel> ctx{&at, &b, &c, &rm};
    const std::size_t i = n / 2, j = n - 1;
    dotProductThread<RecordingModel>(
        &ctx, reinterpret_cast<void *>((i << 32) | j));

    std::vector<ModelEvent> want;
    appendDotLoads(want, at.col(i), b.col(j), n);
    want.push_back(storeOf(&c(i, j)));
    want.push_back({'I', 7 * n / 2 + 6 + kThreadOverheadInstr, 0});
    EXPECT_EQ(rm.log, want);
}

TEST_P(DotReferenceStream, TransposedKernelLoadsXThenYPerElement)
{
    const std::size_t n = GetParam();
    Matrix a(n, n), b(n, n), c(n, n);
    randomize(a, 7);
    randomize(b, 8);
    RecordingModel rm;
    matmulTransposed(a, b, c, rm);

    // At is internal to the kernel; its first transpose store is
    // At(0,0), which locates it.
    const auto &log = rm.log;
    const ModelEvent enter_transpose{'K', kMatmulTransposeA, 0};
    const ModelEvent enter_dot{'K', kMatmulTransposed, 0};
    const auto first = std::find(log.begin(), log.end(), enter_transpose);
    ASSERT_NE(first, log.end());
    const auto at_store =
        std::find_if(first, log.end(),
                     [](const ModelEvent &e) { return e.kind == 'S'; });
    ASSERT_NE(at_store, log.end());
    const auto *at = reinterpret_cast<const double *>(at_store->value);
    const auto dot = std::find(log.begin(), log.end(), enter_dot);
    ASSERT_NE(dot, log.end());
    const auto second = std::find(dot, log.end(), enter_transpose);
    ASSERT_NE(second, log.end());

    std::vector<ModelEvent> want;
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = 0; i < n; ++i) {
            appendDotLoads(want, at + i * n, b.col(j), n);
            want.push_back(storeOf(&c(i, j)));
            want.push_back({'I', 7 * n / 2 + 6, 0});
        }
    }
    EXPECT_EQ(std::vector<ModelEvent>(dot + 1, second), want);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DotReferenceStream,
                         ::testing::Values(5, 32, 37));

/** The sizes the transpose tests cover: a lone element, one tile
 *  short, exact and over, and several tiles with a ragged edge. */
const std::size_t kTransposeSizes[] = {1, 31, 32, 33, 100};

/** The native transpose writes tiles in another loop order than a
 *  modelled one; the copied values must be the same bits. */
TEST(Transpose, NativeMatchesModelPathBitForBit)
{
    for (const std::size_t n : kTransposeSizes) {
        Matrix a(n, n), at_native(n, n), at_model(n, n);
        randomize(a, 40 + n);
        NativeModel nm;
        RecordingModel rm;
        transpose(a, at_native, nm);
        transpose(a, at_model, rm);
        for (std::size_t j = 0; j < n; ++j) {
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(bitsOf(at_native(i, j)), bitsOf(at_model(i, j)))
                    << "n=" << n << " (" << i << "," << j << ")";
                ASSERT_EQ(bitsOf(at_native(i, j)), bitsOf(a(j, i)))
                    << "n=" << n << " (" << i << "," << j << ")";
            }
        }
    }
}

/**
 * A modelled transpose still references each 32 x 32 tile column by
 * column (j outer, i inner; a load of a(i, j), then the store of
 * at(j, i)), tiles in jj-then-ii order: the stream the simulated
 * tables were measured with.
 */
TEST(Transpose, ModelStreamIsColumnOrderWithinEachTile)
{
    constexpr std::size_t kTile = 32;
    for (const std::size_t n : kTransposeSizes) {
        Matrix a(n, n), at(n, n);
        RecordingModel rm;
        transpose(a, at, rm);

        std::vector<ModelEvent> want{{'K', kMatmulTransposeA, 0}};
        for (std::size_t jj = 0; jj < n; jj += kTile) {
            const std::size_t jend = std::min(jj + kTile, n);
            for (std::size_t ii = 0; ii < n; ii += kTile) {
                const std::size_t iend = std::min(ii + kTile, n);
                for (std::size_t j = jj; j < jend; ++j) {
                    for (std::size_t i = ii; i < iend; ++i) {
                        want.push_back(loadOf(&a(i, j)));
                        want.push_back(storeOf(&at(j, i)));
                    }
                }
                want.push_back(
                    {'I', 4 * (jend - jj) * (iend - ii) + 8, 0});
            }
        }
        EXPECT_EQ(rm.log, want) << "n=" << n;
    }
}

/**
 * The kernel's rounding error stays within n * 2^-52 * sum |x_k y_k|
 * of an extended-precision reference, whatever the cancellation: the
 * bound perfbench's output tolerance is derived from.
 */
TEST(DotKernelAccuracy, WithinSummationBoundOfLongDouble)
{
    lsched::Prng prng(11);
    for (const std::size_t n : {1u, 3u, 16u, 31u, 100u, 1024u, 4099u}) {
        for (const bool cancel : {false, true}) {
            std::vector<double> x(n), y(n);
            for (std::size_t k = 0; k < n; ++k) {
                // Magnitudes spread over 2^-20 .. 2^20.
                const int e = static_cast<int>(prng.nextBelow(41)) - 20;
                x[k] = std::ldexp(prng.nextDouble(-1.0, 1.0), e);
                y[k] = prng.nextDouble(-1.0, 1.0);
            }
            if (cancel) {
                // Each product in the second half nearly cancels one in
                // the first, so the true sum is tiny next to the terms.
                for (std::size_t k = n / 2; k < n; ++k) {
                    x[k] = x[k - n / 2];
                    y[k] = -y[k - n / 2] *
                           (1.0 + std::ldexp(prng.nextDouble(-1.0, 1.0),
                                             -30));
                }
            }
            long double exact = 0, magnitude = 0;
            for (std::size_t k = 0; k < n; ++k) {
                const long double p =
                    static_cast<long double>(x[k]) * y[k];
                exact += p;
                magnitude += std::fabs(p);
            }
            NativeModel m;
            const double got = dotProduct(x.data(), y.data(), n, m);
            const long double bound = static_cast<long double>(n) *
                                      std::ldexp(1.0L, -52) * magnitude;
            EXPECT_LE(std::fabs(static_cast<long double>(got) - exact),
                      bound)
                << "n=" << n << " cancel=" << cancel;
        }
    }
}

/**
 * Native dot products go through dotProduct()'s dispatch to an
 * out-of-line build of the kernel (AVX-512 or AVX2 when the CPU has
 * it); every other model inlines the kernel at the default ISA. Every
 * build the CPU runs must give the same bits at every tail length and
 * at the matmul's own size.
 */
TEST(DotKernel, NativeDispatchBitIdenticalToModelPath)
{
    std::vector<std::size_t> sizes;
    for (std::size_t n = 0; n <= 70; ++n)
        sizes.push_back(n);
    for (std::size_t n = 1023; n <= 1025; ++n)
        sizes.push_back(n);
    std::uint64_t seed = 100;
    for (const std::size_t n : sizes) {
        std::vector<double> x(n), y(n);
        lsched::Prng prng(++seed);
        for (std::size_t k = 0; k < n; ++k) {
            x[k] = prng.nextDouble(-1.0, 1.0);
            y[k] = prng.nextDouble(-1.0, 1.0);
        }
        NativeModel nm;
        RecordingModel rm;
        const double model_path = dotProduct(x.data(), y.data(), n, rm);
        EXPECT_EQ(bitsOf(dotProduct(x.data(), y.data(), n, nm)),
                  bitsOf(model_path))
            << "n=" << n;
        EXPECT_EQ(bitsOf(detail::dotProductBase(x.data(), y.data(), n)),
                  bitsOf(model_path))
            << "n=" << n;
#if defined(__x86_64__)
        if (detail::kDotProductAvx512) {
            EXPECT_EQ(
                bitsOf(detail::dotProductAvx512(x.data(), y.data(), n)),
                bitsOf(model_path))
                << "n=" << n;
        }
        if (detail::kDotProductAvx2) {
            EXPECT_EQ(
                bitsOf(detail::dotProductAvx2(x.data(), y.data(), n)),
                bitsOf(model_path))
                << "n=" << n;
        }
#endif
        if (n == 0)
            continue; // a Matrix has at least one row
        Matrix at(n, 1), b(n, 1), c_native(1, 1), c_model(1, 1);
        std::copy(x.begin(), x.end(), at.col(0));
        std::copy(y.begin(), y.end(), b.col(0));
        DotProductCtx<NativeModel> native_ctx{&at, &b, &c_native, &nm};
        DotProductCtx<RecordingModel> model_ctx{&at, &b, &c_model, &rm};
        dotProductThread<NativeModel>(&native_ctx, nullptr);
        dotProductThread<RecordingModel>(&model_ctx, nullptr);
        EXPECT_EQ(bitsOf(c_native(0, 0)), bitsOf(c_model(0, 0)))
            << "n=" << n;
    }
}

TEST(MatmulTraced, TracedResultsMatchNative)
{
    const std::size_t n = 24;
    Matrix a(n, n), b(n, n);
    randomize(a, 1);
    randomize(b, 2);

    Matrix c_native(n, n);
    NativeModel nm;
    matmulTransposed(a, b, c_native, nm);

    lsched::cachesim::Hierarchy h(
        lsched::machine::scaled(lsched::machine::powerIndigo2R8000(), 64)
            .caches);
    SimModel sm(h);
    Matrix c_traced(n, n);
    matmulTransposed(a, b, c_traced, sm);
    EXPECT_EQ(c_traced.maxAbsDiff(c_native), 0.0);
    EXPECT_GT(h.dataRefs(), 2 * n * n * n);
}

TEST(MatmulTraced, ThreadedTracedResultsMatchNative)
{
    // Odd n, so every dot product runs the kernel's scalar tail.
    const std::size_t n = 25;
    Matrix a(n, n), b(n, n);
    randomize(a, 1);
    randomize(b, 2);
    lsched::threads::SchedulerConfig cfg;
    cfg.dims = 2;
    cfg.blockBytes = 4096;

    Matrix c_native(n, n);
    NativeModel nm;
    lsched::threads::LocalityScheduler native_sched(cfg);
    matmulThreaded(a, b, c_native, native_sched, nm);

    lsched::cachesim::Hierarchy h(
        lsched::machine::scaled(lsched::machine::powerIndigo2R8000(), 64)
            .caches);
    SimModel sm(h);
    lsched::threads::LocalityScheduler traced_sched(cfg);
    Matrix c_traced(n, n);
    matmulThreaded(a, b, c_traced, traced_sched, sm);
    EXPECT_EQ(c_traced.maxAbsDiff(c_native), 0.0);
    EXPECT_GT(h.dataRefs(), 2 * n * n * n);
}

/** SimModel without loadPairs(): each load pair goes as two load()s. */
struct LoadOnlySimModel
{
    void load(const void *p, std::uint32_t bytes) { sim.load(p, bytes); }
    void store(const void *p, std::uint32_t bytes) { sim.store(p, bytes); }
    void instructions(std::uint64_t n) { sim.instructions(n); }
    void enterKernel(unsigned id) { sim.enterKernel(id); }

    SimModel sim;
};

/** Whether loadPairs(model, ...) reaches M's own loadPairs(). */
template <class M>
concept TakesLoadPairs = requires(M &m, const void *p) {
    m.loadPairs(p, p, 8u, std::size_t{16});
};
static_assert(TakesLoadPairs<SimModel>);
static_assert(TakesLoadPairs<NativeModel>);
static_assert(!TakesLoadPairs<LoadOnlySimModel>);
static_assert(!TakesLoadPairs<RecordingModel>);

/**
 * One kernel run drives two hierarchies, so both see the same
 * addresses: SimModel's, which takes each dot product's load pairs in
 * loadPairs() calls, and LoadOnlySimModel's, which takes them one
 * load() at a time.
 */
struct PairedModels
{
    void
    load(const void *p, std::uint32_t bytes)
    {
        pairs.load(p, bytes);
        refs.load(p, bytes);
    }
    void
    loadPairs(const void *x, const void *y, std::uint32_t bytes,
              std::size_t count)
    {
        pairs.loadPairs(x, y, bytes, count);
        lsched::workloads::loadPairs(refs, x, y, bytes, count);
    }
    void
    store(const void *p, std::uint32_t bytes)
    {
        pairs.store(p, bytes);
        refs.store(p, bytes);
    }
    void
    instructions(std::uint64_t n)
    {
        pairs.instructions(n);
        refs.instructions(n);
    }
    void
    enterKernel(unsigned id)
    {
        pairs.enterKernel(id);
        refs.enterKernel(id);
    }

    SimModel pairs;
    LoadOnlySimModel refs;
};

/**
 * The three kernels built on the dot product count exactly what they
 * count with one load() per reference, on a direct-mapped L1 (the
 * R8000 scaled 16x, where x and y often share a set) and a two-way
 * one (the R10000), at sizes below, at and around the dot kernel's
 * 16-element step and across several tiles.
 */
TEST(MatmulTraced, LoadPairsCountLikeSingleLoads)
{
    using lsched::cachesim::Hierarchy;
    const lsched::machine::MachineConfig machines[] = {
        lsched::machine::scaled(lsched::machine::powerIndigo2R8000(), 16),
        lsched::machine::indigo2ImpactR10000()};
    for (const auto &machine : machines) {
        for (const std::size_t n : {1u, 15u, 16u, 17u, 33u, 100u}) {
            Matrix a(n, n), b(n, n), c(n, n);
            randomize(a, 3);
            randomize(b, 4);
            for (int kernel = 0; kernel < 3; ++kernel) {
                SCOPED_TRACE(::testing::Message()
                             << machine.name << " n=" << n << " kernel "
                             << kernel);
                Hierarchy h_pairs(machine.caches);
                Hierarchy h_refs(machine.caches);
                PairedModels m{SimModel(h_pairs),
                               LoadOnlySimModel{SimModel(h_refs)}};
                if (kernel == 0) {
                    lsched::threads::SchedulerConfig cfg;
                    cfg.dims = 2;
                    cfg.cacheBytes = machine.l2Size();
                    cfg.blockBytes = machine.l2Size() / 2;
                    lsched::threads::LocalityScheduler sched(cfg);
                    matmulThreaded(a, b, c, sched, m);
                } else if (kernel == 1) {
                    matmulTransposed(a, b, c, m);
                } else {
                    matmulTiledTransposed(a, b, c, m,
                                          machine.caches.l1d.sizeBytes,
                                          machine.caches.l2.sizeBytes);
                }
                EXPECT_GT(h_refs.dataRefs(), n * n * n / 2);
                lsched::cachesim::countscheck::expectSameCounts(h_pairs,
                                                                h_refs);
            }
        }
    }
}

TEST(MatmulTraced, InterchangedReferenceCountsMatchModel)
{
    // Per paper Section 4.2: the untiled interchanged inner iteration
    // performs 2 loads + 1 store and 5 instructions per madd.
    const std::size_t n = 16;
    Matrix a(n, n), b(n, n), c(n, n);
    randomize(a, 1);
    randomize(b, 2);
    lsched::cachesim::Hierarchy h(
        lsched::machine::powerIndigo2R8000().caches);
    SimModel sm(h);
    matmulInterchanged(a, b, c, sm);
    const std::uint64_t madds = n * n * n;
    // zero: n^2 stores; B: n^2 loads; inner: 3 per madd.
    EXPECT_EQ(h.dataRefs(), 3 * madds + 2 * n * n);
    EXPECT_GT(h.ifetches(), 5 * madds);
    EXPECT_LT(h.ifetches(), 6 * madds + 10 * n * n);
}

TEST(MatmulTraced, ThreadedUsesExpectedBinCount)
{
    // Paper Section 4.2 (scaled): with block = L2/2 the threads must
    // spread over roughly (2 * matrix_bytes / L2)^2 bins.
    const std::size_t n = 64; // 32 KB per matrix
    Matrix a(n, n), b(n, n), c(n, n);
    randomize(a, 1);
    randomize(b, 2);
    const auto machine =
        lsched::machine::scaled(lsched::machine::powerIndigo2R8000(),
                                128); // L2 = 16 KB
    lsched::threads::SchedulerConfig cfg;
    cfg.dims = 2;
    cfg.cacheBytes = machine.l2Size();
    cfg.blockBytes = machine.l2Size() / 2; // 8 KB
    lsched::threads::LocalityScheduler sched(cfg);
    NativeModel m;
    matmulThreaded(a, b, c, sched, m);
    // 32 KB of columns per matrix / 8 KB blocks = 4 blocks per axis,
    // 16 bins (allow one extra per axis for allocator offsets).
    EXPECT_GE(sched.binCount(), 16u);
    EXPECT_LE(sched.binCount(), 25u);
}

} // namespace
