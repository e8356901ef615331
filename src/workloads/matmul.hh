/**
 * @file
 * Matrix multiplication C = A * B, the paper's Section 4.2 workload,
 * in all five evaluated variants:
 *
 *  - Interchanged:      jki loop order with B[k,j] registered — the
 *                       best untiled order for column-major storage;
 *  - Transposed:        A transposed before/after so the dot-product
 *                       loop streams two contiguous vectors;
 *  - TiledInterchanged: cache-tiled jki (stands in for KAP tiling);
 *  - TiledTransposed:   register- plus cache-tiled transposed form
 *                       (3x3 register block, 9 madds / 6 loads per
 *                       step, exactly the inner loop the paper reports
 *                       for the compiler-tiled code);
 *  - Threaded:          one locality-scheduled thread per dot product
 *                       with column base addresses as hints — the
 *                       paper's Section 2.1/2.4 running example.
 *
 * Instruction accounting uses the paper's measured per-madd counts
 * (Section 4.2): 5 for untiled interchanged, 2 for tiled, 3.5 for the
 * transposed/threaded inner loop.
 */

#ifndef LSCHED_WORKLOADS_MATMUL_HH
#define LSCHED_WORKLOADS_MATMUL_HH

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "support/panic.hh"
#include "support/prng.hh"
#include "threads/hints.hh"
#include "threads/scheduler.hh"
#include "workloads/matrix.hh"
#include "workloads/memmodel.hh"

namespace lsched::workloads
{

/** Synthetic-text ids for the matmul kernels. */
enum MatmulKernelId : unsigned
{
    kMatmulZero = 0,
    kMatmulInterchanged,
    kMatmulTransposeA,
    kMatmulTransposed,
    kMatmulTiledInterchanged,
    kMatmulTiledTransposed,
    kMatmulThreadedDot,
};

/** Fill @p m with deterministic values in [-1, 1). */
inline void
randomize(Matrix &m, std::uint64_t seed)
{
    Prng prng(seed);
    for (std::size_t j = 0; j < m.cols(); ++j)
        for (std::size_t i = 0; i < m.rows(); ++i)
            m(i, j) = prng.nextDouble(-1.0, 1.0);
}

/** Zero @p c, charging the stores. */
template <class M>
void
zeroMatrix(Matrix &c, M &model)
{
    model.enterKernel(kMatmulZero);
    for (std::size_t j = 0; j < c.cols(); ++j) {
        for (std::size_t i = 0; i < c.rows(); ++i) {
            c(i, j) = 0.0;
            model.store(&c(i, j), 8);
        }
        model.instructions(2 * c.rows());
    }
}

/** Side of transpose()'s square tiles. */
constexpr std::size_t kTransposeTile = 32;

/**
 * at(j, i) = a(i, j) for i in [i0, i1), j in [j0, j1): one tile of
 * the native transpose, rows of @p a outer, so each column of @p at
 * is written contiguously.
 */
[[gnu::always_inline]] inline void
transposeTileNative(const Matrix &a, Matrix &at, std::size_t i0,
                    std::size_t i1, std::size_t j0, std::size_t j1)
{
    for (std::size_t i = i0; i < i1; ++i)
        for (std::size_t j = j0; j < j1; ++j)
            at(j, i) = a(i, j);
}

/**
 * Transpose @p a into @p at, charging loads and stores. Blocked
 * (32 x 32 tiles) so the strided side of the transpose reuses every
 * touched cache line instead of thrashing power-of-two-strided sets.
 *
 * Within a tile, a modelled transpose reads a's columns (j outer, i
 * inner): that is the reference stream every simulated count was
 * taken with. NativeModel records nothing, so the native build swaps
 * the two loops instead and writes each column of @p at contiguously,
 * which is about 2.5x faster at n = 1024; the copied values are the
 * same.
 */
template <class M>
void
transpose(const Matrix &a, Matrix &at, M &model)
{
    model.enterKernel(kMatmulTransposeA);
    const std::size_t n = a.rows();
    constexpr std::size_t kTile = kTransposeTile;
    for (std::size_t jj = 0; jj < a.cols(); jj += kTile) {
        const std::size_t jend = std::min(jj + kTile, a.cols());
        for (std::size_t ii = 0; ii < n; ii += kTile) {
            const std::size_t iend = std::min(ii + kTile, n);
            if constexpr (std::is_same_v<M, NativeModel>) {
                transposeTileNative(a, at, ii, iend, jj, jend);
            } else {
                for (std::size_t j = jj; j < jend; ++j) {
                    for (std::size_t i = ii; i < iend; ++i) {
                        model.load(&a(i, j), 8);
                        at(j, i) = a(i, j);
                        model.store(&at(j, i), 8);
                    }
                }
            }
            model.instructions(4 * (jend - jj) * (iend - ii) + 8);
        }
    }
}

/**
 * Body of dotProduct(): x[0..n) . y[0..n) through @p model.
 *
 * A single accumulator makes each madd wait for the previous add, so
 * the loop runs at one FP-add latency per element. Sixteen independent
 * partial sums (sum u takes every k with k % 16 == u) break that chain,
 * and GCC turns them into packed mulpd/addpd (two doubles per
 * instruction at the default x86-64 ISA, four under AVX2, eight under
 * AVX-512) at -O2 without any reassociation licence. The partial sums
 * are combined in a fixed pairwise tree and the n % 16 tail is added
 * in order after it, so the result depends only on x, y and n — never
 * on the caller, the model or the compiler's vectorization choices.
 *
 * Each element issues model.load(&x[k]) then model.load(&y[k]) for k
 * ascending, exactly as a one-accumulator loop would, so traced runs
 * see the same reference stream; each 16-element step passes its 16
 * pairs to the model in one loadPairs() call, which a SimModel
 * simulates a line pair at a time. Instruction charges stay with the
 * caller. Always inlined: into the caller for a traced model, into the
 * three native instantiations below for NativeModel.
 */
template <class M>
[[gnu::always_inline]] inline double
dotProductBody(const double *x, const double *y, std::size_t n, M &model)
{
    double s0 = 0, s1 = 0, s2 = 0, s3 = 0, s4 = 0, s5 = 0, s6 = 0, s7 = 0;
    double s8 = 0, s9 = 0, s10 = 0, s11 = 0, s12 = 0, s13 = 0, s14 = 0,
           s15 = 0;
    std::size_t k = 0;
    for (; k + 16 <= n; k += 16) {
        loadPairs(model, &x[k], &y[k], 8, 16);
        s0 += x[k] * y[k];
        s1 += x[k + 1] * y[k + 1];
        s2 += x[k + 2] * y[k + 2];
        s3 += x[k + 3] * y[k + 3];
        s4 += x[k + 4] * y[k + 4];
        s5 += x[k + 5] * y[k + 5];
        s6 += x[k + 6] * y[k + 6];
        s7 += x[k + 7] * y[k + 7];
        s8 += x[k + 8] * y[k + 8];
        s9 += x[k + 9] * y[k + 9];
        s10 += x[k + 10] * y[k + 10];
        s11 += x[k + 11] * y[k + 11];
        s12 += x[k + 12] * y[k + 12];
        s13 += x[k + 13] * y[k + 13];
        s14 += x[k + 14] * y[k + 14];
        s15 += x[k + 15] * y[k + 15];
    }
    double sum = (((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))) +
                 (((s8 + s9) + (s10 + s11)) + ((s12 + s13) + (s14 + s15)));
    for (; k < n; ++k) {
        model.load(&x[k], 8);
        model.load(&y[k], 8);
        sum += x[k] * y[k];
    }
    return sum;
}

namespace detail
{

/**
 * The native dot product at the build's default ISA. Out of line and
 * aligned to a cache line, so the loop sits at the same offset within
 * a line whatever code precedes it: the native matmul's time moves
 * with that offset (DESIGN.md §6).
 */
[[gnu::noinline, gnu::aligned(64)]] inline double
dotProductBase(const double *x, const double *y, std::size_t n)
{
    NativeModel model;
    return dotProductBody(x, y, n, model);
}

#if defined(__x86_64__)
/**
 * The same source built for AVX2: four doubles per vector instead of
 * two. AVX2 only, never "fma": that enables FMA, and GCC contracts the
 * mul+add pairs into it (-ffp-contract=fast is C++'s default), which
 * rounds once instead of twice and breaks bit identity with
 * dotProductBase().
 */
[[gnu::target("avx2"), gnu::noinline, gnu::aligned(64)]] inline double
dotProductAvx2(const double *x, const double *y, std::size_t n)
{
    NativeModel model;
    return dotProductBody(x, y, n, model);
}

/**
 * The same source at AVX-512 width: eight doubles per vector.
 * "avx512f" implies FMA, so this function alone turns contraction off
 * (fp-contract=off) and every mul+add still rounds twice, bit
 * identical to dotProductBase(). prefer-vector-width=512 is needed
 * too: without it GCC 12 keeps the loop on 256-bit registers.
 */
[[gnu::target("avx512f,prefer-vector-width=512"),
  gnu::optimize("fp-contract=off"), gnu::noinline,
  gnu::aligned(64)]] inline double
dotProductAvx512(const double *x, const double *y, std::size_t n)
{
    NativeModel model;
    return dotProductBody(x, y, n, model);
}

/** Whether this CPU (and OS) runs AVX2. Safe before libgcc's own CPU
 *  probe. */
inline bool
cpuHasAvx2()
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
}

/** Whether this CPU (and OS) runs AVX-512F. */
inline bool
cpuHasAvx512f()
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f");
}

/** Native dot products run dotProductAvx512(), else dotProductAvx2():
 *  decided once, at start-up. */
inline const bool kDotProductAvx512 = cpuHasAvx512f();
inline const bool kDotProductAvx2 = cpuHasAvx2();
#else
inline constexpr bool kDotProductAvx512 = false;
inline constexpr bool kDotProductAvx2 = false;
#endif

} // namespace detail

/**
 * Dot product of x[0..n) and y[0..n): the one inner loop shared by
 * the Transposed kernel, the TiledTransposed edge blocks and every
 * Threaded thread body.
 *
 * For NativeModel it calls one of three out-of-line builds of
 * dotProductBody(): AVX-512 when the CPU has it, else AVX2 when it has
 * that, else the default ISA; all three return the same bits. Every
 * other model inlines the body, so its reference stream and charges
 * are the body's.
 */
template <class M>
[[gnu::always_inline]] inline double
dotProduct(const double *x, const double *y, std::size_t n, M &model)
{
    if constexpr (std::is_same_v<M, NativeModel>) {
#if defined(__x86_64__)
        if (detail::kDotProductAvx512)
            return detail::dotProductAvx512(x, y, n);
        if (detail::kDotProductAvx2)
            return detail::dotProductAvx2(x, y, n);
#endif
        return detail::dotProductBase(x, y, n);
    } else {
        return dotProductBody(x, y, n, model);
    }
}

/**
 * Untiled interchanged (jki) multiply: the paper's best plain
 * sequential method. B[k,j] is held in a register across the inner
 * loop, so each madd costs two loads and one store.
 */
template <class M>
void
matmulInterchanged(const Matrix &a, const Matrix &b, Matrix &c, M &model)
{
    const std::size_t n = a.rows();
    zeroMatrix(c, model);
    model.enterKernel(kMatmulInterchanged);
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t k = 0; k < n; ++k) {
            model.load(&b(k, j), 8);
            const double bkj = b(k, j);
            const double *const acol = a.col(k);
            double *const ccol = c.col(j);
            for (std::size_t i = 0; i < n; ++i) {
                model.load(&acol[i], 8);
                model.load(&ccol[i], 8);
                ccol[i] += acol[i] * bkj;
                model.store(&ccol[i], 8);
            }
            model.instructions(5 * n + 4);
        }
    }
}

/**
 * Transposed multiply: At = A^T is formed first (and A is notionally
 * restored after; both transposes are charged, as in the paper's
 * timings), then each C[i,j] is a dot product of two contiguous
 * columns with the sum in a register — two loads per madd.
 */
template <class M>
void
matmulTransposed(const Matrix &a, const Matrix &b, Matrix &c, M &model)
{
    const std::size_t n = a.rows();
    Matrix at(n, n);
    transpose(a, at, model);
    model.enterKernel(kMatmulTransposed);
    for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t i = 0; i < n; ++i) {
            c(i, j) = dotProduct(at.col(i), b.col(j), n, model);
            model.store(&c(i, j), 8);
            model.instructions(7 * n / 2 + 6);
        }
    }
    // Restore transpose (the second transpose the paper charges).
    Matrix dummy(n, n);
    transpose(at, dummy, model);
}

/**
 * Cache-tiled jki multiply (the KAP stand-in for the interchanged
 * form): k and j are blocked so the active slice of A stays resident,
 * and the inner loop is unrolled over three k values so each C element
 * is loaded and stored once per three madds.
 */
template <class M>
void
matmulTiledInterchanged(const Matrix &a, const Matrix &b, Matrix &c,
                        M &model, std::size_t l1_bytes,
                        std::size_t l2_bytes)
{
    const std::size_t n = a.rows();
    zeroMatrix(c, model);
    model.enterKernel(kMatmulTiledInterchanged);

    // Block k so three A columns plus one C column sit in L1, and
    // block j so the A panel (n x bk) stays within half of L2.
    std::size_t bk = l2_bytes / (16 * n * sizeof(double) / 8);
    bk = std::max<std::size_t>(3, std::min(bk, n));
    bk -= bk % 3 ? bk % 3 : 0;
    if (bk < 3)
        bk = 3;
    std::size_t bj = l1_bytes / (2 * sizeof(double)) / bk;
    bj = std::max<std::size_t>(1, std::min(bj, n));

    for (std::size_t kk = 0; kk < n; kk += bk) {
        const std::size_t kend = std::min(kk + bk, n);
        for (std::size_t jj = 0; jj < n; jj += bj) {
            const std::size_t jend = std::min(jj + bj, n);
            for (std::size_t j = jj; j < jend; ++j) {
                std::size_t k = kk;
                for (; k + 3 <= kend; k += 3) {
                    model.load(&b(k, j), 8);
                    model.load(&b(k + 1, j), 8);
                    model.load(&b(k + 2, j), 8);
                    const double b0 = b(k, j);
                    const double b1 = b(k + 1, j);
                    const double b2 = b(k + 2, j);
                    const double *const a0 = a.col(k);
                    const double *const a1 = a.col(k + 1);
                    const double *const a2 = a.col(k + 2);
                    double *const ccol = c.col(j);
                    for (std::size_t i = 0; i < n; ++i) {
                        model.load(&a0[i], 8);
                        model.load(&a1[i], 8);
                        model.load(&a2[i], 8);
                        model.load(&ccol[i], 8);
                        ccol[i] += a0[i] * b0 + a1[i] * b1 + a2[i] * b2;
                        model.store(&ccol[i], 8);
                    }
                    model.instructions(6 * n + 12);
                }
                for (; k < kend; ++k) {
                    model.load(&b(k, j), 8);
                    const double bkj = b(k, j);
                    const double *const acol = a.col(k);
                    double *const ccol = c.col(j);
                    for (std::size_t i = 0; i < n; ++i) {
                        model.load(&acol[i], 8);
                        model.load(&ccol[i], 8);
                        ccol[i] += acol[i] * bkj;
                        model.store(&ccol[i], 8);
                    }
                    model.instructions(5 * n + 4);
                }
            }
        }
    }
}

/**
 * Register- and cache-tiled transposed multiply. The inner loop is
 * the paper's reported compiler output: a 3x3 register block of C,
 * nine madds fed by six loads per k step (2 instructions per madd).
 * The k-panel of At is packed into a contiguous buffer first — the
 * copy optimization Lam et al. recommend to defeat power-of-two
 * self-interference, without which the panel's column chunks land in
 * a handful of cache sets and thrash.
 */
template <class M>
void
matmulTiledTransposed(const Matrix &a, const Matrix &b, Matrix &c,
                      M &model, std::size_t l1_bytes,
                      std::size_t l2_bytes)
{
    const std::size_t n = a.rows();
    Matrix at(n, n);
    transpose(a, at, model);
    model.enterKernel(kMatmulTiledTransposed);

    // Six active chunks of length bk must fit in half of L1; the
    // packed At panel (bk x n) must fit in half of L2.
    std::size_t bk = l1_bytes / (12 * sizeof(double));
    bk = std::min(bk, l2_bytes / (2 * n * sizeof(double)));
    bk = std::max<std::size_t>(8, std::min(bk, n));

    // Packed panel: chunk i (rows kk..kend of At column i) lives at
    // packed[i * kb], contiguous and conflict-free.
    std::vector<double> packed(bk * n);

    auto dot_tail = [&](std::size_t i, std::size_t j, std::size_t kk,
                        std::size_t kb) {
        const double sum =
            dotProduct(&packed[i * kb], b.col(j) + kk, kb, model);
        model.load(&c(i, j), 8);
        c(i, j) += sum;
        model.store(&c(i, j), 8);
        model.instructions(7 * kb / 2 + 6);
    };

    for (std::size_t kk = 0; kk < n; kk += bk) {
        const std::size_t kend = std::min(kk + bk, n);
        const std::size_t kb = kend - kk;
        for (std::size_t i = 0; i < n; ++i) {
            const double *const src = at.col(i) + kk;
            double *const dst = &packed[i * kb];
            for (std::size_t k = 0; k < kb; ++k) {
                model.load(&src[k], 8);
                dst[k] = src[k];
                model.store(&dst[k], 8);
            }
            model.instructions(4 * kb + 4);
        }
        for (std::size_t jj = 0; jj < n; jj += 3) {
            const std::size_t jn = std::min<std::size_t>(3, n - jj);
            for (std::size_t ii = 0; ii < n; ii += 3) {
                const std::size_t in = std::min<std::size_t>(3, n - ii);
                if (in == 3 && jn == 3) {
                    const double *const a0 = &packed[ii * kb];
                    const double *const a1 = &packed[(ii + 1) * kb];
                    const double *const a2 = &packed[(ii + 2) * kb];
                    const double *const b0 = b.col(jj) + kk;
                    const double *const b1 = b.col(jj + 1) + kk;
                    const double *const b2 = b.col(jj + 2) + kk;
                    double c00 = 0, c01 = 0, c02 = 0;
                    double c10 = 0, c11 = 0, c12 = 0;
                    double c20 = 0, c21 = 0, c22 = 0;
                    for (std::size_t k = 0; k < kb; ++k) {
                        model.load(&a0[k], 8);
                        model.load(&a1[k], 8);
                        model.load(&a2[k], 8);
                        model.load(&b0[k], 8);
                        model.load(&b1[k], 8);
                        model.load(&b2[k], 8);
                        const double av0 = a0[k], av1 = a1[k],
                                     av2 = a2[k];
                        const double bv0 = b0[k], bv1 = b1[k],
                                     bv2 = b2[k];
                        c00 += av0 * bv0;
                        c01 += av0 * bv1;
                        c02 += av0 * bv2;
                        c10 += av1 * bv0;
                        c11 += av1 * bv1;
                        c12 += av1 * bv2;
                        c20 += av2 * bv0;
                        c21 += av2 * bv1;
                        c22 += av2 * bv2;
                    }
                    model.instructions(18 * kb + 20);
                    double *const cc0 = c.col(jj);
                    double *const cc1 = c.col(jj + 1);
                    double *const cc2 = c.col(jj + 2);
                    auto flush = [&](double *col, std::size_t i,
                                     double v) {
                        model.load(&col[i], 8);
                        col[i] += v;
                        model.store(&col[i], 8);
                    };
                    flush(cc0, ii, c00);
                    flush(cc0, ii + 1, c10);
                    flush(cc0, ii + 2, c20);
                    flush(cc1, ii, c01);
                    flush(cc1, ii + 1, c11);
                    flush(cc1, ii + 2, c21);
                    flush(cc2, ii, c02);
                    flush(cc2, ii + 1, c12);
                    flush(cc2, ii + 2, c22);
                } else {
                    for (std::size_t j = jj; j < jj + jn; ++j)
                        for (std::size_t i = ii; i < ii + in; ++i)
                            dot_tail(i, j, kk, kb);
                }
            }
        }
    }
    Matrix dummy(n, n);
    transpose(at, dummy, model);
}

/** Context shared by every dot-product thread of one threaded run. */
template <class M>
struct DotProductCtx
{
    const Matrix *at;
    const Matrix *b;
    Matrix *c;
    M *model;
};

/** Thread body: C[i,j] = dot(At[:,i], B[:,j]); arg2 packs (i, j). */
template <class M>
void
dotProductThread(void *ctx_p, void *ij_p)
{
    auto *ctx = static_cast<DotProductCtx<M> *>(ctx_p);
    const auto packed = reinterpret_cast<std::uintptr_t>(ij_p);
    const std::size_t i = packed >> 32;
    const std::size_t j = packed & 0xffffffffu;
    M &model = *ctx->model;
    const std::size_t n = ctx->at->rows();
    (*ctx->c)(i, j) = dotProduct(ctx->at->col(i), ctx->b->col(j), n, model);
    model.store(&(*ctx->c)(i, j), 8);
    model.instructions(7 * n / 2 + 6 + kThreadOverheadInstr);
}

/** Stripes of kTransposeTile rows in an @p n-row matrix: the k range
 *  of the native matmulThreaded()'s forkParallel() calls. */
constexpr std::size_t
transposeStripes(std::size_t n)
{
    return (n + kTransposeTile - 1) / kTransposeTile;
}

/**
 * Rows [32k, 32k + 32) of @p a into the same columns of @p at, by the
 * native transpose()'s tile loop restricted to that row stripe.
 */
inline void
transposeStripeNative(const Matrix &a, Matrix &at, std::size_t k)
{
    const std::size_t i0 = k * kTransposeTile;
    const std::size_t i1 = std::min(i0 + kTransposeTile, a.rows());
    for (std::size_t jj = 0; jj < a.cols(); jj += kTransposeTile)
        transposeTileNative(a, at, i0, i1, jj,
                            std::min(jj + kTransposeTile, a.cols()));
}

/**
 * Stripe @p k of the native matmulThreaded()'s fork phase: rows
 * [32k, 32k + 32) of @p a into the same columns of @p at (which
 * @p ctx reads as At), then the dot products of those rows of C forked
 * through @p shard in the serial loop's order (i-major).
 */
inline void
forkDotProductStripe(const Matrix &a, Matrix &at,
                     DotProductCtx<NativeModel> &ctx, std::size_t k,
                     threads::ForkShard &shard)
{
    transposeStripeNative(a, at, k);
    const Matrix &b = *ctx.b;
    const std::size_t n = a.rows();
    const std::size_t i1 = std::min((k + 1) * kTransposeTile, n);
    for (std::size_t i = k * kTransposeTile; i < i1; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const auto packed = reinterpret_cast<void *>((i << 32) | j);
            shard.fork(&dotProductThread<NativeModel>, &ctx, packed,
                       threads::hintOf(at.col(i)),
                       threads::hintOf(b.col(j)));
        }
    }
}

/**
 * matmulThreaded() natively on @p workers > 1 pool workers: every
 * phase but the two allocations runs on the pool. One forkParallel()
 * call runs forkDotProductStripe() over A's row stripes, so the
 * schedule is the serial fork loop's; runParallel() runs it; a second
 * forkParallel() call, forking nothing, runs the restore transpose
 * stripe by stripe.
 */
inline void
matmulThreadedPooled(const Matrix &a, const Matrix &b, Matrix &c,
                     threads::LocalityScheduler &scheduler,
                     NativeModel &model, unsigned workers)
{
    const std::size_t n = a.rows();
    const std::size_t stripes = transposeStripes(n);
    Matrix at(n, n);
    DotProductCtx<NativeModel> ctx{&at, &b, &c, &model};
    scheduler.forkParallel(workers, stripes,
                           [&](std::size_t k, threads::ForkShard &shard) {
                               forkDotProductStripe(a, at, ctx, k, shard);
                           });
    scheduler.runParallel(workers, false);

    Matrix dummy(n, n);
    scheduler.forkParallel(workers, stripes,
                           [&](std::size_t k, threads::ForkShard &) {
                               transposeStripeNative(at, dummy, k);
                           });
}

/**
 * The paper's threaded multiply (Sections 2.1, 4.2): one thread per
 * dot product, forked with the base addresses of the two columns it
 * reads as hints, then run in bin order by @p scheduler. Includes
 * both transpose passes, as the paper's timings do.
 *
 * Natively, @p workers > 1 spreads the transposes, the forks and the
 * bin tour over that many OS threads (Section 7's SMP extension;
 * matmulThreadedPooled()). Otherwise every phase runs on the caller.
 * A modelled run records one reference stream, which a parallel phase
 * would interleave, so it must keep workers <= 1.
 *
 * The one-worker native run keeps the whole transpose() before the
 * fork loop: matmulThreadedPooled() with one worker builds the same
 * schedule stripe by stripe, but measured slower in both transpose
 * phases (EXPERIMENTS.md "The fork phase on the pool").
 */
template <class M>
void
matmulThreaded(const Matrix &a, const Matrix &b, Matrix &c,
               threads::LocalityScheduler &scheduler, M &model,
               unsigned workers = 1)
{
    if constexpr (std::is_same_v<M, NativeModel>) {
        if (workers > 1) {
            matmulThreadedPooled(a, b, c, scheduler, model, workers);
            return;
        }
    } else {
        LSCHED_ASSERT(workers <= 1, "a modelled matmulThreaded() runs on "
                                    "one worker, got ", workers);
    }
    const std::size_t n = a.rows();
    Matrix at(n, n);
    transpose(a, at, model);
    model.enterKernel(kMatmulThreadedDot);

    DotProductCtx<M> ctx{&at, &b, &c, &model};
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const auto packed =
                reinterpret_cast<void *>((i << 32) | j);
            scheduler.fork(&dotProductThread<M>, &ctx, packed,
                           threads::hintOf(at.col(i)),
                           threads::hintOf(b.col(j)));
        }
    }
    scheduler.run(false);

    Matrix dummy(n, n);
    transpose(at, dummy, model);
}

} // namespace lsched::workloads

#endif // LSCHED_WORKLOADS_MATMUL_HH
