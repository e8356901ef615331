/**
 * @file
 * Dense column-major (Fortran-layout) matrix of doubles.
 *
 * The paper's first three applications are Fortran programs; matching
 * their column-major storage keeps our kernels' access patterns — and
 * hence their cache behaviour — faithful to the original experiments.
 * Storage is page-aligned so simulated addresses are reproducible,
 * and its 2 MB-aligned interior is advised onto transparent huge
 * pages (an advice only: addresses and contents do not depend on it).
 */

#ifndef LSCHED_WORKLOADS_MATRIX_HH
#define LSCHED_WORKLOADS_MATRIX_HH

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "support/panic.hh"

namespace lsched::workloads
{

/** Column-major rows x cols matrix of double. */
class Matrix
{
  public:
    /** Allocate a rows x cols matrix, zero-initialized. */
    Matrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols)
    {
        LSCHED_ASSERT(rows_ > 0 && cols_ > 0, "empty matrix");
        const std::size_t bytes = rows_ * cols_ * sizeof(double);
        data_ = static_cast<double *>(
            std::aligned_alloc(kAlign, roundUp(bytes, kAlign)));
        if (!data_)
            throw std::bad_alloc();
        adviseHugePages(data_, roundUp(bytes, kAlign));
        std::memset(data_, 0, bytes);
    }

    ~Matrix() { std::free(data_); }

    Matrix(const Matrix &o) : Matrix(o.rows_, o.cols_)
    {
        std::memcpy(data_, o.data_, rows_ * cols_ * sizeof(double));
    }

    Matrix &operator=(const Matrix &) = delete;
    Matrix(Matrix &&o) noexcept
        : rows_(o.rows_), cols_(o.cols_), data_(o.data_)
    {
        o.data_ = nullptr;
        o.rows_ = o.cols_ = 0;
    }
    Matrix &operator=(Matrix &&) = delete;

    /** Element (row i, column j), 0-based. */
    double &operator()(std::size_t i, std::size_t j)
    {
        return data_[j * rows_ + i];
    }
    const double &operator()(std::size_t i, std::size_t j) const
    {
        return data_[j * rows_ + i];
    }

    /** Pointer to column @p j (contiguous, rows() elements). */
    double *col(std::size_t j) { return data_ + j * rows_; }
    const double *col(std::size_t j) const { return data_ + j * rows_; }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /** Raw storage (rows*cols doubles, column-major). */
    double *data() { return data_; }
    const double *data() const { return data_; }

    /** Set every element to @p v. */
    void
    fill(double v)
    {
        const std::size_t n = rows_ * cols_;
        for (std::size_t i = 0; i < n; ++i)
            data_[i] = v;
    }

    /** Max absolute element-wise difference against @p o. */
    double
    maxAbsDiff(const Matrix &o) const
    {
        LSCHED_ASSERT(rows_ == o.rows_ && cols_ == o.cols_,
                      "shape mismatch");
        double worst = 0;
        const std::size_t n = rows_ * cols_;
        for (std::size_t i = 0; i < n; ++i) {
            const double d = data_[i] > o.data_[i]
                                 ? data_[i] - o.data_[i]
                                 : o.data_[i] - data_[i];
            if (d > worst)
                worst = d;
        }
        return worst;
    }

  private:
    static constexpr std::size_t kAlign = 4096;
    static constexpr std::size_t kHugePage = std::size_t{2} << 20;

    /**
     * Ask for transparent huge pages over the whole 2 MB pages inside
     * [p, p + bytes), before the first touch faults them in: the
     * interior of an 8 MB matrix then takes a few faults and TLB
     * entries instead of ~2000. Failure (no THP, THP set to never)
     * only leaves the 4 KB pages.
     */
    static void
    adviseHugePages([[maybe_unused]] void *p,
                    [[maybe_unused]] std::size_t bytes)
    {
#if defined(MADV_HUGEPAGE)
        const auto begin = reinterpret_cast<std::uintptr_t>(p);
        const std::uintptr_t first = roundUp(begin, kHugePage);
        const std::uintptr_t last = (begin + bytes) / kHugePage * kHugePage;
        if (last > first) {
            (void)::madvise(reinterpret_cast<void *>(first), last - first,
                            MADV_HUGEPAGE);
        }
#endif
    }

    static std::size_t
    roundUp(std::size_t v, std::size_t a)
    {
        return (v + a - 1) / a * a;
    }

    std::size_t rows_;
    std::size_t cols_;
    double *data_;
};

} // namespace lsched::workloads

#endif // LSCHED_WORKLOADS_MATRIX_HH
