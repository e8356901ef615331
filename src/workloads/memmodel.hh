/**
 * @file
 * Memory-model policies for instrumented kernels.
 *
 * Every workload kernel is a template over a model M with the
 * interface below. NativeModel compiles to nothing, so the timed
 * binaries run uninstrumented machine code; SimModel plays the role
 * of Pixie + DineroIII, forwarding each load/store to the simulated
 * hierarchy and accounting instructions through the synthetic
 * instruction-fetch model (see trace/synth_ifetch.hh).
 *
 * A model may also take a run of load pairs in one call (loadPairs());
 * kernels reach it through the free loadPairs() below, which expands
 * it into single loads for a model without one.
 */

#ifndef LSCHED_WORKLOADS_MEMMODEL_HH
#define LSCHED_WORKLOADS_MEMMODEL_HH

#include <cstddef>
#include <cstdint>

#include "cachesim/hierarchy.hh"
#include "trace/synth_ifetch.hh"

namespace lsched::workloads
{

/**
 * Instructions charged per forked-and-run thread in traced kernels,
 * calibrated to the paper's Table 1 total overhead (1.60 us at
 * 75 MHz ~ 120 cycles).
 */
constexpr std::uint64_t kThreadOverheadInstr = 120;

/** Uninstrumented policy: all hooks vanish at -O1 and above. */
struct NativeModel
{
    static constexpr bool traced = false;

    void load(const void *, std::uint32_t) {}
    void loadPairs(const void *, const void *, std::uint32_t, std::size_t) {}
    void store(const void *, std::uint32_t) {}
    /** Account @p n executed instructions. */
    void instructions(std::uint64_t) {}
    /** Mark entry into the kernel whose synthetic text is @p id. */
    void enterKernel(unsigned) {}
};

/** Pixie-like policy: every reference reaches the cache simulator. */
class SimModel
{
  public:
    static constexpr bool traced = true;

    /** Size of each kernel's synthetic text region. */
    static constexpr std::uint64_t kKernelBytes = 512;
    /** Base virtual address of the synthetic text segment. */
    static constexpr std::uint64_t kTextBase = 0x00400000;

    explicit SimModel(cachesim::Hierarchy &hierarchy,
                      trace::SynthIFetch::Mode mode =
                          trace::SynthIFetch::Mode::Analytic)
        : hierarchy_(&hierarchy), mode_(mode)
    {
    }

    void
    load(const void *p, std::uint32_t bytes)
    {
        hierarchy_->load(reinterpret_cast<std::uintptr_t>(p), bytes);
    }

    void
    loadPairs(const void *x, const void *y, std::uint32_t bytes,
              std::size_t count)
    {
        hierarchy_->loadPairs(reinterpret_cast<std::uintptr_t>(x),
                              reinterpret_cast<std::uintptr_t>(y), bytes,
                              count);
    }

    void
    store(const void *p, std::uint32_t bytes)
    {
        hierarchy_->store(reinterpret_cast<std::uintptr_t>(p), bytes);
    }

    void
    instructions(std::uint64_t n)
    {
        ifetch_.execute(n);
    }

    void
    enterKernel(unsigned id)
    {
        // Each kernel id owns a disjoint synthetic text region; the
        // first entry after a switch touches its code lines so
        // compulsory I-misses register.
        if (id != kernelId_ || !entered_) {
            kernelId_ = id;
            entered_ = true;
            ifetch_ = trace::SynthIFetch(
                hierarchy_, kTextBase + id * kKernelBytes, kKernelBytes,
                mode_);
            ifetch_.enter();
        }
    }

    /** The hierarchy being driven. */
    cachesim::Hierarchy &hierarchy() { return *hierarchy_; }

  private:
    cachesim::Hierarchy *hierarchy_;
    trace::SynthIFetch::Mode mode_;
    trace::SynthIFetch ifetch_{nullptr, 0, 1};
    unsigned kernelId_ = ~0u;
    bool entered_ = false;
};

/**
 * Load @p bytes at x + k * bytes, then at y + k * bytes, for k = 0, 1,
 * ..., @p count - 1: through @p model's own loadPairs() when it has
 * one, otherwise as that many pairs of model.load() calls.
 */
template <class M>
[[gnu::always_inline]] inline void
loadPairs(M &model, const void *x, const void *y, std::uint32_t bytes,
          std::size_t count)
{
    if constexpr (requires { model.loadPairs(x, y, bytes, count); }) {
        model.loadPairs(x, y, bytes, count);
    } else {
        const auto *const xb = static_cast<const char *>(x);
        const auto *const yb = static_cast<const char *>(y);
        for (std::size_t k = 0; k < count; ++k) {
            model.load(xb + k * bytes, bytes);
            model.load(yb + k * bytes, bytes);
        }
    }
}

} // namespace lsched::workloads

#endif // LSCHED_WORKLOADS_MEMMODEL_HH
