/**
 * @file
 * Adaptive self-tuning placement: close the loop from the continuous
 * profiler's per-bin miss attribution (obs/profile.hh) back to the
 * placement parameters the paper hand-tunes — block dimensions,
 * super-bin fan, and bin count.
 *
 * Two pieces:
 *
 *  - AdaptiveTuner — the pure state machine. It consumes per-epoch
 *    deltas of the profiler's totals (AdaptSample) and decides whether
 *    the placement parameters should change. Two operating modes:
 *
 *     PMU mode (counter-valid samples present): classify each epoch by
 *     LLC miss rate. Above adaptHighMiss for adaptEpochs consecutive
 *     epochs means the blocks overflow the cache (capacity-dominated):
 *     halve the block (double the bin count under a round-robin base)
 *     and mark the overflowing size *bad*. At or below adaptTargetMiss
 *     (the compulsory floor) for adaptEpochs epochs, grow the block
 *     back toward adaptMaxBlock — but never into a size ever marked
 *     bad. That bad-set is the hysteresis: once a size is known to
 *     overflow, the tuner can never oscillate back into it.
 *
 *     Dwell-only mode (no PMU — containers, perf_event_paranoid): no
 *     miss rates, so the tuner hill-climbs on dwell-per-thread. After
 *     adaptEpochs stable epochs it *probes* a shrink, then judges the
 *     probe against the pre-probe dwell: kept when it improved by
 *     adaptDwellImprove, reverted (and the probed size marked bad)
 *     otherwise. Guarantees the tuner never stalls at mis-tuned
 *     initial parameters just because the PMU is unavailable.
 *
 *    After any parameter change the tuner holds for adaptHold epochs
 *    so a half-old epoch cannot trigger a reaction to its own change.
 *
 *  - AdaptivePlacement — the PlacementPolicy wrapper. It owns an inner
 *    base policy (blockhash / roundrobin / hierarchical) built from
 *    the tuner's current parameters. The hot path is lock-free:
 *    place()/peek() load the current policy through one atomic
 *    pointer, so quiescent adaptation costs a single acquire load on
 *    top of the base policy. maybeRetune() — called by the scheduler
 *    only at safe boundaries: end of run()/runParallel(), streamBegin/
 *    streamEnd, and the stream monitor's tick — polls the profiler,
 *    feeds the delta to the tuner, and on a decision builds a new
 *    inner policy and publishes it with a release store; retired
 *    generations stay alive (their count is bounded by the bad-set)
 *    so a fork racing the swap finishes on the old geometry. Already-
 *    placed bins keep their coordinates (bins are keyed by coords, so
 *    exactly-once is untouched); only threads forked after the swap
 *    land in the new geometry.
 *
 * With instrumentation compiled out (LSCHED_TRACE_ENABLED=0) the
 * profiler records nothing, so the tuner sees no deltas and holds the
 * initial parameters — adaptive placement degrades to its base policy.
 * This translation unit is the one placement-layer file allowed to
 * reference profiler symbols (scripts/check-all.sh's notrace nm guard
 * covers the hot TUs, not this cold retune surface).
 */

#ifndef LSCHED_THREADS_ADAPT_HH
#define LSCHED_THREADS_ADAPT_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <vector>

#include "threads/placement.hh"

namespace lsched::threads
{

struct SchedulerConfig;

/** One epoch's profiler deltas, as the tuner consumes them. */
struct AdaptSample
{
    /** recordSample() calls (any kind). */
    std::uint64_t samples = 0;
    /** ... of which carried valid hardware counters. */
    std::uint64_t pmuSamples = 0;
    std::uint64_t llcRefs = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t dwellNs = 0;
    std::uint64_t threads = 0;
};

/** Tuner thresholds — the adapt.* SchedulerConfig fields. */
struct AdaptTunerConfig
{
    double targetMiss = 0.05;
    double highMiss = 0.10;
    double converge = 1.5;
    unsigned epochs = 2;
    unsigned hold = 4;
    std::uint64_t minBlock = 4096;
    /** Resolved by the caller (0 is not legal here). */
    std::uint64_t maxBlock = 2 * 1024 * 1024;
    std::uint64_t minRefs = 1024;
    double dwellImprove = 0.05;
};

/** The parameter set the tuner drives. */
struct AdaptParams
{
    std::uint64_t blockBytes = 0;
    /** Hierarchical base only; 0 otherwise. */
    std::uint64_t superBinFan = 0;
    /** Round-robin base only; 0 otherwise. */
    std::uint64_t roundRobinBins = 0;
};

/**
 * The regime-classification / retune state machine. Deterministic and
 * profiler-free, so tests can drive it with synthetic samples. Not
 * thread-safe — AdaptivePlacement serializes access on its mutex.
 */
class AdaptiveTuner
{
  public:
    AdaptiveTuner(const AdaptTunerConfig &config, PlacementKind base,
                  const AdaptParams &initial);

    /**
     * Consume one epoch's deltas. Returns true when params() changed
     * (the caller must rebuild its placement). A sample with
     * pmuSamples > 0 takes the PMU path; one with only dwell data the
     * dwell path; an all-zero delta is ignored entirely.
     */
    bool observe(const AdaptSample &delta);

    const AdaptParams &params() const { return params_; }
    AdaptRegime regime() const { return regime_; }

    std::uint64_t observations() const { return observations_; }
    std::uint64_t retunes() const { return retunes_; }
    std::uint64_t shrinks() const { return shrinks_; }
    std::uint64_t grows() const { return grows_; }
    std::uint64_t reverts() const { return reverts_; }

  private:
    /** The one knob the base policy sizes bins with. */
    std::uint64_t primary() const;
    void setPrimary(std::uint64_t value);
    /** Next shrink/grow value for the primary knob; 0 = none legal. */
    std::uint64_t shrinkTarget() const;
    std::uint64_t growTarget() const;
    /** Super-bin fan preserving the initial super-bin byte span. */
    std::uint64_t fanFor(std::uint64_t blockBytes) const;
    /** Apply a new primary value + shared post-retune bookkeeping. */
    void apply(std::uint64_t value);

    bool observePmu(const AdaptSample &delta);
    bool observeDwell(const AdaptSample &delta);

    const AdaptTunerConfig config_;
    const PlacementKind base_;
    const AdaptParams initial_;
    AdaptParams params_;
    AdaptRegime regime_ = AdaptRegime::Warmup;

    /** Primary-knob values ever classified capacity-dominated (or
     *  probed without improvement): never entered again. */
    std::set<std::uint64_t> bad_;
    unsigned capacityStreak_ = 0;
    unsigned floorStreak_ = 0;
    unsigned holdRemaining_ = 0;

    /** Dwell-mode accumulators (stable window / probe window). */
    std::uint64_t stableDwell_ = 0;
    std::uint64_t stableThreads_ = 0;
    unsigned stableObs_ = 0;
    bool probing_ = false;
    AdaptParams preProbe_;
    double preProbeMetric_ = 0.0;
    std::uint64_t probeDwell_ = 0;
    std::uint64_t probeThreads_ = 0;
    unsigned probeObs_ = 0;

    std::uint64_t observations_ = 0;
    std::uint64_t retunes_ = 0;
    std::uint64_t shrinks_ = 0;
    std::uint64_t grows_ = 0;
    std::uint64_t reverts_ = 0;
};

/**
 * PlacementPolicy wrapper: the tuner plus the inner base policy it
 * re-parameterizes. place()/peek() read the current policy through an
 * atomic pointer (no lock); maybeRetune() serializes the tuner and
 * the generation swap on an internal mutex, so the stream monitor may
 * retune while producers fork.
 */
class AdaptivePlacement final : public PlacementPolicy
{
  public:
    AdaptivePlacement(PlacementKind base, unsigned dims, bool symmetric,
                      const AdaptTunerConfig &tunerConfig,
                      const AdaptParams &initial);

    PlacementDecision place(std::span<const Hint> hints) override;
    PlacementDecision peek(std::span<const Hint> hints) const override;

    PlacementKind kind() const override
    {
        return PlacementKind::Adaptive;
    }

    /** Inherited from the base policy: the generation swap itself is
     *  lock-free, so only a stateful base (round-robin's cursor)
     *  needs the session to serialize producers. */
    bool stateless() const override { return innerStateless_; }

    bool hierarchical() const override
    {
        return base_ == PlacementKind::Hierarchical;
    }

    bool maybeRetune() override;

    AdaptSnapshot adaptSnapshot() const override;

    PlacementPolicy *hotPolicy() override
    {
        return inner_.load(std::memory_order_acquire);
    }

    /** The wrapped base policy's kind (inspection). */
    PlacementKind baseKind() const { return base_; }

    /** Parameters currently in force (tests). */
    AdaptParams currentParams() const;

  private:
    std::unique_ptr<PlacementPolicy> buildInner() const;

    const PlacementKind base_;
    const unsigned dims_;
    const bool symmetric_;
    bool innerStateless_ = false;

    /** Every generation ever built, oldest first; the count is
     *  bounded by the bad-set (each retune burns a knob value), so
     *  keeping retired generations alive is cheap and lets a place()
     *  racing the swap finish on the old geometry. */
    std::vector<std::unique_ptr<PlacementPolicy>> generations_;
    /** The current generation; place()/peek() acquire-load it. */
    std::atomic<PlacementPolicy *> inner_{nullptr};

    /** Guards the tuner and the generation swap, not the read path. */
    mutable std::mutex mutex_;
    AdaptiveTuner tuner_;
    /** Absolute profiler totals at the previous poll. */
    AdaptSample lastTotals_;
    /** Boundaries polled with the profiler off; warned at the first. */
    std::uint64_t noSignal_ = 0;
};

/**
 * Build the adaptive placement a SchedulerConfig selects: base policy
 * from adaptBase, initial parameters from the config's blockBytes/
 * superBinFan/roundRobinBins, thresholds from the adapt.* fields
 * (adaptMaxBlock == 0 resolves to cacheBytes). The config must
 * already be validated (adaptBase != Adaptive).
 */
std::unique_ptr<PlacementPolicy>
makeAdaptivePlacement(const SchedulerConfig &config);

} // namespace lsched::threads

#endif // LSCHED_THREADS_ADAPT_HH
