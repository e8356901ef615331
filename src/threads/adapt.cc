/**
 * @file
 * AdaptiveTuner + AdaptivePlacement implementation. See adapt.hh for
 * the state-machine contract and the safe-boundary rule.
 */

#include "threads/adapt.hh"

#include <algorithm>

#include "obs/profile.hh"
#include "obs/trace.hh"
#include "support/panic.hh"
#include "threads/scheduler.hh"

namespace lsched::threads
{

namespace
{

/** Bound on round-robin bin doubling (a runaway backstop). */
constexpr std::uint64_t kMaxRoundRobinBins = 1ull << 20;

/** Current absolute profiler totals, summed over the bin table. */
AdaptSample
profilerTotals()
{
    const obs::Profiler &profiler = obs::Profiler::global();
    AdaptSample t;
    t.samples = profiler.samples();
    t.pmuSamples = profiler.pmuSampleCount();
    for (const obs::BinProfile &bin : profiler.binProfiles()) {
        t.llcRefs += bin.llcRefs;
        t.llcMisses += bin.llcMisses;
        t.dwellNs += bin.dwellNs;
        t.threads += bin.threads;
    }
    return t;
}

} // namespace

AdaptiveTuner::AdaptiveTuner(const AdaptTunerConfig &config,
                             PlacementKind base,
                             const AdaptParams &initial)
    : config_(config), base_(base), initial_(initial), params_(initial)
{
    LSCHED_ASSERT(base_ != PlacementKind::Adaptive,
                  "adaptive tuner wrapping itself");
}

std::uint64_t
AdaptiveTuner::primary() const
{
    return base_ == PlacementKind::RoundRobin ? params_.roundRobinBins
                                              : params_.blockBytes;
}

void
AdaptiveTuner::setPrimary(std::uint64_t value)
{
    if (base_ == PlacementKind::RoundRobin) {
        params_.roundRobinBins = value;
    } else {
        params_.blockBytes = value;
        params_.superBinFan = fanFor(value);
    }
}

std::uint64_t
AdaptiveTuner::shrinkTarget() const
{
    if (base_ == PlacementKind::RoundRobin) {
        // More bins = fewer threads (less data) per bin.
        const std::uint64_t next = params_.roundRobinBins * 2;
        return next <= kMaxRoundRobinBins ? next : 0;
    }
    const std::uint64_t next = params_.blockBytes / 2;
    return next >= config_.minBlock ? next : 0;
}

std::uint64_t
AdaptiveTuner::growTarget() const
{
    if (base_ == PlacementKind::RoundRobin) {
        const std::uint64_t next = params_.roundRobinBins / 2;
        return next >= 1 ? next : 0;
    }
    const std::uint64_t next = params_.blockBytes * 2;
    return next <= config_.maxBlock ? next : 0;
}

std::uint64_t
AdaptiveTuner::fanFor(std::uint64_t blockBytes) const
{
    if (base_ != PlacementKind::Hierarchical ||
        initial_.superBinFan == 0 || blockBytes == 0)
        return initial_.superBinFan;
    // Keep the super-bin byte span (fan x block per dimension)
    // invariant: halving the block doubles the fan, so a worker's
    // super-bin still covers the same address range.
    const std::uint64_t fan =
        initial_.superBinFan * initial_.blockBytes / blockBytes;
    return fan ? fan : 1;
}

void
AdaptiveTuner::apply(std::uint64_t value)
{
    setPrimary(value);
    ++retunes_;
    holdRemaining_ = config_.hold;
    capacityStreak_ = 0;
    floorStreak_ = 0;
    stableDwell_ = 0;
    stableThreads_ = 0;
    stableObs_ = 0;
}

bool
AdaptiveTuner::observe(const AdaptSample &delta)
{
    if (delta.samples == 0)
        return false;
    ++observations_;
    if (delta.pmuSamples > 0)
        return observePmu(delta);
    return observeDwell(delta);
}

bool
AdaptiveTuner::observePmu(const AdaptSample &delta)
{
    if (probing_) {
        // The PMU came (back) online mid-probe: keep the probed
        // parameters and let miss rates govern from here.
        probing_ = false;
    }
    if (delta.llcRefs < config_.minRefs)
        return false; // too little traffic to classify; ignore
    const double rate = static_cast<double>(delta.llcMisses) /
                        static_cast<double>(delta.llcRefs);
    if (rate > config_.highMiss) {
        regime_ = AdaptRegime::Capacity;
        ++capacityStreak_;
        floorStreak_ = 0;
    } else if (rate <= config_.targetMiss) {
        regime_ = AdaptRegime::Floor;
        ++floorStreak_;
        capacityStreak_ = 0;
    } else {
        regime_ = AdaptRegime::Neutral;
        capacityStreak_ = 0;
        floorStreak_ = 0;
    }
    if (holdRemaining_ > 0) {
        --holdRemaining_;
        return false;
    }
    if (capacityStreak_ >= config_.epochs) {
        // This size demonstrably overflows the cache: never grow back
        // into it (the hysteresis that makes oscillation impossible).
        bad_.insert(primary());
        const std::uint64_t target = shrinkTarget();
        capacityStreak_ = 0;
        if (target == 0)
            return false; // already at the floor of the knob range
        apply(target);
        ++shrinks_;
        return true;
    }
    if (floorStreak_ >= config_.epochs) {
        const std::uint64_t target = growTarget();
        floorStreak_ = 0;
        if (target == 0 || bad_.count(target))
            return false; // at the cap, or a size known to overflow
        apply(target);
        ++grows_;
        return true;
    }
    return false;
}

bool
AdaptiveTuner::observeDwell(const AdaptSample &delta)
{
    if (delta.threads == 0 || delta.dwellNs == 0)
        return false; // nothing to climb on
    if (holdRemaining_ > 0) {
        --holdRemaining_;
        return false;
    }
    if (probing_) {
        regime_ = AdaptRegime::Probing;
        probeDwell_ += delta.dwellNs;
        probeThreads_ += delta.threads;
        if (++probeObs_ < config_.epochs)
            return false;
        // Judge the probe on its dwell-per-thread average.
        const double metric =
            static_cast<double>(probeDwell_) /
            static_cast<double>(probeThreads_);
        probing_ = false;
        if (metric <=
            preProbeMetric_ * (1.0 - config_.dwellImprove)) {
            // Improved enough: the probe becomes permanent; a further
            // probe may follow after the next stable window.
            regime_ = AdaptRegime::Neutral;
            holdRemaining_ = config_.hold;
            return false;
        }
        // No improvement: roll back and never probe that value again.
        bad_.insert(primary());
        params_ = preProbe_;
        ++retunes_;
        ++reverts_;
        regime_ = AdaptRegime::Neutral;
        holdRemaining_ = config_.hold;
        stableDwell_ = 0;
        stableThreads_ = 0;
        stableObs_ = 0;
        return true;
    }
    regime_ = AdaptRegime::Neutral;
    stableDwell_ += delta.dwellNs;
    stableThreads_ += delta.threads;
    if (++stableObs_ < config_.epochs)
        return false;
    const std::uint64_t target = shrinkTarget();
    if (target == 0 || bad_.count(target)) {
        // Quiescent: nothing left to probe. Keep a rolling window so
        // a later config change starts from fresh numbers.
        stableDwell_ = delta.dwellNs;
        stableThreads_ = delta.threads;
        stableObs_ = 1;
        return false;
    }
    preProbe_ = params_;
    preProbeMetric_ = static_cast<double>(stableDwell_) /
                      static_cast<double>(stableThreads_);
    probeDwell_ = 0;
    probeThreads_ = 0;
    probeObs_ = 0;
    probing_ = true;
    apply(target);
    ++shrinks_;
    regime_ = AdaptRegime::Probing;
    return true;
}

AdaptivePlacement::AdaptivePlacement(PlacementKind base, unsigned dims,
                                     bool symmetric,
                                     const AdaptTunerConfig &tunerConfig,
                                     const AdaptParams &initial)
    : base_(base), dims_(dims), symmetric_(symmetric),
      tuner_(tunerConfig, base, initial)
{
    generations_.push_back(buildInner());
    innerStateless_ = generations_.back()->stateless();
    inner_.store(generations_.back().get(), std::memory_order_release);
}

std::unique_ptr<PlacementPolicy>
AdaptivePlacement::buildInner() const
{
    const AdaptParams &p = tuner_.params();
    return makePlacement(base_, dims_, p.blockBytes, symmetric_,
                         p.roundRobinBins, p.superBinFan);
}

PlacementDecision
AdaptivePlacement::place(std::span<const Hint> hints)
{
    return inner_.load(std::memory_order_acquire)->place(hints);
}

PlacementDecision
AdaptivePlacement::peek(std::span<const Hint> hints) const
{
    return inner_.load(std::memory_order_acquire)->peek(hints);
}

bool
AdaptivePlacement::maybeRetune()
{
    const AdaptSample totals = profilerTotals();
    std::lock_guard<std::mutex> lock(mutex_);
    if (totals.samples < lastTotals_.samples) {
        // The profiler was reset since the last poll; its totals
        // restarted from zero, so consume them whole.
        lastTotals_ = AdaptSample{};
    }
    AdaptSample delta;
    delta.samples = totals.samples - lastTotals_.samples;
    delta.pmuSamples = totals.pmuSamples - lastTotals_.pmuSamples;
    delta.llcRefs = totals.llcRefs - lastTotals_.llcRefs;
    delta.llcMisses = totals.llcMisses - lastTotals_.llcMisses;
    delta.dwellNs = totals.dwellNs - lastTotals_.dwellNs;
    delta.threads = totals.threads - lastTotals_.threads;
    lastTotals_ = totals;
    if (delta.samples == 0) {
        if (!obs::profileOn()) {
            // No signal source: the tuner would idle at its initial
            // parameters without a word. Count every such boundary
            // and say so once.
            if (noSignal_++ == 0) {
                LSCHED_WARN("placement=adaptive has no signal source: "
                            "profile.enable is off, so the tuner "
                            "observes nothing and keeps block_bytes=",
                            tuner_.params().blockBytes,
                            " (sched.adapt.no_signal counts these)");
            }
        }
        return false;
    }

    if (!tuner_.observe(delta))
        return false;

    // Publish the new generation; the old one stays alive for any
    // place() that loaded it just before the swap.
    generations_.push_back(buildInner());
    inner_.store(generations_.back().get(), std::memory_order_release);
    const AdaptParams &p = tuner_.params();
    LSCHED_TRACE_EVENT(
        obs::EventType::AdaptRetune, p.blockBytes,
        base_ == PlacementKind::RoundRobin ? p.roundRobinBins
                                           : p.superBinFan,
        static_cast<std::uint64_t>(tuner_.regime()));
    return true;
}

AdaptSnapshot
AdaptivePlacement::adaptSnapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    AdaptSnapshot s;
    s.active = true;
    s.regime = tuner_.regime();
    s.blockBytes = tuner_.params().blockBytes;
    s.superBinFan = tuner_.params().superBinFan;
    s.roundRobinBins = tuner_.params().roundRobinBins;
    s.observations = tuner_.observations();
    s.retunes = tuner_.retunes();
    s.shrinks = tuner_.shrinks();
    s.grows = tuner_.grows();
    s.reverts = tuner_.reverts();
    s.noSignal = noSignal_;
    return s;
}

AdaptParams
AdaptivePlacement::currentParams() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return tuner_.params();
}

std::unique_ptr<PlacementPolicy>
makeAdaptivePlacement(const SchedulerConfig &config)
{
    LSCHED_ASSERT(config.adaptBase != PlacementKind::Adaptive,
                  "adaptBase must name a concrete base policy");
    AdaptTunerConfig t;
    t.targetMiss = config.adaptTargetMiss;
    t.highMiss = config.adaptHighMiss;
    t.converge = config.adaptConverge;
    t.epochs = config.adaptEpochs;
    t.hold = config.adaptHold;
    t.maxBlock =
        config.adaptMaxBlock ? config.adaptMaxBlock : config.cacheBytes;
    t.minBlock = std::min(config.adaptMinBlock, t.maxBlock);
    t.minRefs = config.adaptMinRefs;
    t.dwellImprove = config.adaptDwellImprove;

    AdaptParams p;
    p.blockBytes = config.effectiveBlockBytes();
    if (config.adaptBase == PlacementKind::Hierarchical) {
        p.superBinFan = config.superBinFan
                            ? config.superBinFan
                            : TopologyPlacement::kDefaultFan;
    }
    if (config.adaptBase == PlacementKind::RoundRobin) {
        p.roundRobinBins = config.roundRobinBins
                               ? config.roundRobinBins
                               : RoundRobinPlacement::kDefaultBins;
    }
    return std::make_unique<AdaptivePlacement>(
        config.adaptBase, config.dims, config.symmetricHints, t, p);
}

} // namespace lsched::threads
