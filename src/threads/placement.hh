/**
 * @file
 * The placement layer: *where* a forked thread goes.
 *
 * The paper marries a placement policy (hash address hints into
 * cache-sized blocks) to an execution mechanism (run each bin to
 * completion). This interface makes the policy half first-class and
 * swappable — BubbleSched-style — so a new placement is one class, not
 * a cross-cutting change to fork()/BinTable:
 *
 *  - BlockHashPlacement — the paper's algorithm: hints divide into
 *    block coordinates (block_map.hh), with optional symmetric-hint
 *    folding. The default, and the only policy that uses the hints'
 *    *values*.
 *  - RoundRobinPlacement — the locality-oblivious baseline: forks
 *    cycle over a fixed set of bins regardless of hints, giving the
 *    same bin count and occupancy as a hashed placement but scrambled
 *    membership. Benches previously faked this by zeroing hints.
 *  - TopologyPlacement — two-level: hints map to an L2 block as in
 *    BlockHash, and blocks additionally group into super-bins (a
 *    bubble at bin granularity) sized to the machine's cache-domain
 *    tree: with topology=auto the block bytes come from the
 *    discovered L2 size and the fan from the L2-groups-per-L3-cluster
 *    ratio (machine/topology.hh), with the blockBytes/superBinFan
 *    knobs kept as overrides. The parallel tour keeps a super-bin's
 *    bins contiguous, the partitioner hands whole super-bins to one
 *    worker, and domainOf() maps each super-bin onto an L2 domain so
 *    the workers pinned into that domain execute it.
 *  - AdaptivePlacement (threads/adapt.hh) — wraps any of the above
 *    and re-derives its parameters (blockBytes, superBinFan, bin
 *    count) from the online miss attribution the continuous profiler
 *    collects. Retuning happens only at safe boundaries — the owner
 *    calls maybeRetune() between tours / at stream epoch ticks, never
 *    mid-tour.
 *
 * A policy may be stateful (RoundRobin's cursor, Hierarchical's
 * super-bin ids); place() is therefore non-const. The scheduler calls
 * it only from fork(), which is single-threaded by construction.
 */

#ifndef LSCHED_THREADS_PLACEMENT_HH
#define LSCHED_THREADS_PLACEMENT_HH

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>

#include "threads/bin.hh"
#include "threads/block_map.hh"
#include "threads/hints.hh"

namespace lsched::threads
{

/** Selectable placement policies (SchedulerConfig::placement). */
enum class PlacementKind : std::uint8_t
{
    /** The paper's hint→block hash (block_map.hh). */
    BlockHash,
    /** Locality-oblivious round-robin over a fixed bin count. */
    RoundRobin,
    /** Block hash plus worker-sized super-bin grouping. */
    Hierarchical,
    /** Self-tuning wrapper over a base policy (threads/adapt.hh). */
    Adaptive,
};

/** Printable name of a placement ("blockhash", ...). */
const char *placementName(PlacementKind kind);

/** Parse a placement name; false (and *out untouched) when unknown. */
bool tryPlacementFromName(const std::string &name, PlacementKind *out);

/** Where one fork lands. */
struct PlacementDecision
{
    /** Block coordinates — the bin's search key. */
    BlockCoords coords{};
    /** Super-bin group; kNoSuperBin under flat placements. */
    std::uint32_t superBin = kNoSuperBin;
};

/**
 * What the adaptive tuner thinks the workload's cache behavior is.
 * Numeric values are ABI (th_stats_t::adapt_regime, the
 * sched.adapt.regime gauge) — append only.
 */
enum class AdaptRegime : std::uint8_t
{
    /** Not enough observations yet (or the placement isn't adaptive). */
    Warmup = 0,
    /** Miss rate at or below the target: the compulsory floor. */
    Floor = 1,
    /** Between the target and the capacity threshold; holding. */
    Neutral = 2,
    /** Miss rate above the capacity threshold: blocks overflow L2. */
    Capacity = 3,
    /** Dwell-only mode: a probe retune is in flight, being judged. */
    Probing = 4,
};

/** Printable regime name ("warmup", "floor", ...). */
const char *adaptRegimeName(AdaptRegime regime);

/** State of an AdaptivePlacement (all-zero for other policies). */
struct AdaptSnapshot
{
    /** True when the reporting policy is adaptive. */
    bool active = false;
    /** Current regime classification. */
    AdaptRegime regime = AdaptRegime::Warmup;
    /** Block dimension currently in force. */
    std::uint64_t blockBytes = 0;
    /** Super-bin fan currently in force (hierarchical base only). */
    std::uint64_t superBinFan = 0;
    /** Bin count currently in force (round-robin base only). */
    std::uint64_t roundRobinBins = 0;
    /** Profiler epochs the tuner consumed. */
    std::uint64_t observations = 0;
    /** Parameter swaps applied (shrinks + grows + reverts). */
    std::uint64_t retunes = 0;
    /** Block halvings (or round-robin bin doublings). */
    std::uint64_t shrinks = 0;
    /** Block doublings back toward the configured maximum. */
    std::uint64_t grows = 0;
    /** Dwell-only probes rolled back for not improving. */
    std::uint64_t reverts = 0;
    /** Retune boundaries skipped because no signal source (the
     *  profiler, profile.enable) was on. */
    std::uint64_t noSignal = 0;
};

/** Hint vector → bin decision (the policy half of the scheduler). */
class PlacementPolicy
{
  public:
    virtual ~PlacementPolicy();

    /** Decide the bin for a fork with the given hints. */
    virtual PlacementDecision place(std::span<const Hint> hints) = 0;

    /**
     * Answer where a fork with these hints *would* land without
     * committing any policy state: RoundRobin's cursor stays put and
     * Hierarchical assigns no new super-bin id (reporting kNoSuperBin
     * for a super-bin not yet created by a real place()). Inspection
     * paths — coordsFor(), stats, tests — must use this, never
     * place().
     */
    virtual PlacementDecision peek(std::span<const Hint> hints) const = 0;

    /** Which policy this is. */
    virtual PlacementKind kind() const = 0;

    /**
     * True when place() touches no mutable policy state, i.e. it is
     * safe to call concurrently from streaming producers without the
     * session's placement lock.
     */
    virtual bool stateless() const { return false; }

    /** True when place() assigns super-bins. */
    virtual bool hierarchical() const { return false; }

    /**
     * Give the policy a chance to retune itself from online feedback.
     * Only the adaptive policy does anything; the owner must call this
     * exclusively at safe boundaries (between tours, at stream epoch
     * ticks), never while a tour is placing against fixed block dims.
     * Returns true when the placement parameters changed.
     */
    virtual bool maybeRetune() { return false; }

    /** Adaptive-tuner state; all-zero for non-adaptive policies. */
    virtual AdaptSnapshot adaptSnapshot() const { return {}; }

    /**
     * The policy place() should dispatch to right now. The adaptive
     * wrapper returns its current inner generation so the batch fork
     * path skips the wrapper's indirection entirely; everything else
     * returns itself. Only stable until the next maybeRetune(), so
     * callers must re-fetch wherever they call that.
     */
    virtual PlacementPolicy *hotPolicy() { return this; }

    /** Printable policy name. */
    const char *name() const { return placementName(kind()); }
};

/** The paper's placement: block-hash the hints (+ symmetric fold). */
class BlockHashPlacement final : public PlacementPolicy
{
  public:
    BlockHashPlacement(unsigned dims, std::uint64_t blockBytes,
                       bool symmetric)
        : map_(dims, blockBytes, symmetric)
    {
    }

    PlacementDecision
    place(std::span<const Hint> hints) override
    {
        return {map_.coordsFor(hints), kNoSuperBin};
    }

    PlacementDecision
    peek(std::span<const Hint> hints) const override
    {
        return {map_.coordsFor(hints), kNoSuperBin};
    }

    PlacementKind kind() const override
    {
        return PlacementKind::BlockHash;
    }

    bool stateless() const override { return true; }

    /** The underlying hint→block map (tests, the inline batch fork's
     *  shift-and-hash path). */
    const BlockMap &blockMap() const { return map_; }

  private:
    BlockMap map_;
};

/** Locality-oblivious baseline: forks cycle over @p bins bins. */
class RoundRobinPlacement final : public PlacementPolicy
{
  public:
    /** Bins cycled over when the config leaves the count at 0. */
    static constexpr std::uint64_t kDefaultBins = 64;

    explicit RoundRobinPlacement(std::uint64_t bins)
        : bins_(bins ? bins : kDefaultBins)
    {
    }

    PlacementDecision
    place(std::span<const Hint>) override
    {
        PlacementDecision d;
        d.coords[0] = next_++ % bins_;
        return d;
    }

    /** Where the *next* fork will land; the cursor does not move. */
    PlacementDecision
    peek(std::span<const Hint>) const override
    {
        PlacementDecision d;
        d.coords[0] = next_ % bins_;
        return d;
    }

    PlacementKind kind() const override
    {
        return PlacementKind::RoundRobin;
    }

  private:
    std::uint64_t bins_;
    std::uint64_t next_ = 0;
};

/**
 * Two-level placement: the paper's block hash for the bin, plus a
 * coarser super-bin — @p fan adjacent blocks per dimension — that the
 * parallel partitioner keeps on one worker. Super-bin ids are assigned
 * in creation order, so grouping the tour by id is deterministic.
 * Under topology=auto the constructor parameters arrive pre-derived
 * from the discovered cache tree (validated() materializes blockBytes
 * from the L2 size and fan from the groups-per-cluster ratio); the
 * policy itself stays hardware-agnostic. Config/ABI name remains
 * "hierarchical" (PlacementKind::Hierarchical).
 */
class TopologyPlacement final : public PlacementPolicy
{
  public:
    /** Blocks per super-bin per dimension when the config says 0 and
     *  no topology ratio applies. */
    static constexpr std::uint64_t kDefaultFan = 4;

    TopologyPlacement(unsigned dims, std::uint64_t blockBytes,
                      bool symmetric, std::uint64_t fan)
        : map_(dims, blockBytes, symmetric), fan_(fan ? fan : kDefaultFan)
    {
    }

    /**
     * The L2 domain a bin executes in when @p domains cache domains
     * are active: super-bins spread round-robin, flat bins fall back
     * to their tour id. The partitioner and the pin plan agree on this
     * map, which is what makes cluster-aware pinning line up.
     */
    static std::uint32_t domainOf(std::uint32_t superBin,
                                  std::uint32_t binId,
                                  std::uint32_t domains)
    {
        const std::uint32_t key = superBin == kNoSuperBin ? binId : superBin;
        return domains == 0 ? 0 : key % domains;
    }

    PlacementDecision place(std::span<const Hint> hints) override;

    PlacementDecision peek(std::span<const Hint> hints) const override;

    PlacementKind kind() const override
    {
        return PlacementKind::Hierarchical;
    }

    bool hierarchical() const override { return true; }

    /** Super-bins created so far. */
    std::size_t superBinCount() const { return superIds_.size(); }

  private:
    BlockMap map_;
    std::uint64_t fan_;
    /** Super-bin coordinates → creation-order id. */
    std::map<BlockCoords, std::uint32_t> superIds_;
};

/**
 * Build the placement a SchedulerConfig selects. @p roundRobinBins
 * and @p superBinFan are the policy parameters (0 = policy default);
 * policies that do not use them ignore them.
 */
std::unique_ptr<PlacementPolicy>
makePlacement(PlacementKind kind, unsigned dims,
              std::uint64_t blockBytes, bool symmetricHints,
              std::uint64_t roundRobinBins, std::uint64_t superBinFan);

} // namespace lsched::threads

#endif // LSCHED_THREADS_PLACEMENT_HH
