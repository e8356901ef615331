#include "threads/placement.hh"

#include "support/panic.hh"

namespace lsched::threads
{

PlacementPolicy::~PlacementPolicy() = default;

const char *
placementName(PlacementKind kind)
{
    switch (kind) {
      case PlacementKind::BlockHash:
        return "blockhash";
      case PlacementKind::RoundRobin:
        return "roundrobin";
      case PlacementKind::Hierarchical:
        return "hierarchical";
      case PlacementKind::Adaptive:
        return "adaptive";
    }
    return "?";
}

const char *
adaptRegimeName(AdaptRegime regime)
{
    switch (regime) {
      case AdaptRegime::Warmup:   return "warmup";
      case AdaptRegime::Floor:    return "floor";
      case AdaptRegime::Neutral:  return "neutral";
      case AdaptRegime::Capacity: return "capacity";
      case AdaptRegime::Probing:  return "probing";
    }
    return "?";
}

bool
tryPlacementFromName(const std::string &name, PlacementKind *out)
{
    if (name == "blockhash")
        *out = PlacementKind::BlockHash;
    else if (name == "roundrobin")
        *out = PlacementKind::RoundRobin;
    else if (name == "hierarchical")
        *out = PlacementKind::Hierarchical;
    else if (name == "adaptive")
        *out = PlacementKind::Adaptive;
    else
        return false;
    return true;
}

PlacementDecision
TopologyPlacement::place(std::span<const Hint> hints)
{
    PlacementDecision d;
    d.coords = map_.coordsFor(hints);
    BlockCoords super{};
    for (unsigned dim = 0; dim < map_.dims(); ++dim)
        super[dim] = d.coords[dim] / fan_;
    const auto [it, created] = superIds_.try_emplace(
        super, static_cast<std::uint32_t>(superIds_.size()));
    (void)created;
    d.superBin = it->second;
    return d;
}

PlacementDecision
TopologyPlacement::peek(std::span<const Hint> hints) const
{
    PlacementDecision d;
    d.coords = map_.coordsFor(hints);
    BlockCoords super{};
    for (unsigned dim = 0; dim < map_.dims(); ++dim)
        super[dim] = d.coords[dim] / fan_;
    const auto it = superIds_.find(super);
    d.superBin = it == superIds_.end() ? kNoSuperBin : it->second;
    return d;
}

std::unique_ptr<PlacementPolicy>
makePlacement(PlacementKind kind, unsigned dims,
              std::uint64_t blockBytes, bool symmetricHints,
              std::uint64_t roundRobinBins, std::uint64_t superBinFan)
{
    switch (kind) {
      case PlacementKind::BlockHash:
        return std::make_unique<BlockHashPlacement>(dims, blockBytes,
                                                    symmetricHints);
      case PlacementKind::RoundRobin:
        return std::make_unique<RoundRobinPlacement>(roundRobinBins);
      case PlacementKind::Hierarchical:
        return std::make_unique<TopologyPlacement>(
            dims, blockBytes, symmetricHints, superBinFan);
      case PlacementKind::Adaptive:
        // The adaptive wrapper needs the whole SchedulerConfig (tuner
        // thresholds, base policy); build it via makeAdaptivePlacement
        // (threads/adapt.hh) instead.
        LSCHED_PANIC("PlacementKind::Adaptive requires "
                     "makeAdaptivePlacement(config)");
    }
    LSCHED_PANIC("unhandled PlacementKind ",
                 static_cast<int>(kind));
}

} // namespace lsched::threads
