#include "cache.hh"

#include <algorithm>

namespace lsched::cachesim
{

Cache::Cache(CacheConfig config, bool classify)
    : config_(std::move(config))
{
    config_.validate();
    lineShift_ = floorLog2(config_.lineBytes);
    ways_ = config_.ways();
    writeThrough_ =
        config_.writePolicy == WritePolicy::WriteThroughNoAllocate;
    setMask_ = config_.numSets() - 1;
    tags_.assign(config_.numLines(), kInvalid);
    dirty_.assign(config_.numLines(), 0);
    if (classify)
        classifier_ = std::make_unique<MissClassifier>(config_.numLines());
}

void
Cache::installAt(std::uint64_t set, unsigned way,
                 std::uint64_t line_addr, bool dirty, Result &res)
{
    std::uint64_t *const tag = &tags_[set * ways_];
    std::uint8_t *const dty = &dirty_[set * ways_];
    const std::uint64_t victim = tag[way];
    if (victim != kInvalid && dty[way]) {
        res.writeback = true;
        res.victimLine = victim;
        ++stats_.writebacks;
    }
    // For LRU/FIFO the newest entry sits at slot 0, so shift the
    // prefix down; Random replaces in place.
    if (config_.replacement == Replacement::Random) {
        tag[way] = line_addr;
        dty[way] = dirty ? 1 : 0;
        return;
    }
    for (unsigned j = way; j > 0; --j) {
        tag[j] = tag[j - 1];
        dty[j] = dty[j - 1];
    }
    tag[0] = line_addr;
    dty[0] = dirty ? 1 : 0;
}

Cache::Result
Cache::accessLine(std::uint64_t line_addr, bool is_write)
{
    Result res;
    ++stats_.accesses;

    const std::uint64_t set = line_addr & setMask_;
    std::uint64_t *const tag = &tags_[set * ways_];
    std::uint8_t *const dty = &dirty_[set * ways_];

    if (writeThrough_ && is_write)
        res.propagateWrite = true;

    // Hit path.
    for (unsigned i = 0; i < ways_; ++i) {
        if (tag[i] == line_addr) {
            // Write-through caches hold no dirty data.
            const std::uint8_t d = static_cast<std::uint8_t>(
                dty[i] | ((is_write && !writeThrough_) ? 1 : 0));
            if (config_.replacement == Replacement::Lru) {
                for (unsigned j = i; j > 0; --j) {
                    tag[j] = tag[j - 1];
                    dty[j] = dty[j - 1];
                }
                tag[0] = line_addr;
                dty[0] = d;
            } else {
                dty[i] = d;
            }
            if (classifier_)
                classifier_->observe(line_addr, false);
            return res;
        }
    }

    // Miss.
    res.miss = true;
    ++stats_.misses;

    const bool allocate = !(writeThrough_ && is_write);
    if (allocate) {
        unsigned way = ways_ - 1; // LRU/FIFO victim: the oldest slot
        if (config_.replacement == Replacement::Random) {
            // Prefer an invalid way; otherwise evict pseudo-randomly.
            way = static_cast<unsigned>(victimPrng_.nextBelow(ways_));
            for (unsigned i = 0; i < ways_; ++i) {
                if (tag[i] == kInvalid) {
                    way = i;
                    break;
                }
            }
        }
        installAt(set, way, line_addr, is_write && !writeThrough_,
                  res);
    }

    if (classifier_) {
        res.kind = classifier_->observe(line_addr, true);
        switch (res.kind) {
          case MissKind::Compulsory:
            ++stats_.compulsoryMisses;
            break;
          case MissKind::Capacity:
            ++stats_.capacityMisses;
            break;
          case MissKind::Conflict:
            ++stats_.conflictMisses;
            break;
        }
    }
    return res;
}

bool
Cache::updateIfPresent(std::uint64_t line_addr)
{
    const std::uint64_t set = line_addr & setMask_;
    std::uint64_t *const tag = &tags_[set * ways_];
    for (unsigned i = 0; i < ways_; ++i) {
        if (tag[i] == line_addr) {
            dirty_[set * ways_ + i] = 1;
            return true;
        }
    }
    return false;
}

bool
Cache::probeLine(std::uint64_t line_addr) const
{
    const std::uint64_t set = line_addr & setMask_;
    const std::uint64_t *const tag = &tags_[set * ways_];
    for (unsigned i = 0; i < ways_; ++i)
        if (tag[i] == line_addr)
            return true;
    return false;
}

void
Cache::reset()
{
    std::fill(tags_.begin(), tags_.end(), kInvalid);
    std::fill(dirty_.begin(), dirty_.end(), 0);
    stats_ = CacheStats{};
    victimPrng_ = Prng(kVictimSeed);
    if (classifier_)
        classifier_->clear();
}

} // namespace lsched::cachesim
