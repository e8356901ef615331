#include "hierarchy.hh"

#include <algorithm>

#include "obs/registry.hh"
#include "obs/trace.hh"
#include "support/panic.hh"

namespace lsched::cachesim
{

Hierarchy::Hierarchy(const HierarchyConfig &config)
    : l1i_(config.l1i, config.classifyL1),
      l1d_(config.l1d, config.classifyL1),
      l2_(config.l2, config.classifyL2),
      pageMap_(config.l2PageMap, config.pageBytes,
               std::max<std::uint64_t>(
                   1, config.l2.numSets() * config.l2.lineBytes /
                          config.pageBytes),
               config.pageMapSeed),
      translate_(config.l2PageMap != PageMapPolicy::Identity),
      missPairsRepeat_(config.l1d.ways() == 1 &&
                       config.l1d.replacement != Replacement::Random &&
                       !config.classifyL1),
      l1dSetMask_(config.l1d.numSets() - 1)
{
    LSCHED_ASSERT(config.l2.lineBytes >= config.l1i.lineBytes &&
                      config.l2.lineBytes >= config.l1d.lineBytes,
                  "L2 line must be at least as large as the L1 lines");
    l1iToL2Shift_ = l2_.lineShift() - l1i_.lineShift();
    l1dToL2Shift_ = l2_.lineShift() - l1d_.lineShift();
}

std::uint64_t
Hierarchy::l2LineOf(std::uint64_t l1_line, unsigned shift)
{
    if (!translate_)
        return l1_line >> shift;
    // Translate at byte granularity; pages are >= L2 lines, so the
    // whole line maps within one page.
    const unsigned l1_shift = l2_.lineShift() - shift;
    return l2_.lineOf(pageMap_.translate(l1_line << l1_shift));
}

void
Hierarchy::accessThrough(Cache &l1, std::uint64_t l1_line, bool is_write)
{
    const Cache::Result r1 = l1.accessLine(l1_line, is_write);
    if (!r1.miss && !r1.writeback && !r1.propagateWrite)
        return;

    const unsigned shift = (&l1 == &l1i_) ? l1iToL2Shift_ : l1dToL2Shift_;
    if (r1.propagateWrite) {
        // Write-through L1: the store itself travels to L2 (both on
        // hit and on the no-allocate miss).
        l2_.accessLine(l2LineOf(l1_line, shift), true);
    } else if (r1.miss) {
        // Demand fetch from L2. The fill is a read even when the
        // triggering reference is a store (write-allocate fetches the
        // line first); the dirtiness lives in L1 until eviction. A
        // dirty victim leaving L2 goes to memory; the cache counts it
        // in its own writebacks.
        const std::uint64_t l2_line = l2LineOf(l1_line, shift);
        if (!l2_.hitMru(l2_line, false))
            l2_.accessLine(l2_line, false);
    }
    if (r1.writeback) {
        // Dirty L1 victim updates L2 in place when resident. Because
        // every L1 fill also filled L2, absence is rare (the line was
        // evicted from the much larger L2 in the meantime); in that
        // case the data retires to memory without disturbing the
        // demand statistics.
        l2_.updateIfPresent(l2LineOf(r1.victimLine, shift));
    }
}

namespace
{

/**
 * How many consecutive @p bytes-byte elements from @p addr lie whole
 * inside addr's line of 2^@p shift bytes: 0 when the first one
 * straddles into the next line, unbounded for zero-byte elements
 * (each is the one byte at @p addr).
 */
std::uint64_t
elementsInLine(std::uint64_t addr, std::uint64_t bytes, unsigned shift)
{
    if (bytes == 0)
        return ~std::uint64_t{0};
    const std::uint64_t line_bytes = std::uint64_t{1} << shift;
    const std::uint64_t room = line_bytes - (addr & (line_bytes - 1));
    return bytes > room ? 0 : (room - bytes) / bytes + 1;
}

} // namespace

void
Hierarchy::loadPairs(std::uint64_t x, std::uint64_t y, std::uint64_t bytes,
                     std::uint64_t count)
{
    const unsigned shift = l1d_.lineShift();
    for (std::uint64_t k = 0; k < count;) {
        const std::uint64_t xk = x + k * bytes;
        const std::uint64_t yk = y + k * bytes;
        const std::uint64_t run =
            std::min({count - k, elementsInLine(xk, bytes, shift),
                      elementsInLine(yk, bytes, shift)});
        if (run == 0) {
            // An element spans two lines: this pair goes as it is.
            load(xk, bytes);
            load(yk, bytes);
            ++k;
        } else {
            loadLinePairs(xk >> shift, yk >> shift, run);
            k += run;
        }
    }
}

/**
 * @p pairs loads of L1D line @p a then line @p b. Simulate pair after
 * pair until the state after a pair is one the next pair provably
 * returns to, then count the remaining pairs without simulating them
 * (DESIGN.md §6 has the proof of each case):
 *  (a) both lines are L1D-resident: every later pair is two hits;
 *  (b) a one-way, non-Random, unclassified L1D where a and b share a
 *      set, both loads of the pair missed and both L2 lines are
 *      resident: every later pair is two L1D misses and two L2 hits.
 */
void
Hierarchy::loadLinePairs(std::uint64_t a, std::uint64_t b,
                         std::uint64_t pairs)
{
    for (std::uint64_t rest = pairs - 1;; --rest) {
        const std::uint64_t misses = l1d_.stats().misses;
        loadLine(a);
        const bool a_missed = l1d_.stats().misses != misses;
        loadLine(b);
        const bool both_missed = a_missed && l1d_.stats().misses - misses == 2;
        dataRefs_ += 2;
        if (rest == 0)
            return;
        if (l1d_.probeLine(a) && l1d_.probeLine(b)) {
            dataRefs_ += 2 * rest;
            l1d_.countRepeats(2 * rest, 0);
            return;
        }
        if (missPairsRepeat_ && both_missed && a != b &&
            ((a ^ b) & l1dSetMask_) == 0 &&
            l2_.probeLine(l2LineOf(a, l1dToL2Shift_)) &&
            l2_.probeLine(l2LineOf(b, l1dToL2Shift_))) {
            dataRefs_ += 2 * rest;
            l1d_.countRepeats(2 * rest, 2 * rest);
            l2_.countRepeats(2 * rest, 0);
            return;
        }
    }
}

void
Hierarchy::reset()
{
    l1i_.reset();
    l1d_.reset();
    l2_.reset();
    pageMap_.clear();
    ifetches_ = 0;
    dataRefs_ = 0;
}

void
Hierarchy::publishMetrics(const std::string &prefix) const
{
    if (!obs::metricsOn())
        return;
    obs::Registry &r = obs::Registry::global();
    auto level = [&](const char *name, const CacheStats &s) {
        const std::string base = prefix + "." + name;
        r.gauge(base + ".accesses").set(s.accesses);
        r.gauge(base + ".misses").set(s.misses);
        r.gauge(base + ".writebacks").set(s.writebacks);
        r.gauge(base + ".misses.compulsory").set(s.compulsoryMisses);
        r.gauge(base + ".misses.capacity").set(s.capacityMisses);
        r.gauge(base + ".misses.conflict").set(s.conflictMisses);
    };
    r.gauge(prefix + ".ifetches").set(ifetches_);
    r.gauge(prefix + ".datarefs").set(dataRefs_);
    level("l1i", l1i_.stats());
    level("l1d", l1d_.stats());
    level("l2", l2_.stats());
}

} // namespace lsched::cachesim
