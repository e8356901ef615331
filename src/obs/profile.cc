#include "profile.hh"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "obs/snapshot.hh"
#include "perfcount/perf_counters.hh"
#include "support/cli.hh"

namespace lsched::obs
{

namespace detail
{
std::atomic<bool> g_profileOn{false};
} // namespace detail

namespace
{

/** Empty-slot marker; occupied slots hold binId + 1. */
constexpr std::uint64_t kEmptySlot = 0;

/** Lock-free accumulation cell (relaxed atomics, any thread). */
struct BinSlot
{
    std::atomic<std::uint64_t> key{kEmptySlot};
    std::atomic<std::uint32_t> superBin{kProfileNoSuperBin};
    std::atomic<std::uint32_t> lastEpoch{0};
    std::atomic<std::uint64_t> executions{0};
    std::atomic<std::uint64_t> threads{0};
    std::atomic<std::uint64_t> dwellNs{0};
    std::atomic<std::uint64_t> instructions{0};
    std::atomic<std::uint64_t> cycles{0};
    std::atomic<std::uint64_t> llcRefs{0};
    std::atomic<std::uint64_t> llcMisses{0};
    std::atomic<std::uint64_t> pmuSamples{0};
};

struct WorkerSlot
{
    std::atomic<std::uint64_t> samples{0};
    std::atomic<std::uint64_t> dwellNs{0};
    std::atomic<std::uint64_t> llcRefs{0};
    std::atomic<std::uint64_t> llcMisses{0};
    std::atomic<std::uint64_t> pmuSamples{0};
};

/** The attribution table: open-addressed, insert-only, power-of-two
 *  sized so probing is a mask. */
struct Store
{
    explicit Store(std::size_t maxBins)
    {
        std::size_t cap = 1;
        while (cap < maxBins)
            cap <<= 1;
        capacity = cap;
        slots = std::make_unique<BinSlot[]>(capacity);
    }

    BinSlot *
    find(std::uint64_t binId)
    {
        const std::uint64_t key = binId + 1;
        std::size_t i = (binId * 0x9e3779b97f4a7c15ull) & (capacity - 1);
        for (std::size_t probes = 0; probes < capacity; ++probes) {
            BinSlot &slot = slots[i];
            std::uint64_t cur = slot.key.load(std::memory_order_acquire);
            if (cur == key)
                return &slot;
            if (cur == kEmptySlot) {
                if (slot.key.compare_exchange_strong(
                        cur, key, std::memory_order_acq_rel))
                    return &slot;
                if (cur == key)
                    return &slot;
            }
            i = (i + 1) & (capacity - 1);
        }
        return nullptr; // full
    }

    void
    reset()
    {
        for (std::size_t i = 0; i < capacity; ++i) {
            BinSlot &s = slots[i];
            s.key.store(kEmptySlot, std::memory_order_relaxed);
            s.superBin.store(kProfileNoSuperBin,
                             std::memory_order_relaxed);
            s.lastEpoch.store(0, std::memory_order_relaxed);
            s.executions.store(0, std::memory_order_relaxed);
            s.threads.store(0, std::memory_order_relaxed);
            s.dwellNs.store(0, std::memory_order_relaxed);
            s.instructions.store(0, std::memory_order_relaxed);
            s.cycles.store(0, std::memory_order_relaxed);
            s.llcRefs.store(0, std::memory_order_relaxed);
            s.llcMisses.store(0, std::memory_order_relaxed);
            s.pmuSamples.store(0, std::memory_order_relaxed);
        }
        for (auto &w : workers) {
            w.samples.store(0, std::memory_order_relaxed);
            w.dwellNs.store(0, std::memory_order_relaxed);
            w.llcRefs.store(0, std::memory_order_relaxed);
            w.llcMisses.store(0, std::memory_order_relaxed);
            w.pmuSamples.store(0, std::memory_order_relaxed);
        }
    }

    std::size_t capacity = 0;
    std::unique_ptr<BinSlot[]> slots;
    std::array<WorkerSlot, Profiler::kMaxWorkers> workers{};
};

std::mutex g_mutex; ///< configuration + enable/disable lifecycle
ProfileConfig g_config;

/**
 * The live store, plus every store ever published. Stores are never
 * freed: a worker that loaded profileOn() just before a disable may
 * still be writing a sample, so retired tables must stay valid (same
 * leak discipline as Registry::global()).
 */
std::atomic<Store *> g_store{nullptr};
std::vector<std::unique_ptr<Store>> &
storeGraveyard()
{
    static std::vector<std::unique_ptr<Store>> &v =
        *new std::vector<std::unique_ptr<Store>>;
    return v;
}

/** Bumped whenever the PMU policy changes; samplers re-open lazily. */
std::atomic<std::uint64_t> g_pmuGeneration{1};
std::atomic<bool> g_pmuForcedOff{false};
std::atomic<bool> g_pmuWarned{false};

std::atomic<std::uint32_t> g_epoch{0};
std::atomic<std::uint64_t> g_samples{0};
std::atomic<std::uint64_t> g_pmuSamples{0};
std::atomic<std::uint64_t> g_dwellOnly{0};
std::atomic<std::uint64_t> g_dropped{0};

bool
envForcesNoPmu()
{
    static const bool forced =
        std::getenv("LSCHED_PROFILE_NO_PMU") != nullptr;
    return forced;
}

void
warnNoPmuOnce(const std::string &why)
{
    if (g_pmuWarned.exchange(true, std::memory_order_relaxed))
        return;
    std::fprintf(stderr,
                 "lsched: profiling: hardware counters unavailable "
                 "(%s); falling back to dwell-only samples\n",
                 why.empty() ? "perf_event_open failed" : why.c_str());
}

/** Per-thread counter group, revalidated against the generation. */
struct ThreadSampler
{
    std::unique_ptr<perfcount::PerfCounterGroup> group;
    std::uint64_t generation = 0;
};

thread_local ThreadSampler t_sampler;

/** PMU wanted right now by config and overrides (no probe). */
bool
pmuWanted()
{
    if (g_pmuForcedOff.load(std::memory_order_relaxed) ||
        envForcesNoPmu())
        return false;
    std::lock_guard<std::mutex> lock(g_mutex);
    return g_config.pmu;
}

/**
 * The calling thread's armed counter group, opened on first use (and
 * re-opened after a PMU-policy change). Null means dwell-only.
 */
perfcount::PerfCounterGroup *
currentGroup()
{
    const std::uint64_t gen =
        g_pmuGeneration.load(std::memory_order_acquire);
    if (t_sampler.generation != gen) {
        t_sampler.generation = gen;
        t_sampler.group.reset();
        if (pmuWanted()) {
            auto group = std::make_unique<perfcount::PerfCounterGroup>(
                std::vector<perfcount::HwEvent>{
                    perfcount::HwEvent::Instructions,
                    perfcount::HwEvent::CpuCycles,
                    perfcount::HwEvent::CacheReferences,
                    perfcount::HwEvent::CacheMisses});
            if (group->usable())
                t_sampler.group = std::move(group);
            else
                warnNoPmuOnce(group->error());
        }
    }
    return t_sampler.group.get();
}

/** Registry mirrors so --metrics output carries the profile totals. */
struct ProfileCounters
{
    Counter *samples;
    Counter *pmuSamples;
    Counter *dwellOnly;
    Counter *dropped;
};

const ProfileCounters &
profileCounters()
{
    static const ProfileCounters counters = {
        &Registry::global().counter("profile.samples"),
        &Registry::global().counter("profile.samples.pmu"),
        &Registry::global().counter("profile.samples.dwell_only"),
        &Registry::global().counter("profile.bins.dropped"),
    };
    return counters;
}

} // namespace

Profiler &
Profiler::global()
{
    static Profiler &profiler = *new Profiler;
    return profiler;
}

bool
Profiler::configure(const ProfileConfig &config, std::string *error)
{
    if (config.maxBins == 0) {
        if (error)
            *error = "profile.max_bins must be positive";
        return false;
    }
    if (config.ringDepth == 0) {
        if (error)
            *error = "profile.ring must be positive";
        return false;
    }

    bool restartFlusher = false;
    std::uint64_t interval = 0;
    {
        std::lock_guard<std::mutex> lock(g_mutex);
        restartFlusher =
            profileOn() && (g_config.intervalMs != config.intervalMs ||
                            g_config.output != config.output ||
                            g_config.omOutput != config.omOutput);
        if (g_config.pmu != config.pmu)
            g_pmuGeneration.fetch_add(1, std::memory_order_acq_rel);
        g_config = config;
        interval = config.intervalMs;
    }
    // Engine calls happen outside g_mutex: the flusher thread reads
    // the profiler config, so holding the lock across a join would
    // deadlock.
    SnapshotEngine::global().setRingDepth(config.ringDepth);
    if (restartFlusher) {
        SnapshotEngine::global().stop();
        if (interval > 0)
            SnapshotEngine::global().start(interval);
    }
    return true;
}

ProfileConfig
Profiler::config() const
{
    std::lock_guard<std::mutex> lock(g_mutex);
    return g_config;
}

bool
Profiler::setEnabled(bool on)
{
    if (!kTraceCompiled)
        return false;
    std::uint64_t interval = 0;
    {
        std::lock_guard<std::mutex> lock(g_mutex);
        if (on) {
            Store *store = g_store.load(std::memory_order_acquire);
            if (!store || store->capacity < g_config.maxBins) {
                auto fresh = std::make_unique<Store>(g_config.maxBins);
                storeGraveyard().push_back(std::move(fresh));
                g_store.store(storeGraveyard().back().get(),
                              std::memory_order_release);
            }
            interval = g_config.intervalMs;
        }
        detail::g_profileOn.store(on, std::memory_order_relaxed);
    }
    if (on && interval > 0)
        SnapshotEngine::global().start(interval);
    if (!on)
        SnapshotEngine::global().stop();
    return profileOn();
}

void
Profiler::reset()
{
    if (Store *store = g_store.load(std::memory_order_acquire))
        store->reset();
    g_epoch.store(0, std::memory_order_relaxed);
    g_samples.store(0, std::memory_order_relaxed);
    g_pmuSamples.store(0, std::memory_order_relaxed);
    g_dwellOnly.store(0, std::memory_order_relaxed);
    g_dropped.store(0, std::memory_order_relaxed);
}

void
Profiler::recordSample(std::uint64_t binId, std::uint32_t superBin,
                       unsigned worker, std::uint64_t threads,
                       std::uint64_t dwellNs,
                       std::uint64_t instructions, std::uint64_t cycles,
                       std::uint64_t llcRefs, std::uint64_t llcMisses,
                       bool pmuValid, std::uint32_t epoch)
{
    Store *store = g_store.load(std::memory_order_acquire);
    if (!store)
        return;
    if (epoch == kProfileCurrentEpoch)
        epoch = g_epoch.load(std::memory_order_relaxed);

    g_samples.fetch_add(1, std::memory_order_relaxed);
    if (pmuValid)
        g_pmuSamples.fetch_add(1, std::memory_order_relaxed);
    else
        g_dwellOnly.fetch_add(1, std::memory_order_relaxed);
    const ProfileCounters &counters = profileCounters();
    counters.samples->add();
    (pmuValid ? counters.pmuSamples : counters.dwellOnly)->add();

    WorkerSlot &w =
        store->workers[worker < kMaxWorkers ? worker : kMaxWorkers - 1];
    w.samples.fetch_add(1, std::memory_order_relaxed);
    w.dwellNs.fetch_add(dwellNs, std::memory_order_relaxed);
    w.llcRefs.fetch_add(llcRefs, std::memory_order_relaxed);
    w.llcMisses.fetch_add(llcMisses, std::memory_order_relaxed);
    if (pmuValid)
        w.pmuSamples.fetch_add(1, std::memory_order_relaxed);

    BinSlot *slot = store->find(binId);
    if (!slot) {
        g_dropped.fetch_add(1, std::memory_order_relaxed);
        counters.dropped->add();
        return;
    }
    slot->superBin.store(superBin, std::memory_order_relaxed);
    slot->lastEpoch.store(epoch, std::memory_order_relaxed);
    slot->executions.fetch_add(1, std::memory_order_relaxed);
    slot->threads.fetch_add(threads, std::memory_order_relaxed);
    slot->dwellNs.fetch_add(dwellNs, std::memory_order_relaxed);
    slot->instructions.fetch_add(instructions,
                                 std::memory_order_relaxed);
    slot->cycles.fetch_add(cycles, std::memory_order_relaxed);
    slot->llcRefs.fetch_add(llcRefs, std::memory_order_relaxed);
    slot->llcMisses.fetch_add(llcMisses, std::memory_order_relaxed);
    if (pmuValid)
        slot->pmuSamples.fetch_add(1, std::memory_order_relaxed);

    if (llcRefs) {
        LSCHED_TRACE_EVENT(EventType::BinMissRate, binId, llcMisses,
                           llcRefs);
    }
}

std::vector<BinProfile>
Profiler::binProfiles() const
{
    std::vector<BinProfile> out;
    Store *store = g_store.load(std::memory_order_acquire);
    if (!store)
        return out;
    for (std::size_t i = 0; i < store->capacity; ++i) {
        const BinSlot &s = store->slots[i];
        const std::uint64_t key =
            s.key.load(std::memory_order_acquire);
        if (key == kEmptySlot)
            continue;
        BinProfile p;
        p.binId = key - 1;
        p.superBin = s.superBin.load(std::memory_order_relaxed);
        p.lastEpoch = s.lastEpoch.load(std::memory_order_relaxed);
        p.executions = s.executions.load(std::memory_order_relaxed);
        p.threads = s.threads.load(std::memory_order_relaxed);
        p.dwellNs = s.dwellNs.load(std::memory_order_relaxed);
        p.instructions =
            s.instructions.load(std::memory_order_relaxed);
        p.cycles = s.cycles.load(std::memory_order_relaxed);
        p.llcRefs = s.llcRefs.load(std::memory_order_relaxed);
        p.llcMisses = s.llcMisses.load(std::memory_order_relaxed);
        p.pmuSamples = s.pmuSamples.load(std::memory_order_relaxed);
        out.push_back(p);
    }
    return out;
}

std::vector<BinProfile>
Profiler::superBinProfiles() const
{
    std::unordered_map<std::uint32_t, BinProfile> agg;
    for (const BinProfile &p : binProfiles()) {
        BinProfile &s = agg[p.superBin];
        s.binId = p.superBin;
        s.superBin = p.superBin;
        s.lastEpoch = std::max(s.lastEpoch, p.lastEpoch);
        s.executions += p.executions;
        s.threads += p.threads;
        s.dwellNs += p.dwellNs;
        s.instructions += p.instructions;
        s.cycles += p.cycles;
        s.llcRefs += p.llcRefs;
        s.llcMisses += p.llcMisses;
        s.pmuSamples += p.pmuSamples;
    }
    std::vector<BinProfile> out;
    out.reserve(agg.size());
    for (auto &[id, p] : agg)
        out.push_back(p);
    return out;
}

std::vector<WorkerProfile>
Profiler::workerProfiles() const
{
    std::vector<WorkerProfile> out;
    Store *store = g_store.load(std::memory_order_acquire);
    if (!store)
        return out;
    for (unsigned i = 0; i < kMaxWorkers; ++i) {
        const WorkerSlot &w = store->workers[i];
        const std::uint64_t samples =
            w.samples.load(std::memory_order_relaxed);
        if (!samples)
            continue;
        WorkerProfile p;
        p.worker = i;
        p.samples = samples;
        p.dwellNs = w.dwellNs.load(std::memory_order_relaxed);
        p.llcRefs = w.llcRefs.load(std::memory_order_relaxed);
        p.llcMisses = w.llcMisses.load(std::memory_order_relaxed);
        p.pmuSamples = w.pmuSamples.load(std::memory_order_relaxed);
        out.push_back(p);
    }
    return out;
}

std::uint32_t
Profiler::epoch() const
{
    return g_epoch.load(std::memory_order_relaxed);
}

void
Profiler::noteEpochBegin()
{
    g_epoch.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
Profiler::droppedBins() const
{
    return g_dropped.load(std::memory_order_relaxed);
}

std::uint64_t
Profiler::samples() const
{
    return g_samples.load(std::memory_order_relaxed);
}

std::uint64_t
Profiler::pmuSampleCount() const
{
    return g_pmuSamples.load(std::memory_order_relaxed);
}

std::uint64_t
Profiler::dwellOnlySamples() const
{
    return g_dwellOnly.load(std::memory_order_relaxed);
}

bool
Profiler::pmuUsable() const
{
    return kTraceCompiled && pmuWanted() &&
           perfcount::countersAvailable();
}

void
Profiler::forcePmuUnavailable(bool forced)
{
    g_pmuForcedOff.store(forced, std::memory_order_relaxed);
    g_pmuGeneration.fetch_add(1, std::memory_order_acq_rel);
}

namespace detail
{

ProfileToken
profileBinBeginImpl()
{
    ProfileToken token;
    token.active = true;
    token.t0 = nowNs();
    if (perfcount::PerfCounterGroup *group = currentGroup()) {
        group->start();
        token.pmu = true;
    } else {
        if (pmuWanted())
            warnNoPmuOnce("");
    }
    return token;
}

void
profileBinEndImpl(const ProfileToken &token, std::uint64_t binId,
                  std::uint32_t superBin, std::uint64_t threads,
                  unsigned worker, std::uint32_t epoch)
{
    const std::uint64_t dwell = nowNs() - token.t0;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t llcRefs = 0;
    std::uint64_t llcMisses = 0;
    bool valid = false;
    if (token.pmu && t_sampler.group) {
        const perfcount::PerfSample sample = t_sampler.group->stop();
        if (sample.valid && sample.values.size() == 4) {
            instructions = sample.values[0];
            cycles = sample.values[1];
            llcRefs = sample.values[2];
            llcMisses = sample.values[3];
            valid = true;
        }
    }
    Profiler::global().recordSample(binId, superBin, worker, threads,
                                    dwell, instructions, cycles,
                                    llcRefs, llcMisses, valid, epoch);
}

void
profileWorkerAttachImpl(unsigned)
{
    currentGroup();
}

void
profileNoteEpochImpl()
{
    Profiler::global().noteEpochBegin();
}

} // namespace detail

// ---------------------------------------------------------------------
// --profile CLI plumbing, mirroring the --trace/--metrics hook in
// trace.cc: installed at static-initialization time by this TU (which
// every scheduler-linking binary carries), with an atexit writer for
// the final report.
// ---------------------------------------------------------------------

namespace
{

void
writeProfileAtExit()
{
    const ProfileConfig config = Profiler::global().config();
    Profiler::global().setEnabled(false); // joins the flusher
    SnapshotEngine &engine = SnapshotEngine::global();
    auto emit = [&](const std::string &path) {
        if (path.empty())
            return;
        if (engine.writeReport(path)) {
            std::fprintf(stderr, "(profile written to %s)\n",
                         path.c_str());
        } else {
            std::fprintf(stderr, "(failed to write profile to %s)\n",
                         path.c_str());
        }
    };
    emit(config.output);
    emit(config.omOutput);
}

void
applyCliProfile(const std::string &value)
{
    if (!kTraceCompiled) {
        std::fprintf(stderr, "(--profile ignored; instrumentation "
                             "compiled out)\n");
        return;
    }
    ProfileConfig config = Profiler::global().config();
    if (!(value.empty() || value == "on" || value == "1" ||
          value == "true" || value == "yes")) {
        char *end = nullptr;
        const unsigned long long ms =
            std::strtoull(value.c_str(), &end, 10);
        if (end == value.c_str() || *end != '\0') {
            std::fprintf(stderr,
                         "--profile: '%s' is not an interval in "
                         "milliseconds\n",
                         value.c_str());
            std::exit(2);
        }
        config.intervalMs = ms;
    }
    if (config.output.empty() && config.omOutput.empty())
        config.output = "lsched_profile.jsonl";
    std::string error;
    if (!Profiler::global().configure(config, &error)) {
        std::fprintf(stderr, "--profile: %s\n", error.c_str());
        std::exit(2);
    }
    Profiler::global().setEnabled(true);
    static bool exit_hook_installed = false;
    if (!exit_hook_installed) {
        std::atexit(&writeProfileAtExit);
        exit_hook_installed = true;
    }
}

} // namespace

} // namespace lsched::obs

// Exported so a link option on lsched_obs can name it: binaries that
// never reference this file would otherwise drop it, and with it the
// static initializer that installs the --profile CLI hook.
extern "C" const bool lsched_obs_cli_profile_hook_installed =
    (lsched::setCliProfileHook(&lsched::obs::applyCliProfile), true);
