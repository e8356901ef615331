#include "trace.hh"

#include <cstdio>
#include <cstdlib>

#include "obs/chrome_trace.hh"
#include "obs/metrics.hh"
#include "support/cli.hh"

namespace lsched::obs
{

namespace detail
{
std::atomic<bool> g_traceOn{false};
std::atomic<bool> g_metricsOn{false};
} // namespace detail

void
setTraceEnabled(bool on)
{
    detail::g_traceOn.store(on, std::memory_order_relaxed);
}

void
setMetricsEnabled(bool on)
{
    detail::g_metricsOn.store(on, std::memory_order_relaxed);
}

TraceSession &
TraceSession::global()
{
    // Deliberately leaked: the --trace atexit hook snapshots the
    // session during process teardown, after function-local statics
    // constructed later in main() would already have been destroyed.
    static TraceSession &session = *new TraceSession;
    return session;
}

namespace
{

/** The calling thread's lane, revalidated against clear() epochs. */
struct TlsLaneRef
{
    void *lane = nullptr;
    std::uint64_t generation = 0;
};

thread_local TlsLaneRef t_lane;

} // namespace

TraceSession::Lane &
TraceSession::currentLane()
{
    if (t_lane.lane &&
        t_lane.generation ==
            generation_.load(std::memory_order_acquire))
        return *static_cast<Lane *>(t_lane.lane);
    return registerLane();
}

TraceSession::Lane &
TraceSession::registerLane()
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto id = static_cast<std::uint32_t>(lanes_.size());
    lanes_.push_back(std::make_unique<Lane>(
        id, "thread " + std::to_string(id), laneCapacity_));
    t_lane.lane = lanes_.back().get();
    t_lane.generation = generation_.load(std::memory_order_acquire);
    return *lanes_.back();
}

void
TraceSession::setLaneName(const std::string &name)
{
    Lane &lane = currentLane();
    std::lock_guard<std::mutex> lock(mutex_);
    lane.name = name;
}

void
TraceSession::setLaneCapacity(std::size_t events)
{
    std::lock_guard<std::mutex> lock(mutex_);
    laneCapacity_ = events ? events : 1;
}

std::size_t
TraceSession::laneCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lanes_.size();
}

std::vector<LaneSnapshot>
TraceSession::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<LaneSnapshot> out;
    out.reserve(lanes_.size());
    for (const auto &lane : lanes_) {
        out.push_back({lane->id, lane->name, lane->ring.snapshot(),
                       lane->ring.dropped()});
    }
    return out;
}

void
TraceSession::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    generation_.fetch_add(1, std::memory_order_acq_rel);
    lanes_.clear();
}

// ---------------------------------------------------------------------
// --trace/--metrics CLI plumbing. The hook is installed by a static
// initializer in this translation unit, so any bench or example gets
// the flags without code changes; the files are written at process
// exit. With instrumentation compiled out nothing else may reference
// this file, so the initializer's flag is an extern "C" symbol that
// lsched_obs's link options mark undefined in every binary linking
// it (src/obs/CMakeLists.txt): the linker always keeps this object.
// ---------------------------------------------------------------------

namespace
{

std::string g_tracePath;
std::string g_metricsPath;

void
writeRequestedOutputs()
{
    if (!g_tracePath.empty()) {
        if (writeChromeTrace(g_tracePath)) {
            std::fprintf(stderr, "(trace written to %s%s)\n",
                         g_tracePath.c_str(),
                         kTraceCompiled
                             ? ""
                             : "; instrumentation compiled out");
        } else {
            std::fprintf(stderr, "(failed to write trace to %s)\n",
                         g_tracePath.c_str());
        }
    }
    if (!g_metricsPath.empty()) {
        if (writeMetricsFile(g_metricsPath)) {
            std::fprintf(stderr, "(metrics written to %s)\n",
                         g_metricsPath.c_str());
        } else {
            std::fprintf(stderr, "(failed to write metrics to %s)\n",
                         g_metricsPath.c_str());
        }
    }
}

void
applyCliObs(const std::string &trace_path,
            const std::string &metrics_path)
{
    static bool exit_hook_installed = false;
    if (!trace_path.empty()) {
        g_tracePath = trace_path;
        setTraceEnabled(true);
        setMetricsEnabled(true);
    }
    if (!metrics_path.empty()) {
        g_metricsPath = metrics_path;
        setMetricsEnabled(true);
    }
    if (!exit_hook_installed &&
        (!g_tracePath.empty() || !g_metricsPath.empty())) {
        std::atexit(&writeRequestedOutputs);
        exit_hook_installed = true;
    }
}

} // namespace

} // namespace lsched::obs

extern "C" const bool lsched_obs_cli_hook_installed =
    (lsched::setCliObsHook(&lsched::obs::applyCliObs), true);
