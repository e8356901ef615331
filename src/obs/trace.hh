/**
 * @file
 * The process-wide trace session: per-thread event lanes behind a
 * two-level on/off gate.
 *
 * Gating:
 *  - compile time: the LSCHED_TRACE_ENABLED CMake option (default ON)
 *    defines the macro of the same name; when 0, traceOn()/metricsOn()
 *    are constant-false and every instrumentation site dead-codes
 *    away, so a disabled build pays literally nothing;
 *  - run time: setTraceEnabled()/setMetricsEnabled() flip process
 *    atomics; with instrumentation compiled in but switched off, a
 *    site costs one relaxed load and a predictable branch.
 *
 * Recording: each thread lazily registers a lane (an EventRing plus a
 * name) with the global session on its first event. Lanes are owned by
 * the session and survive thread exit, so the SMP workers' timelines
 * are still there to export after runParallel() joins them. Lane
 * writes are single-writer lock-free; the registration slow path takes
 * a mutex once per thread (per clear() generation).
 */

#ifndef LSCHED_OBS_TRACE_HH
#define LSCHED_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/event.hh"
#include "obs/ring_buffer.hh"

#ifndef LSCHED_TRACE_ENABLED
#define LSCHED_TRACE_ENABLED 1
#endif

namespace lsched::obs
{

/** True when instrumentation is compiled into this build. */
constexpr bool kTraceCompiled = LSCHED_TRACE_ENABLED != 0;

namespace detail
{
extern std::atomic<bool> g_traceOn;
extern std::atomic<bool> g_metricsOn;
} // namespace detail

/** Is event tracing live right now? Hot-path check. */
inline bool
traceOn()
{
#if LSCHED_TRACE_ENABLED
    return detail::g_traceOn.load(std::memory_order_relaxed);
#else
    return false;
#endif
}

/** Is counter/histogram publishing live right now? Hot-path check. */
inline bool
metricsOn()
{
#if LSCHED_TRACE_ENABLED
    return detail::g_metricsOn.load(std::memory_order_relaxed);
#else
    return false;
#endif
}

/** Turn event tracing on or off at run time. */
void setTraceEnabled(bool on);

/** Turn metrics publishing on or off at run time. */
void setMetricsEnabled(bool on);

/** One thread's exported timeline. */
struct LaneSnapshot
{
    std::uint32_t id = 0;
    std::string name;
    std::vector<Event> events;
    std::uint64_t dropped = 0;
};

/** The per-process collection of trace lanes. */
class TraceSession
{
  public:
    /** Default events retained per lane (per thread). */
    static constexpr std::size_t kDefaultLaneCapacity = 1 << 16;

    /** The session every instrumentation site records into. */
    static TraceSession &global();

    TraceSession() = default;
    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    /** Record one event into the calling thread's lane. */
    void
    record(EventType type, std::uint64_t a = 0, std::uint64_t b = 0,
           std::uint64_t c = 0)
    {
        currentLane().ring.push(Event{nowNs(), a, b, c, type});
    }

    /** Name the calling thread's lane (registers it if needed). */
    void setLaneName(const std::string &name);

    /** Ring capacity for lanes registered after this call. */
    void setLaneCapacity(std::size_t events);

    /** Lanes registered so far. */
    std::size_t laneCount() const;

    /**
     * Copy every lane's retained events. Call after traced threads
     * have quiesced (run() returned, workers joined) for exact data.
     */
    std::vector<LaneSnapshot> snapshot() const;

    /**
     * Drop all lanes and start a new registration generation. Only
     * legal while no traced code is running (lanes are freed).
     */
    void clear();

  private:
    struct Lane
    {
        Lane(std::uint32_t id_, std::string name_, std::size_t capacity)
            : id(id_), name(std::move(name_)), ring(capacity)
        {
        }

        std::uint32_t id;
        std::string name;
        EventRing ring;
    };

    Lane &currentLane();
    Lane &registerLane();

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Lane>> lanes_;
    std::atomic<std::uint64_t> generation_{1};
    std::size_t laneCapacity_ = kDefaultLaneCapacity;
};

/**
 * Instrumentation macro for one-off sites: compiles to nothing when
 * tracing is compiled out, and to a relaxed load + branch when
 * runtime-disabled. Loops should instead hoist `obs::traceOn()` into
 * a local (constant-false when compiled out) and call
 * `TraceSession::global().record(...)` under it.
 */
#if LSCHED_TRACE_ENABLED
#define LSCHED_TRACE_EVENT(...)                                        \
    do {                                                               \
        if (lsched::obs::traceOn())                                    \
            lsched::obs::TraceSession::global().record(__VA_ARGS__);   \
    } while (0)
#else
#define LSCHED_TRACE_EVENT(...) ((void)0)
#endif

} // namespace lsched::obs

#endif // LSCHED_OBS_TRACE_HH
