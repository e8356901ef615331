/**
 * @file
 * Typed scheduler trace events.
 *
 * Every event is a fixed-size POD: a nanosecond timestamp, a type tag,
 * and three 64-bit payload words whose meaning depends on the type
 * (documented per enumerator). Events are recorded into per-thread
 * ring buffers (ring_buffer.hh) and rendered by the exporters
 * (chrome_trace.hh), so the hot path never formats strings.
 */

#ifndef LSCHED_OBS_EVENT_HH
#define LSCHED_OBS_EVENT_HH

#include <chrono>
#include <cstdint>

namespace lsched::obs
{

/** What happened. Payload word meaning is (a, b, c). */
enum class EventType : std::uint8_t
{
    /** A thread was forked: (bin id, block coord 0, block coord 1). */
    ThreadFork,
    /** A bin was allocated: (bin id, block coord 0, block coord 1). */
    BinCreate,
    /** A bin's threads start running: (bin id, thread count, 0). */
    BinStart,
    /** A bin finished: (bin id, threads executed, 0). */
    BinEnd,
    /** One user thread starts: (bin id, 0, 0). */
    ThreadStart,
    /** One user thread finished: (bin id, 0, 0). */
    ThreadEnd,
    /** run()/runParallel() entered: (pending threads, bins, workers). */
    RunBegin,
    /** run()/runParallel() returned: (threads executed, 0, 0). */
    RunEnd,
    /**
     * An SMP worker claimed a bin: (bin id, worker whose segment held
     * it, claiming worker id) — the first two differ on a steal.
     */
    WorkerClaimBin,
    /** A user thread faulted and was contained: (bin id, worker, 0). */
    ThreadFault,
    /**
     * The runParallel watchdog saw the deadline pass:
     * (stalled workers, bin id of the first stalled worker, deadline ms).
     */
    WatchdogStall,
    /**
     * An idle worker stole a bin from another worker's segment:
     * (bin id, victim worker, stealing worker).
     */
    StealBin,
    /** A pool worker parked between tours: (worker id, epoch, 0). */
    WorkerPark,
    /**
     * A streaming bin was sealed for draining:
     * (bin id, seal epoch of that bin, threads in the sealed chain).
     */
    StreamSeal,
    /**
     * A streaming producer hit the maxPendingThreads bound:
     * (pending threads at the time, configured bound, 0).
     */
    Backpressure,
    /**
     * A profiling window attributed LLC traffic to a bin:
     * (bin id, LLC misses in the window, LLC references in the window).
     */
    BinMissRate,
    /**
     * The snapshot flusher emitted a snapshot:
     * (snapshot seq, bytes written, flush interval ms).
     */
    SnapshotFlush,
    /**
     * A tour or stream-epoch deadline expired and cancellation was
     * requested: (deadline ms, cancel reason, pending/remaining work).
     */
    DeadlineExpire,
    /**
     * A bin (or its un-run tail) was dropped by a cancellation:
     * (bin id, worker, threads dropped).
     */
    BinCancelled,
    /**
     * A producer exhausted its admission retries at the backpressure
     * bound: (pending threads, configured bound, retries).
     */
    AdmissionTimeout,
    /**
     * The overload governor changed state:
     * (new state, previous state, consecutive-epoch streak).
     */
    RecoveryStep,
    /**
     * The governor shed streaming load by force-sealing every open
     * bin: (bins sealed, pending threads, configured bound).
     */
    LoadShed,
    /**
     * The adaptive placement tuner changed its parameters:
     * (new block bytes, new super-bin fan — or bin count under a
     * round-robin base —, regime after the change (AdaptRegime)).
     */
    AdaptRetune,
};

/** Printable name of an event type. */
inline const char *
eventTypeName(EventType type)
{
    switch (type) {
      case EventType::ThreadFork:     return "ThreadFork";
      case EventType::BinCreate:      return "BinCreate";
      case EventType::BinStart:       return "BinStart";
      case EventType::BinEnd:         return "BinEnd";
      case EventType::ThreadStart:    return "ThreadStart";
      case EventType::ThreadEnd:      return "ThreadEnd";
      case EventType::RunBegin:       return "RunBegin";
      case EventType::RunEnd:         return "RunEnd";
      case EventType::WorkerClaimBin: return "WorkerClaimBin";
      case EventType::ThreadFault:    return "ThreadFault";
      case EventType::WatchdogStall:  return "WatchdogStall";
      case EventType::StealBin:       return "StealBin";
      case EventType::WorkerPark:     return "WorkerPark";
      case EventType::StreamSeal:     return "StreamSeal";
      case EventType::Backpressure:   return "Backpressure";
      case EventType::BinMissRate:    return "BinMissRate";
      case EventType::SnapshotFlush:  return "SnapshotFlush";
      case EventType::DeadlineExpire:  return "DeadlineExpire";
      case EventType::BinCancelled:    return "BinCancelled";
      case EventType::AdmissionTimeout: return "AdmissionTimeout";
      case EventType::RecoveryStep:    return "RecoveryStep";
      case EventType::LoadShed:        return "LoadShed";
      case EventType::AdaptRetune:     return "AdaptRetune";
    }
    return "?";
}

/** One recorded trace event. */
struct Event
{
    /** Timestamp in nanoseconds (steady clock). */
    std::uint64_t ns = 0;
    /** Payload words; meaning depends on type. */
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t c = 0;
    EventType type = EventType::ThreadFork;
};

/** Monotonic timestamp in nanoseconds. */
inline std::uint64_t
nowNs()
{
    const auto t = std::chrono::steady_clock::now().time_since_epoch();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t).count());
}

} // namespace lsched::obs

#endif // LSCHED_OBS_EVENT_HH
