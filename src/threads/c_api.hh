/**
 * @file
 * The paper's user interface, verbatim (Section 3.1):
 *
 *   th_init(blocksize, hashsize)  — set block size and hash table
 *       size; may be called more than once; 0 selects the
 *       configuration-dependent default.
 *   th_fork(f, arg1, arg2, hint1, hint2, hint3) — create and schedule
 *       a thread to call f(arg1, arg2); hints are memory addresses;
 *       hint3 == 0 gives the two-dimensional case, hint2 == hint3 == 0
 *       the one-dimensional case.
 *   th_run(keep) — run all scheduled threads and return; thread
 *       specifications are destroyed if keep is 0, saved for
 *       re-execution otherwise.
 *
 * The functions return no values; there are no thread handles and no
 * per-thread operations. State lives in one process-global scheduler;
 * th_default_scheduler() exposes it for inspection and statistics.
 *
 * Beyond the paper's surface, configuration goes through one
 * string-keyed pair — th_configure(key, value) / th_config_get() —
 * that reaches every SchedulerConfig knob (th_init sets two of them
 * directly, the Fortran selectors are shims over it), and
 * th_stream_begin()/th_stream_end() open a streaming admission
 * session in which th_fork is safe from any OS thread while sealed
 * bins drain concurrently.
 *
 * Error model at this boundary: C callers cannot catch C++
 * exceptions, so every recoverable error (bad configuration, API
 * misuse, a StopTour fault, an injected allocation failure) is caught
 * here, recorded per-thread, and reported through th_last_error();
 * an optional process-wide handler (th_set_error_handler) is invoked
 * at the point of failure. Library invariant violations still
 * panic/abort.
 */

#ifndef LSCHED_THREADS_C_API_HH
#define LSCHED_THREADS_C_API_HH

#include <cstddef>

#include "threads/scheduler.hh"

/**
 * Set block size and hash table size (0 = default) — the config keys
 * block_bytes and hash_buckets in one reconfiguration. Errors are
 * reported through th_last_error().
 */
void th_init(std::size_t blocksize, std::size_t hashsize);

/** Create and schedule a thread to call f(arg1, arg2). */
void th_fork(void (*f)(void *, void *), void *arg1, void *arg2,
             const void *hint1, const void *hint2, const void *hint3);

/** Run all scheduled threads; keep != 0 preserves them for re-runs. */
void th_run(int keep);

/**
 * Run all scheduled threads across @p workers CPUs (Section 7);
 * workers == 0 uses the hardware concurrency, workers <= 1 falls back
 * to the serial th_run. The worker pool persists between calls (see
 * SchedulerConfig::backend), so repeat tours pay no thread creation
 * cost.
 */
void th_run_parallel(int workers, int keep);

/** The global scheduler behind the C interface. */
lsched::threads::LocalityScheduler &th_default_scheduler();

extern "C" {

/**
 * Snapshot of the global scheduler's occupancy statistics, as a plain
 * C struct so C and Fortran callers can report the paper's
 * threads-per-bin numbers without touching the C++ types.
 *
 * ABI rule: this struct is append-only. New fields go at the END,
 * never between existing ones and never replacing them, so a caller
 * compiled against an older header keeps reading the offsets it knows
 * about from the (larger) struct a newer library returns by value.
 * The Fortran mirror th_stats_() indexes the same fields in the same
 * order; extend both together.
 *
 * FROZEN (v1): after five releases of appended fields this struct is
 * the legacy snapshot — it keeps working exactly as documented, but
 * no further fields will be added. New and future counters are
 * published through the named-metric surface instead:
 * th_metric_count() / th_metric_name() / th_metric_get().
 */
typedef struct th_stats_t
{
    unsigned long long pending_threads;
    unsigned long long executed_threads;
    unsigned long long bins;
    unsigned long long occupied_bins;
    unsigned long long max_hash_chain;
    unsigned long long tour_length;
    /** Parallel worker pool: OS threads ever spawned, bins stolen
     *  across segments, and worker park episodes (th_run_parallel). */
    unsigned long long pool_threads_spawned;
    unsigned long long pool_steals;
    unsigned long long pool_parks;
    /** Active placement policy: 0 blockhash, 1 roundrobin,
     *  2 hierarchical, 3 adaptive (config key "placement"). */
    int placement;
    /** Active execution backend: 0 serial, 1 pooled (config key
     *  "backend"). */
    int backend;
    /** Distribution over non-empty bins; all 0 when no bin is. */
    double threads_per_bin_mean;
    double threads_per_bin_min;
    double threads_per_bin_max;
    double threads_per_bin_stddev;
    /* -- appended fields below; see the ABI rule above -- */
    /** User threads whose exception was contained (lifetime). */
    unsigned long long faulted_threads;
    /** Faults contained by the most recent run/stream (total, not
     *  just the collected sample). */
    unsigned long long last_fault_count;
    /** Streaming admission (th_stream_begin/th_stream_end): threads
     *  admitted, threads drained, sealed-bin work items produced. */
    unsigned long long stream_forked;
    unsigned long long stream_executed;
    unsigned long long stream_seals;
    /** Producer blocks at the stream_max_pending bound, and sealed
     *  bins producers drained inline instead of blocking. */
    unsigned long long stream_backpressure_waits;
    unsigned long long stream_inline_drains;
    /** Live stream backlog (tickets not yet retired, gate waiters
     *  included) and the highest admitted backlog. */
    unsigned long long stream_backlog;
    unsigned long long stream_peak_backlog;
    /** Recovery layer (threads/recovery.hh): deadline expiries and
     *  watchdog-escalated cancellations (lifetime). */
    unsigned long long recover_deadlines;
    unsigned long long recover_watchdog_cancels;
    /** Bins and threads dropped by cooperative cancellation. */
    unsigned long long recover_cancelled_bins;
    unsigned long long recover_cancelled_threads;
    /** Streaming admission backoff rounds that made no progress, and
     *  admissions that exhausted stream_admit_retries. */
    unsigned long long recover_admission_retries;
    unsigned long long recover_admission_timeouts;
    /** Overload governor: load-shedding episodes (force-sealed stream
     *  bins), tours stepped down to the serial path, and completed
     *  Degraded -> Recovered transitions. */
    unsigned long long recover_load_sheds;
    unsigned long long recover_degraded_tours;
    unsigned long long recover_recoveries;
    /** Governor state now: 0 healthy, 1 backoff, 2 degraded,
     *  3 recovered. */
    int recover_state;
    /** Adaptive placement (placement "adaptive"): parameter swaps
     *  applied and profiler epochs consumed; 0 when not adaptive. */
    unsigned long long adapt_retunes;
    unsigned long long adapt_observations;
    /** Block dims / super-bin fan currently in force (adaptive). */
    unsigned long long adapt_block_bytes;
    unsigned long long adapt_super_bin_fan;
    /** Tuner regime: 0 warmup, 1 floor, 2 neutral, 3 capacity,
     *  4 probing (dwell-only probe in flight). */
    int adapt_regime;
    /** Workers whose CPU-affinity pin failed (they run unpinned), and
     *  pool steals that crossed a cache-domain boundary under
     *  topology-aware placement. */
    unsigned long long pool_pin_failed;
    unsigned long long pool_cross_domain_steals;
} th_stats_t;

/** Statistics of the scheduler behind th_fork/th_run. */
th_stats_t th_stats(void);

/**
 * Snapshot of the cache topology driving the global scheduler's
 * placement (the "topology" config key; threads/scheduler.hh's
 * TopologySnapshot). Append-only like th_stats_t. All counts are zero
 * when placement is flat — topology "flat", or "auto" on a host whose
 * sysfs exposes no cache tree.
 */
typedef struct th_topology_t
{
    /** 1 when a cache tree is active, 0 for flat placement. */
    int active;
    /** Where the tree came from: 0 flat, 1 sysfs, 2 spec string. */
    int source;
    unsigned packages;
    unsigned l3_clusters;
    unsigned l2_groups;
    unsigned cpus;
    unsigned smt_per_core;
    unsigned long long l2_bytes;
    unsigned long long l3_bytes;
    /** super_bin_fan the tree derives when that knob is left 0. */
    unsigned long long derived_fan;
    /** Cache-domain teams of the most recent parallel tour (0 until a
     *  topology-partitioned tour has run). */
    unsigned domains;
    unsigned domain_workers;
} th_topology_t;

/** Topology snapshot of the scheduler behind th_fork/th_run. */
th_topology_t th_topology(void);

/**
 * Write the human-readable one-line topology summary (source, shape,
 * cache sizes) into @p buf, NUL-terminated and truncated to @p len
 * bytes. Returns the full summary length (excluding the NUL, à la
 * snprintf), or -1 on NULL buf with len > 0.
 */
int th_topology_summary(char *buf, std::size_t len);

/**
 * The unified configuration surface: set one scheduler config knob by
 * its string key ("placement", "backend", "on_error",
 * "stream_max_pending", ... — every SchedulerConfig field in
 * snake_case; see threads/config_keys.hh for the table and README for
 * the key list).
 * Reconfigures the global scheduler like th_init, so it requires no
 * threads pending or running. Returns 0 on success, -1 on an unknown
 * key, an unparsable value, or a rejected reconfiguration (the reason
 * lands in th_last_error()). The Fortran selectors
 * (th_set_placement_, th_set_backend_, th_set_deadline_) are thin
 * shims over this call.
 */
int th_configure(const char *key, const char *value);

/**
 * Read one config knob back. Writes the value (formatted so feeding
 * it to th_configure reproduces the setting) into @p buf,
 * NUL-terminated and truncated to @p len bytes. Returns the full
 * value length (excluding the NUL, à la snprintf) so callers can size
 * a retry, or -1 on an unknown key or NULL buf with len > 0.
 */
int th_config_get(const char *key, char *buf, std::size_t len);

/**
 * Number of configuration keys th_configure understands
 * (the "profile.*" family included), so clients can discover the
 * surface programmatically instead of hard-coding the key list.
 * Enumerate them with th_config_key().
 */
int th_config_keys(void);

/**
 * Write the name of configuration key @p index
 * (0 <= index < th_config_keys(), documentation order) into @p buf,
 * NUL-terminated and truncated to @p len bytes. Returns the full name
 * length (excluding the NUL, à la snprintf), or -1 on an
 * out-of-range index or NULL buf with len > 0.
 */
int th_config_key(int index, char *buf, std::size_t len);

/**
 * Named-metric surface — the replacement for growing th_stats_t
 * (which is frozen as the v1 snapshot; no new fields will be
 * appended). Every scheduler statistic (threads/stat_fields.hh, the
 * README "Scheduler metrics" table), each th_stats_t field among them,
 * is read by name from the default scheduler's stats()
 * ("sched.executed_threads", "sched.stream.backlog", ...), metrics
 * collection on or off; the fork, run and bin-creation totals
 * ("sched.forked_threads", "sched.runs", "sched.bins.created") are
 * rows too. Merged in are the obs registry's instruments that are
 * live when metrics collection is on: the scheduler's per-bin and
 * per-tour histograms as name.count / name.sum ("sched.bin.threads",
 * "sched.bin.dwell_ns", "sched.tour.hop_distance") and the cache
 * simulator's gauges.
 *
 * Number of metrics currently visible. Enumerate with
 * th_metric_name(); read with th_metric_get(). The count (and the
 * index order) can change when instruments appear — e.g. after the
 * first traced run — so enumerate by name, not by cached index.
 */
int th_metric_count(void);

/**
 * Write the name of metric @p index (0 <= index < th_metric_count())
 * into @p buf, NUL-terminated and truncated to @p len bytes. Returns
 * the full name length (excluding the NUL, à la snprintf), or -1 on
 * an out-of-range index or NULL buf with len > 0.
 */
int th_metric_name(int index, char *buf, std::size_t len);

/**
 * Read one metric by name into @p value (counters and integer gauges
 * verbatim; floating-point gauges rounded to the nearest integer).
 * Returns 0 on success, -1 on an unknown name or NULL argument (the
 * reason lands in th_last_error()).
 */
int th_metric_get(const char *name, unsigned long long *value);

/**
 * Begin a streaming admission session on the global scheduler
 * (LocalityScheduler::streamBegin): th_fork becomes safe from any OS
 * thread, and sealed bins are drained concurrently while producers
 * keep forking. @p workers is the drain-helper count (0 = hardware
 * concurrency; ignored by the serial backend, which drains inline).
 * Returns 0 on success, -1 on error (threads already pending, a run
 * in progress, or a stream already open).
 */
int th_stream_begin(int workers);

/**
 * End the streaming session: seal every open bin, drain to empty,
 * and tear the session down. Returns the number of threads executed
 * by the whole stream, or -1 on error (no stream open, or a fault
 * under ErrorPolicy::Abort/StopTour — the message lands in
 * th_last_error()).
 */
long long th_stream_end(void);

/**
 * Enable continuous profiling (per-bin/per-worker PMU and dwell
 * attribution; obs/profile.hh). @p interval_ms > 0 also starts the
 * background snapshot flusher at that period; 0 keeps snapshots
 * manual (th_profile_snapshot / th_profile_report). Sinks and the
 * other knobs come from the profile.* config keys (th_configure).
 * Returns 0 on success, -1 when instrumentation is compiled out or
 * interval_ms is negative (the reason lands in th_last_error()).
 */
int th_profile_enable(long long interval_ms);

/** Stop profiling (and the snapshot flusher); data is kept for
 *  th_profile_report. */
void th_profile_disable(void);

/**
 * Take one snapshot into the engine's ring now. Returns its sequence
 * number, or -1 when profiling was never enabled (nothing to attribute)
 * or instrumentation is compiled out.
 */
long long th_profile_snapshot(void);

/**
 * Take a final snapshot and write a profiling report to @p path:
 * ".om"/".prom"/".txt" get OpenMetrics text, anything else JSONL of
 * the snapshot ring; "fd:N" writes JSONL to a file descriptor.
 * Returns 0 on success, -1 on a NULL path, I/O error, or when
 * instrumentation is compiled out.
 */
int th_profile_report(const char *path);

/** Turn event tracing and metrics collection on. */
void th_trace_enable(void);

/** Turn event tracing and metrics collection off. */
void th_trace_disable(void);

/**
 * Write the recorded event timeline as Chrome trace-event JSON
 * (load with Perfetto / chrome://tracing). Returns 0 on success,
 * -1 on I/O error or when tracing is compiled out.
 */
int th_trace_write(const char *path);

/**
 * Write the metrics registry to @p path (.json / .csv by extension,
 * text otherwise). Returns 0 on success, -1 on error.
 */
int th_metrics_write(const char *path);

/**
 * Message of the last recoverable error hit by the calling thread in
 * a th_* call, or NULL when none since the last th_clear_error().
 * The storage is thread-local and overwritten by the next error.
 */
const char *th_last_error(void);

/** Forget the calling thread's last error. */
void th_clear_error(void);

/**
 * Error handler hook: called (from the failing thread, at the point
 * of failure) with the message and @p user for every recoverable
 * error a th_* call contains. Pass NULL to remove. One process-wide
 * handler; th_last_error() works with or without it.
 */
typedef void (*th_error_handler_t)(const char *message, void *user);
void th_set_error_handler(th_error_handler_t handler, void *user);

/**
 * Arm the named fail point with a spec ("always", "once", "hit=N",
 * "every=N", "prob=P@seed", "off" — see support/failpoint.hh).
 * Returns 0 on success, -1 on a malformed spec or when fail points
 * are compiled out (the reason lands in th_last_error()).
 */
int th_failpoint_arm(const char *name, const char *spec);

/** Disarm one fail point (no-op when not armed). */
void th_failpoint_disarm(const char *name);

/** Disarm every fail point. */
void th_failpoint_disarm_all(void);

} // extern "C"

// Fortran-callable bindings (the paper's package shipped both C and
// Fortran interfaces). Fortran passes every argument by reference and
// appends a trailing underscore to external names; hints arrive as
// array elements, whose addresses are exactly the hint values.
extern "C" {

/** Fortran: CALL TH_INIT(BLOCKSIZE, HASHSIZE) — 0 selects defaults. */
void th_init_(const long *blocksize, const long *hashsize);

/**
 * Fortran: CALL TH_FORK(F, ARG1, ARG2, HINT1, HINT2, HINT3) — F is an
 * EXTERNAL subroutine taking two by-reference arguments; HINTn are
 * array elements (their addresses are the hints).
 */
void th_fork_(void (*f)(void *, void *), void *arg1, void *arg2,
              const void *hint1, const void *hint2, const void *hint3);

/** Fortran: CALL TH_RUN(KEEP). */
void th_run_(const int *keep);

/** Fortran: CALL TH_RUN_PARALLEL(WORKERS, KEEP). */
void th_run_parallel_(const int *workers, const int *keep);

/** Fortran: CALL TH_SET_PLACEMENT(KIND) — 0 blockhash, 1 roundrobin,
 *  2 hierarchical, 3 adaptive (numeric, avoiding Fortran hidden
 *  string lengths). */
void th_set_placement_(const int *kind);

/** Fortran: CALL TH_SET_BACKEND(KIND) — 0 serial, 1 pooled. */
void th_set_backend_(const int *kind);

/** Fortran: CALL TH_SET_DEADLINE(MILLIS) — MILLIS is INTEGER*8;
 *  0 disarms (config key "deadline_millis"; see
 *  SchedulerConfig::deadlineMillis). */
void th_set_deadline_(const long long *millis);

/** Fortran: CALL TH_STREAM_BEGIN(WORKERS) — see th_stream_begin. */
void th_stream_begin_(const int *workers);

/** Fortran: CALL TH_STREAM_END(EXECUTED) — EXECUTED receives the
 *  thread count, or -1 on error (INTEGER*8). */
void th_stream_end_(long long *executed);

/** Fortran: CALL TH_PROFILE_ENABLE(INTERVAL_MS, STATUS) — STATUS
 *  receives 0 or -1 (see th_profile_enable). */
void th_profile_enable_(const int *interval_ms, int *status);

/** Fortran: CALL TH_PROFILE_DISABLE(). */
void th_profile_disable_(void);

/** Fortran: CALL TH_PROFILE_SNAPSHOT(SEQ) — SEQ (INTEGER*8) receives
 *  the snapshot sequence number, or -1. */
void th_profile_snapshot_(long long *seq);

/**
 * Fortran: CALL TH_PROFILE_REPORT(STATUS) — writes the report to the
 * configured profile.output path ("lsched_profile.jsonl" when unset);
 * STATUS receives 0 or -1. Numeric-only, like every Fortran shim
 * (no hidden string lengths).
 */
void th_profile_report_(int *status);

/**
 * Fortran: CALL TH_STATS(VALUES, COUNT) — numeric mirror of
 * th_stats(): VALUES is an INTEGER*8 array of capacity COUNT, filled
 * with the th_stats_t fields in declaration order (doubles rounded to
 * the nearest integer), then COUNT-capped. Like the struct, the order
 * is append-only, so an index that works keeps working.
 */
void th_stats_(long long *values, const int *count);

/**
 * Fortran: CALL TH_METRIC_COUNT(COUNT) — COUNT (INTEGER) receives
 * th_metric_count().
 */
void th_metric_count_(int *count);

/**
 * Fortran: CALL TH_METRIC_VALUE(INDEX, VALUE) — VALUE (INTEGER*8)
 * receives the value of metric INDEX (0-based, th_metric_name order),
 * or -1 on an out-of-range index. Numeric-only, like every Fortran
 * shim (no hidden string lengths); resolve names on the C side when
 * needed.
 */
void th_metric_value_(const int *index, long long *value);

/**
 * Fortran: CALL TH_TOPOLOGY(VALUES, COUNT) — numeric mirror of
 * th_topology(): VALUES is an INTEGER*8 array of capacity COUNT,
 * filled with the th_topology_t fields in declaration order, then
 * COUNT-capped. Append-only, like every stats shim.
 */
void th_topology_(long long *values, const int *count);

} // extern "C"

#endif // LSCHED_THREADS_C_API_HH
