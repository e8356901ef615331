#include "c_api.hh"

#include <cstring>
#include <map>
#include <mutex>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "obs/chrome_trace.hh"
#include "obs/metrics.hh"
#include "obs/profile.hh"
#include "obs/registry.hh"
#include "obs/snapshot.hh"
#include "obs/trace.hh"
#include "support/error.hh"
#include "support/failpoint.hh"
#include "threads/config_keys.hh"
#include "threads/stat_fields.hh"

namespace
{

/** Lazily constructed global scheduler. */
lsched::threads::LocalityScheduler &
instance()
{
    static lsched::threads::LocalityScheduler scheduler;
    return scheduler;
}

thread_local std::string t_lastError;
thread_local bool t_hasError = false;

std::mutex g_handlerMutex;
th_error_handler_t g_handler = nullptr;
void *g_handlerUser = nullptr;

void
recordError(std::string message)
{
    t_lastError = std::move(message);
    t_hasError = true;
    th_error_handler_t handler;
    void *user;
    {
        std::lock_guard<std::mutex> lock(g_handlerMutex);
        handler = g_handler;
        user = g_handlerUser;
    }
    if (handler)
        handler(t_lastError.c_str(), user);
}

/**
 * Run @p fn, translating every exception a th_* call can legally
 * produce into a recorded error. Exceptions here are always
 * recoverable by construction — panics abort before unwinding.
 */
template <typename Fn>
bool
guarded(Fn &&fn)
{
    try {
        fn();
        return true;
    } catch (const std::bad_alloc &) {
        recordError("out of memory");
    } catch (const std::exception &e) {
        recordError(e.what());
    } catch (...) {
        recordError("unknown error");
    }
    return false;
}

/**
 * Copy @p value into the caller's buffer with the th_config_get
 * protocol: truncate to len-1, always NUL-terminate when len > 0,
 * return the full (untruncated) length.
 */
int
copyOut(const std::string &value, char *buf, std::size_t len)
{
    if (len > 0) {
        const std::size_t n =
            value.size() < len - 1 ? value.size() : len - 1;
        std::memcpy(buf, value.data(), n);
        buf[n] = '\0';
    }
    return static_cast<int>(value.size());
}

/**
 * The merged name -> value table behind th_metric_*, sorted by name:
 * every obs Registry instrument (counters and gauges under their own
 * names, histograms flattened to name.count / name.sum), then every
 * statistics row (threads/stat_fields.hh) read from one stats()
 * snapshot of the default scheduler. The registry holds no copy of a
 * statistic, only the gauge of whichever scheduler published last, so
 * the default scheduler's row takes the name. The rows exist even
 * with metrics disabled or compiled out, so this surface is never
 * weaker than th_stats_t.
 */
std::vector<std::pair<std::string, unsigned long long>>
metricTable()
{
    std::map<std::string, unsigned long long> table;
    for (const lsched::obs::Registry::Row &row :
         lsched::obs::Registry::global().rows()) {
        if (row.kind == "histogram") {
            table[row.name + ".count"] = row.value;
            table[row.name + ".sum"] = row.sum;
        } else {
            table[row.name] = row.value;
        }
    }
    const lsched::threads::SchedulerStats s = instance().stats();
    for (const lsched::threads::StatField &field :
         lsched::threads::statFields())
        table[field.name] = field.value(s, instance().config());
    return {table.begin(), table.end()};
}

} // namespace

lsched::threads::LocalityScheduler &
th_default_scheduler()
{
    return instance();
}

void
th_init(std::size_t blocksize, std::size_t hashsize)
{
    // One reconfiguration setting both fields (0 selects the default
    // for either size).
    guarded([&] {
        lsched::threads::SchedulerConfig config = instance().config();
        config.blockBytes = blocksize;
        config.hashBuckets = hashsize;
        instance().configure(config);
    });
}

void
th_fork(void (*f)(void *, void *), void *arg1, void *arg2,
        const void *hint1, const void *hint2, const void *hint3)
{
    if (!f) {
        // The C++ API treats a null body as a library-invariant panic;
        // at the C boundary it is a reportable caller error.
        recordError("th_fork: NULL thread function");
        return;
    }
    guarded([&] {
        instance().fork(f, arg1, arg2, lsched::threads::hintOf(hint1),
                        lsched::threads::hintOf(hint2),
                        lsched::threads::hintOf(hint3));
    });
}

void
th_run(int keep)
{
    guarded([&] { instance().run(keep != 0); });
}

void
th_run_parallel(int workers, int keep)
{
    guarded([&] {
        instance().runParallel(
            workers < 0 ? 0u : static_cast<unsigned>(workers),
            keep != 0);
    });
}

extern "C" {

th_stats_t
th_stats(void)
{
    const lsched::threads::SchedulerStats s = instance().stats();
    th_stats_t out{};
    for (const lsched::threads::StatField &field :
         lsched::threads::statFields()) {
        if (field.fill)
            field.fill(out, s, instance().config());
    }
    return out;
}

th_topology_t
th_topology(void)
{
    const lsched::threads::TopologySnapshot t =
        instance().stats().topology;
    th_topology_t out;
    out.active = t.active ? 1 : 0;
    out.source = static_cast<int>(t.source);
    out.packages = t.packages;
    out.l3_clusters = t.l3Clusters;
    out.l2_groups = t.l2Groups;
    out.cpus = t.cpus;
    out.smt_per_core = t.smtPerCore;
    out.l2_bytes = t.l2Bytes;
    out.l3_bytes = t.l3Bytes;
    out.derived_fan = t.derivedFan;
    out.domains = t.domains;
    out.domain_workers = t.domainWorkers;
    return out;
}

int
th_topology_summary(char *buf, std::size_t len)
{
    if (!buf && len > 0) {
        recordError("th_topology_summary: NULL buffer");
        return -1;
    }
    const std::string summary = instance().stats().topology.summary;
    if (len > 0) {
        const std::size_t n =
            summary.size() < len - 1 ? summary.size() : len - 1;
        std::memcpy(buf, summary.data(), n);
        buf[n] = '\0';
    }
    return static_cast<int>(summary.size());
}

int
th_configure(const char *key, const char *value)
{
    if (!key || !value) {
        recordError("th_configure: NULL key or value");
        return -1;
    }
    return guarded([&] {
               lsched::threads::SchedulerConfig config =
                   instance().config();
               std::string error;
               if (!lsched::threads::applyConfigKey(config, key, value,
                                                    &error)) {
                   throw lsched::ConfigError("th_configure: " +
                                                      error);
               }
               instance().configure(config);
           })
               ? 0
               : -1;
}

int
th_config_get(const char *key, char *buf, std::size_t len)
{
    if (!key || (!buf && len > 0)) {
        recordError("th_config_get: NULL key or buffer");
        return -1;
    }
    std::string value;
    if (!lsched::threads::configKeyValue(instance().config(), key,
                                         &value)) {
        recordError(std::string("th_config_get: unknown config key '") +
                    key + "'");
        return -1;
    }
    if (len > 0) {
        const std::size_t n = value.size() < len - 1 ? value.size()
                                                     : len - 1;
        std::memcpy(buf, value.data(), n);
        buf[n] = '\0';
    }
    return static_cast<int>(value.size());
}

int
th_config_keys(void)
{
    return static_cast<int>(lsched::threads::configKeys().size());
}

int
th_config_key(int index, char *buf, std::size_t len)
{
    if (!buf && len > 0) {
        recordError("th_config_key: NULL buffer");
        return -1;
    }
    const std::vector<std::string> &keys =
        lsched::threads::configKeys();
    if (index < 0 || index >= static_cast<int>(keys.size())) {
        recordError("th_config_key: index " + std::to_string(index) +
                    " out of range [0, " +
                    std::to_string(keys.size()) + ")");
        return -1;
    }
    return copyOut(keys[static_cast<std::size_t>(index)], buf, len);
}

int
th_metric_count(void)
{
    int count = -1;
    guarded([&] {
        count = static_cast<int>(metricTable().size());
    });
    return count;
}

int
th_metric_name(int index, char *buf, std::size_t len)
{
    if (!buf && len > 0) {
        recordError("th_metric_name: NULL buffer");
        return -1;
    }
    int size = -1;
    if (!guarded([&] {
            const auto table = metricTable();
            if (index < 0 ||
                index >= static_cast<int>(table.size())) {
                throw lsched::ConfigError(
                    "th_metric_name: index " + std::to_string(index) +
                    " out of range [0, " +
                    std::to_string(table.size()) + ")");
            }
            size = copyOut(table[static_cast<std::size_t>(index)].first,
                           buf, len);
        }))
        return -1;
    return size;
}

int
th_metric_get(const char *name, unsigned long long *value)
{
    if (!name || !value) {
        recordError("th_metric_get: NULL name or value");
        return -1;
    }
    return guarded([&] {
               const auto table = metricTable();
               const std::string key(name);
               // The table is sorted by name; binary search.
               std::size_t lo = 0, hi = table.size();
               while (lo < hi) {
                   const std::size_t mid = lo + (hi - lo) / 2;
                   if (table[mid].first < key)
                       lo = mid + 1;
                   else
                       hi = mid;
               }
               if (lo == table.size() || table[lo].first != key) {
                   throw lsched::ConfigError(
                       std::string(
                           "th_metric_get: unknown metric '") +
                       name + "'");
               }
               *value = table[lo].second;
           })
               ? 0
               : -1;
}

int
th_stream_begin(int workers)
{
    return guarded([&] {
               instance().streamBegin(
                   workers < 0 ? 0u : static_cast<unsigned>(workers));
           })
               ? 0
               : -1;
}

long long
th_stream_end(void)
{
    long long executed = -1;
    guarded([&] {
        executed = static_cast<long long>(instance().streamEnd());
    });
    return executed;
}

int
th_profile_enable(long long interval_ms)
{
    if (!lsched::obs::kTraceCompiled) {
        recordError("th_profile_enable: instrumentation compiled out "
                    "(LSCHED_TRACE_ENABLED=OFF)");
        return -1;
    }
    if (interval_ms < 0) {
        recordError("th_profile_enable: negative interval");
        return -1;
    }
    lsched::obs::Profiler &profiler = lsched::obs::Profiler::global();
    lsched::obs::ProfileConfig config = profiler.config();
    config.intervalMs = static_cast<std::uint64_t>(interval_ms);
    std::string error;
    if (!profiler.configure(config, &error)) {
        recordError("th_profile_enable: " + error);
        return -1;
    }
    return profiler.setEnabled(true) ? 0 : -1;
}

void
th_profile_disable(void)
{
    lsched::obs::Profiler::global().setEnabled(false);
}

long long
th_profile_snapshot(void)
{
    if (!lsched::obs::Profiler::global().enabled())
        return -1;
    return static_cast<long long>(
        lsched::obs::SnapshotEngine::global().take().seq);
}

int
th_profile_report(const char *path)
{
    if (!path) {
        recordError("th_profile_report: NULL path");
        return -1;
    }
    if (!lsched::obs::kTraceCompiled) {
        recordError("th_profile_report: instrumentation compiled out");
        return -1;
    }
    if (!lsched::obs::SnapshotEngine::global().writeReport(path)) {
        recordError(std::string("th_profile_report: cannot write '") +
                    path + "'");
        return -1;
    }
    return 0;
}

void
th_trace_enable(void)
{
    lsched::obs::setTraceEnabled(true);
    lsched::obs::setMetricsEnabled(true);
}

void
th_trace_disable(void)
{
    lsched::obs::setTraceEnabled(false);
    lsched::obs::setMetricsEnabled(false);
}

int
th_trace_write(const char *path)
{
    if (!path || !lsched::obs::kTraceCompiled)
        return -1;
    return lsched::obs::writeChromeTrace(path) ? 0 : -1;
}

int
th_metrics_write(const char *path)
{
    if (!path)
        return -1;
    return lsched::obs::writeMetricsFile(path) ? 0 : -1;
}

const char *
th_last_error(void)
{
    return t_hasError ? t_lastError.c_str() : nullptr;
}

void
th_clear_error(void)
{
    t_hasError = false;
    t_lastError.clear();
}

void
th_set_error_handler(th_error_handler_t handler, void *user)
{
    std::lock_guard<std::mutex> lock(g_handlerMutex);
    g_handler = handler;
    g_handlerUser = user;
}

int
th_failpoint_arm(const char *name, const char *spec)
{
    if (!name || !spec) {
        recordError("th_failpoint_arm: NULL name or spec");
        return -1;
    }
    std::string error;
    if (!lsched::failpoint::arm(name, spec, &error)) {
        recordError(error);
        return -1;
    }
    return 0;
}

void
th_failpoint_disarm(const char *name)
{
    if (name)
        lsched::failpoint::disarm(name);
}

void
th_failpoint_disarm_all(void)
{
    lsched::failpoint::disarmAll();
}

void
th_init_(const long *blocksize, const long *hashsize)
{
    th_init(blocksize ? static_cast<std::size_t>(*blocksize) : 0,
            hashsize ? static_cast<std::size_t>(*hashsize) : 0);
}

void
th_fork_(void (*f)(void *, void *), void *arg1, void *arg2,
         const void *hint1, const void *hint2, const void *hint3)
{
    th_fork(f, arg1, arg2, hint1, hint2, hint3);
}

void
th_run_(const int *keep)
{
    th_run(keep ? *keep : 0);
}

void
th_run_parallel_(const int *workers, const int *keep)
{
    th_run_parallel(workers ? *workers : 0, keep ? *keep : 0);
}

void
th_set_placement_(const int *kind)
{
    static const char *const names[] = {"blockhash", "roundrobin",
                                        "hierarchical", "adaptive"};
    if (!kind || *kind < 0 || *kind > 3) {
        recordError("th_set_placement: kind must be 0..3");
        return;
    }
    th_configure("placement", names[*kind]);
}

void
th_set_backend_(const int *kind)
{
    static const char *const names[] = {"serial", "pooled"};
    if (!kind || *kind < 0 || *kind > 1) {
        recordError("th_set_backend: kind must be 0..1");
        return;
    }
    th_configure("backend", names[*kind]);
}

void
th_set_deadline_(const long long *millis)
{
    th_configure("deadline_millis",
                 std::to_string(millis ? *millis : 0).c_str());
}

void
th_stream_begin_(const int *workers)
{
    th_stream_begin(workers ? *workers : 0);
}

void
th_stream_end_(long long *executed)
{
    const long long result = th_stream_end();
    if (executed)
        *executed = result;
}

void
th_profile_enable_(const int *interval_ms, int *status)
{
    const int result =
        th_profile_enable(interval_ms ? *interval_ms : 0);
    if (status)
        *status = result;
}

void
th_profile_disable_(void)
{
    th_profile_disable();
}

void
th_profile_snapshot_(long long *seq)
{
    const long long result = th_profile_snapshot();
    if (seq)
        *seq = result;
}

void
th_profile_report_(int *status)
{
    // Numeric-only shim: the path comes from the profile.output key,
    // defaulting to the same file the --profile flag uses.
    std::string path =
        lsched::obs::Profiler::global().config().output;
    if (path.empty())
        path = "lsched_profile.jsonl";
    const int result = th_profile_report(path.c_str());
    if (status)
        *status = result;
}

void
th_stats_(long long *values, const int *count)
{
    if (!values || !count || *count <= 0)
        return;
    const lsched::threads::SchedulerStats s = instance().stats();
    // The th_stats_t rows, in its declaration order (the named-only
    // rows follow them in the table).
    int n = 0;
    for (const lsched::threads::StatField &field :
         lsched::threads::statFields()) {
        if (n == *count || !field.fill)
            break;
        values[n++] =
            static_cast<long long>(field.value(s, instance().config()));
    }
}

void
th_metric_count_(int *count)
{
    if (count)
        *count = th_metric_count();
}

void
th_metric_value_(const int *index, long long *value)
{
    if (!value)
        return;
    *value = -1;
    if (!index)
        return;
    guarded([&] {
        const auto table = metricTable();
        if (*index >= 0 && *index < static_cast<int>(table.size()))
            *value = static_cast<long long>(
                table[static_cast<std::size_t>(*index)].second);
    });
}

void
th_topology_(long long *values, const int *count)
{
    if (!values || !count || *count <= 0)
        return;
    const th_topology_t t = th_topology();
    // Field order mirrors th_topology_t exactly; both are append-only.
    const long long fields[] = {
        t.active,
        t.source,
        static_cast<long long>(t.packages),
        static_cast<long long>(t.l3_clusters),
        static_cast<long long>(t.l2_groups),
        static_cast<long long>(t.cpus),
        static_cast<long long>(t.smt_per_core),
        static_cast<long long>(t.l2_bytes),
        static_cast<long long>(t.l3_bytes),
        static_cast<long long>(t.derived_fan),
        static_cast<long long>(t.domains),
        static_cast<long long>(t.domain_workers),
    };
    const int have = static_cast<int>(sizeof(fields) / sizeof(fields[0]));
    const int n = *count < have ? *count : have;
    for (int i = 0; i < n; ++i)
        values[i] = fields[i];
}

} // extern "C"
