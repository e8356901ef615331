/**
 * @file
 * The descriptor table behind applyConfigKey/configKeyValue/
 * configKeys: one row per key; see config_keys.hh for the contract.
 */

#include "threads/config_keys.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <type_traits>

#include "machine/topology.hh"
#include "obs/profile.hh"
#include "threads/scheduler.hh"

namespace lsched::threads
{

namespace
{

bool
parseU64(const std::string &value, std::uint64_t *out)
{
    if (value.empty())
        return false;
    const char *begin = value.c_str();
    char *end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(begin, &end, 10);
    if (errno != 0 || end != begin + value.size())
        return false;
    // strtoull silently accepts a leading minus by wrapping.
    if (value[0] == '-')
        return false;
    *out = parsed;
    return true;
}

bool
parseDouble(const std::string &value, double *out)
{
    if (value.empty())
        return false;
    const char *begin = value.c_str();
    char *end = nullptr;
    errno = 0;
    const double parsed = std::strtod(begin, &end);
    if (errno != 0 || end != begin + value.size())
        return false;
    if (!std::isfinite(parsed) || parsed < 0.0)
        return false;
    *out = parsed;
    return true;
}

/** %g keeps the round-trip short ("0.05", not "0.050000"). */
std::string
doubleToken(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", value);
    return buf;
}

bool
parseBool(const std::string &value, bool *out)
{
    if (value == "1" || value == "true" || value == "on" ||
        value == "yes") {
        *out = true;
        return true;
    }
    if (value == "0" || value == "false" || value == "off" ||
        value == "no") {
        *out = false;
        return true;
    }
    return false;
}

bool
tryErrorPolicyFromName(const std::string &name, ErrorPolicy *out)
{
    if (name == "abort")
        *out = ErrorPolicy::Abort;
    else if (name == "stoptour")
        *out = ErrorPolicy::StopTour;
    else if (name == "continue")
        *out = ErrorPolicy::ContinueAndCollect;
    else
        return false;
    return true;
}

const char *
errorPolicyToken(ErrorPolicy policy)
{
    switch (policy) {
      case ErrorPolicy::Abort:              return "abort";
      case ErrorPolicy::StopTour:           return "stoptour";
      case ErrorPolicy::ContinueAndCollect: return "continue";
    }
    return "?";
}

/**
 * One key. set() parses a value into the key's target and returns
 * false — target untouched — on a value outside @c want; get()
 * formats the target so set() reproduces it. Both see the
 * scheduler's config and a staged copy of the process-global
 * profiler config; a row touches only the one it names.
 */
struct Key
{
    const char *name;
    /** What a bad value is told to want ("a byte count", ...). */
    const char *want;
    bool (*set)(SchedulerConfig &, obs::ProfileConfig &,
                const std::string &);
    std::string (*get)(const SchedulerConfig &,
                       const obs::ProfileConfig &);
};

template <class M>
struct MemberOf;

template <class C, class T>
struct MemberOf<T C::*>
{
    using Owner = C;
    using Type = T;
};

/** Type of the field a member pointer names. */
template <auto Field>
using FieldType = typename MemberOf<decltype(Field)>::Type;

/** The field @p Field names, in whichever object owns it. */
template <auto Field, class Config, class Profile>
auto &
fieldOf(Config &config, Profile &profile)
{
    if constexpr (std::is_same_v<typename MemberOf<decltype(Field)>::Owner,
                                 obs::ProfileConfig>)
        return profile.*Field;
    else
        return config.*Field;
}

/** An unsigned count in [Min, Max] (Max defaults to the field's). */
template <auto Field, std::uint64_t Min = 0,
          std::uint64_t Max = std::numeric_limits<FieldType<Field>>::max()>
constexpr Key
countKey(const char *name, const char *want)
{
    return {name, want,
            [](SchedulerConfig &c, obs::ProfileConfig &p,
               const std::string &value) {
                std::uint64_t u = 0;
                if (!parseU64(value, &u) || u < Min || u > Max)
                    return false;
                fieldOf<Field>(c, p) = static_cast<FieldType<Field>>(u);
                return true;
            },
            [](const SchedulerConfig &c, const obs::ProfileConfig &p) {
                return std::to_string(fieldOf<Field>(c, p));
            }};
}

/** A finite, non-negative real in [Min, Max]. */
template <auto Field, double Min = 0.0,
          double Max = std::numeric_limits<double>::max()>
constexpr Key
realKey(const char *name, const char *want)
{
    return {name, want,
            [](SchedulerConfig &c, obs::ProfileConfig &p,
               const std::string &value) {
                double d = 0.0;
                if (!parseDouble(value, &d) || d < Min || d > Max)
                    return false;
                fieldOf<Field>(c, p) = d;
                return true;
            },
            [](const SchedulerConfig &c, const obs::ProfileConfig &p) {
                return doubleToken(fieldOf<Field>(c, p));
            }};
}

template <auto Field>
constexpr Key
flagKey(const char *name)
{
    return {name, "a boolean",
            [](SchedulerConfig &c, obs::ProfileConfig &p,
               const std::string &value) {
                return parseBool(value, &fieldOf<Field>(c, p));
            },
            [](const SchedulerConfig &c, const obs::ProfileConfig &p) {
                return std::string(fieldOf<Field>(c, p) ? "1" : "0");
            }};
}

/** A named choice: Parse(value, &out) / Name(field). */
template <auto Field, auto Parse, auto Name>
constexpr Key
choiceKey(const char *name, const char *want)
{
    return {name, want,
            [](SchedulerConfig &c, obs::ProfileConfig &p,
               const std::string &value) {
                return Parse(value, &fieldOf<Field>(c, p));
            },
            [](const SchedulerConfig &c, const obs::ProfileConfig &p) {
                return std::string(Name(fieldOf<Field>(c, p)));
            }};
}

/** Free text, taken as given. */
template <auto Field>
constexpr Key
textKey(const char *name)
{
    return {name, "",
            [](SchedulerConfig &c, obs::ProfileConfig &p,
               const std::string &value) {
                fieldOf<Field>(c, p) = value;
                return true;
            },
            [](const SchedulerConfig &c, const obs::ProfileConfig &p) {
                return fieldOf<Field>(c, p);
            }};
}

using C = SchedulerConfig;
using P = obs::ProfileConfig;

/**
 * Every key, in the order configKeys() documents them. The profile.*
 * rows target the process-global profiler (obs/profile.hh); the rest
 * mirror SchedulerConfig field for field.
 */
const Key kKeys[] = {
    countKey<&C::dims, 1, kMaxDims>("dims", "an integer in [1, 8]"),
    countKey<&C::cacheBytes>("cache_bytes", "a byte count"),
    countKey<&C::blockBytes>("block_bytes",
                             "a byte count (0 = cache_bytes / dims)"),
    countKey<&C::hashBuckets>("hash_buckets",
                              "a bucket count (0 = default)"),
    countKey<&C::groupCapacity, 1>("group_capacity",
                                   "a positive 32-bit thread count"),
    flagKey<&C::symmetricHints>("symmetric_hints"),
    choiceKey<&C::placement, &tryPlacementFromName, &placementName>(
        "placement", "blockhash|roundrobin|hierarchical|adaptive"),
    choiceKey<&C::backend, &tryBackendFromName, &backendName>(
        "backend", "serial|pooled"),
    countKey<&C::roundRobinBins>("round_robin_bins",
                                 "a bin count (0 = policy default)"),
    countKey<&C::superBinFan>(
        "super_bin_fan", "blocks per super-bin (0 = policy default)"),
    {"topology", "auto|flat|PxCxGxS[/l2=N][/l3=N]",
     [](C &c, P &, const std::string &value) {
         if (value != "auto" && value != "flat") {
             machine::CacheTopology probe;
             std::string why;
             if (!machine::CacheTopology::fromSpec(value, &probe, &why))
                 return false;
         }
         c.topology = value;
         return true;
     },
     [](const C &c, const P &) { return c.topology; }},
    choiceKey<&C::onError, &tryErrorPolicyFromName, &errorPolicyToken>(
        "on_error", "abort|stoptour|continue"),
    countKey<&C::watchdogMillis>("watchdog_millis",
                                 "milliseconds (0 disables)"),
    choiceKey<&C::watchdogAction, &tryWatchdogActionFromName,
              &watchdogActionName>("watchdog_action", "event|cancel"),
    countKey<&C::deadlineMillis>("deadline_millis",
                                 "milliseconds (0 disables)"),
    countKey<&C::streamAdmitRetries>(
        "stream_admit_retries", "a retry bound (0 = retry forever)"),
    countKey<&C::overloadEpochs>(
        "overload_epochs", "an epoch count (0 disables the governor)"),
    countKey<&C::recoverEpochs, 1>("recover_epochs",
                                   "a positive epoch count"),
    flagKey<&C::pinWorkers>("pin_workers"),
    countKey<&C::streamMaxPending>("stream_max_pending",
                                   "a thread bound (0 = unbounded)"),
    countKey<&C::streamSealThreshold>(
        "stream_seal_threshold", "a thread count (0 = seal at end only)"),
    {"adapt.base", "blockhash|roundrobin|hierarchical",
     [](C &c, P &, const std::string &value) {
         PlacementKind kind;
         if (!tryPlacementFromName(value, &kind) ||
             kind == PlacementKind::Adaptive)
             return false;
         c.adaptBase = kind;
         return true;
     },
     [](const C &c, const P &) {
         return std::string(placementName(c.adaptBase));
     }},
    realKey<&C::adaptTargetMiss, 0.0, 1.0>("adapt.target_miss",
                                           "a miss rate in [0, 1]"),
    realKey<&C::adaptHighMiss, 0.0, 1.0>("adapt.high_miss",
                                         "a miss rate in [0, 1]"),
    realKey<&C::adaptConverge, 1.0>(
        "adapt.converge", "a factor >= 1 over the tuned miss rate"),
    countKey<&C::adaptEpochs, 1>("adapt.epochs",
                                 "a positive epoch count"),
    countKey<&C::adaptHold>("adapt.hold",
                            "an epoch count (0 = react immediately)"),
    countKey<&C::adaptMinBlock, 1>("adapt.min_block",
                                   "a positive byte floor"),
    countKey<&C::adaptMaxBlock>("adapt.max_block",
                                "a byte ceiling (0 = cache_bytes)"),
    countKey<&C::adaptMinRefs>("adapt.min_refs",
                               "an LLC-reference floor per epoch"),
    realKey<&C::adaptDwellImprove, 0.0, 1.0>(
        "adapt.dwell_improve", "an improvement fraction in [0, 1]"),
    {"profile.enable", "a boolean",
     [](C &, P &, const std::string &value) {
         bool on = false;
         if (!parseBool(value, &on))
             return false;
         obs::Profiler::global().setEnabled(on);
         return true;
     },
     [](const C &, const P &) {
         return std::string(obs::Profiler::global().enabled() ? "1"
                                                              : "0");
     }},
    flagKey<&P::pmu>("profile.pmu"),
    countKey<&P::intervalMs>("profile.interval_ms",
                             "milliseconds (0 = manual snapshots)"),
    textKey<&P::output>("profile.output"),
    textKey<&P::omOutput>("profile.om_output"),
    countKey<&P::ringDepth, 1>("profile.ring",
                               "a positive snapshot count"),
    countKey<&P::maxBins, 1>("profile.max_bins", "a positive bin count"),
};

const Key *
findKey(const std::string &name)
{
    for (const Key &key : kKeys) {
        if (name == key.name)
            return &key;
    }
    return nullptr;
}

/** The profile.* rows configure the process-global profiler. */
bool
isProfileKey(const Key &key)
{
    return std::string_view(key.name).starts_with("profile.");
}

} // namespace

bool
applyConfigKey(SchedulerConfig &config, const std::string &key,
               const std::string &value, std::string *error)
{
    const Key *row = findKey(key);
    if (!row) {
        if (error)
            *error = "unknown config key '" + key + "'";
        return false;
    }
    const bool profile = isProfileKey(*row);
    obs::ProfileConfig staged;
    if (profile)
        staged = obs::Profiler::global().config();
    if (!row->set(config, staged, value)) {
        if (error) {
            *error = "config key '" + key + "': bad value '" + value +
                     "' (want " + row->want + ")";
        }
        return false;
    }
    return !profile || obs::Profiler::global().configure(staged, error);
}

bool
configKeyValue(const SchedulerConfig &config, const std::string &key,
               std::string *out)
{
    const Key *row = findKey(key);
    if (!row)
        return false;
    obs::ProfileConfig staged;
    if (isProfileKey(*row))
        staged = obs::Profiler::global().config();
    *out = row->get(config, staged);
    return true;
}

const std::vector<std::string> &
configKeys()
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> names;
        for (const Key &key : kKeys)
            names.emplace_back(key.name);
        return names;
    }();
    return keys;
}

} // namespace lsched::threads
