/**
 * @file
 * The unified, string-keyed configuration surface.
 *
 * One parser for every configuration entry point:
 * th_configure("key", "value") and th_config_get() at the C boundary,
 * the Fortran numeric selectors, and the generic --sched key=value
 * CLI flag (with --placement/--backend as its named shorthands).
 *
 * The key set mirrors SchedulerConfig field-for-field in snake_case
 * (configKeys() enumerates it), values round-trip — configKeyValue()
 * emits exactly the tokens applyConfigKey() accepts — and all three
 * are derived from one descriptor table in config_keys.cc (name,
 * field, parser/validator, the "want" text a bad value is told), so
 * a new SchedulerConfig field needs only a row there to be reachable
 * from C, Fortran (numerically), and the command line. Keys are
 * matched exactly: a spelling not in the table is an unknown key.
 *
 * One prefixed family is process-global rather than per-scheduler:
 * the "profile.*" keys configure the continuous-profiling subsystem
 * (obs/profile.hh). They accept writes and round-trip reads through
 * the same entry points, but the @p config argument is bypassed —
 * applying the same value twice (e.g. --sched replayed onto several
 * schedulers) is idempotent.
 */

#ifndef LSCHED_THREADS_CONFIG_KEYS_HH
#define LSCHED_THREADS_CONFIG_KEYS_HH

#include <string>
#include <vector>

namespace lsched::threads
{

struct SchedulerConfig;

/**
 * Set the field @p key names on @p config from the string @p value.
 * Returns false — with a caller-facing message in @p error, when
 * non-null — on an unknown key or an unparsable value; @p config is
 * untouched on failure.
 */
bool applyConfigKey(SchedulerConfig &config, const std::string &key,
                    const std::string &value, std::string *error);

/**
 * Read the field @p key names from @p config, formatted so feeding it
 * back through applyConfigKey() reproduces the field. Returns false
 * on an unknown key.
 */
bool configKeyValue(const SchedulerConfig &config,
                    const std::string &key, std::string *out);

/** Every key, in the order they are documented. */
const std::vector<std::string> &configKeys();

} // namespace lsched::threads

#endif // LSCHED_THREADS_CONFIG_KEYS_HH
