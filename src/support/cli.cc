#include "cli.hh"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "panic.hh"

namespace lsched
{

namespace
{

CliObsHook g_obsHook = nullptr;
CliSchedHook g_schedHook = nullptr;
CliProfileHook g_profileHook = nullptr;

} // namespace

void
setCliObsHook(CliObsHook hook)
{
    g_obsHook = hook;
}

CliSchedHook
setCliSchedHook(CliSchedHook hook)
{
    const CliSchedHook previous = g_schedHook;
    g_schedHook = hook;
    return previous;
}

CliProfileHook
setCliProfileHook(CliProfileHook hook)
{
    const CliProfileHook previous = g_profileHook;
    g_profileHook = hook;
    return previous;
}

Cli::Cli(std::string program, std::string blurb)
    : program_(std::move(program)), blurb_(std::move(blurb))
{
    addString("trace", "",
              "write a Chrome trace-event JSON (Perfetto-loadable) of "
              "this run to the given file");
    addString("metrics", "",
              "write the metrics registry to the given file "
              "(.json/.csv/plain text by extension)");
    addString("placement", "",
              "scheduler placement policy for every scheduler this "
              "program configures "
              "(blockhash|roundrobin|hierarchical|adaptive)");
    addString("backend", "",
              "parallel execution backend for every scheduler this "
              "program configures (serial|pooled)");
    addString("sched", "",
              "comma-separated key=value scheduler config overrides "
              "applied to every scheduler this program configures "
              "(any SchedulerConfig key, e.g. "
              "on_error=continue,stream_max_pending=4096)");
    options_.push_back(
        {"profile", Kind::OptStr,
         "enable continuous profiling (per-bin/per-worker PMU "
         "attribution); optional value is the snapshot-flush interval "
         "in milliseconds (sinks via --sched profile.output=...)",
         "", ""});
}

void
Cli::addInt(const std::string &name, std::int64_t def,
            const std::string &help)
{
    options_.push_back({name, Kind::Int, help, std::to_string(def),
                        std::to_string(def)});
}

void
Cli::addDouble(const std::string &name, double def, const std::string &help)
{
    std::ostringstream os;
    os << def;
    options_.push_back({name, Kind::Double, help, os.str(), os.str()});
}

void
Cli::addString(const std::string &name, const std::string &def,
               const std::string &help)
{
    options_.push_back({name, Kind::String, help, def, def});
}

void
Cli::addFlag(const std::string &name, const std::string &help)
{
    options_.push_back({name, Kind::Flag, help, "0", "0"});
}

Cli::Option *
Cli::lookup(const std::string &name)
{
    for (auto &opt : options_)
        if (opt.name == name)
            return &opt;
    return nullptr;
}

void
Cli::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(helpText().c_str(), stdout);
            std::exit(0);
        }
        if (arg.rfind("--", 0) != 0)
            LSCHED_FATAL("unexpected positional argument '", arg, "'");
        arg = arg.substr(2);
        std::string value;
        bool has_value = false;
        if (auto eq = arg.find('='); eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            has_value = true;
        }
        Option *opt = lookup(arg);
        if (!opt)
            LSCHED_FATAL("unknown option '--", arg, "'; see --help");
        if (opt->kind == Kind::Flag) {
            if (has_value)
                LSCHED_FATAL("flag '--", arg, "' takes no value");
            opt->value = "1";
            continue;
        }
        if (opt->kind == Kind::OptStr) {
            opt->value = has_value ? value : "on";
            continue;
        }
        if (!has_value) {
            if (i + 1 >= argc)
                LSCHED_FATAL("option '--", arg, "' needs a value");
            value = argv[++i];
        }
        opt->value = value;
    }

    const std::string &trace_path = getString("trace");
    const std::string &metrics_path = getString("metrics");
    if (!trace_path.empty() || !metrics_path.empty()) {
        if (!g_obsHook) {
            LSCHED_FATAL("--trace/--metrics need the observability "
                         "library (lsched_obs) linked in");
        }
        g_obsHook(trace_path, metrics_path);
    }

    const std::string &placement = getString("placement");
    const std::string &backend = getString("backend");
    const std::string &sched = getString("sched");
    if (!placement.empty() || !backend.empty() || !sched.empty()) {
        if (!g_schedHook) {
            LSCHED_FATAL("--placement/--backend/--sched need the "
                         "scheduler library (lsched_threads) linked in");
        }
        g_schedHook(placement, backend, sched);
    }

    const Option *profile = nullptr;
    for (const auto &opt : options_)
        if (opt.name == "profile")
            profile = &opt;
    if (profile && !profile->value.empty()) {
        if (!g_profileHook) {
            LSCHED_FATAL("--profile needs the observability library "
                         "(lsched_obs) linked in");
        }
        g_profileHook(profile->value);
    }
}

const Cli::Option &
Cli::find(const std::string &name, Kind kind) const
{
    for (const auto &opt : options_) {
        if (opt.name == name) {
            LSCHED_ASSERT(opt.kind == kind,
                          "option '", name, "' queried with wrong type");
            return opt;
        }
    }
    LSCHED_PANIC("option '", name, "' was never registered");
}

std::int64_t
Cli::getInt(const std::string &name) const
{
    const auto &opt = find(name, Kind::Int);
    char *end = nullptr;
    const long long v = std::strtoll(opt.value.c_str(), &end, 0);
    if (end == opt.value.c_str() || *end != '\0')
        LSCHED_FATAL("option '--", name, "': '", opt.value,
                     "' is not an integer");
    return v;
}

double
Cli::getDouble(const std::string &name) const
{
    const auto &opt = find(name, Kind::Double);
    char *end = nullptr;
    const double v = std::strtod(opt.value.c_str(), &end);
    if (end == opt.value.c_str() || *end != '\0')
        LSCHED_FATAL("option '--", name, "': '", opt.value,
                     "' is not a number");
    return v;
}

const std::string &
Cli::getString(const std::string &name) const
{
    return find(name, Kind::String).value;
}

bool
Cli::getFlag(const std::string &name) const
{
    return find(name, Kind::Flag).value == "1";
}

std::string
Cli::helpText() const
{
    std::ostringstream os;
    os << program_ << " — " << blurb_ << "\n\noptions:\n";
    for (const auto &opt : options_) {
        os << "  --" << opt.name;
        if (opt.kind == Kind::OptStr)
            os << "[=<str>]";
        else if (opt.kind != Kind::Flag)
            os << "=<" << (opt.kind == Kind::Int      ? "int"
                           : opt.kind == Kind::Double ? "float"
                                                      : "str")
               << ">";
        os << "\n        " << opt.help;
        if (opt.kind != Kind::Flag && opt.kind != Kind::OptStr)
            os << " (default: " << opt.def << ")";
        os << "\n";
    }
    os << "  --help\n        show this message\n";
    return os.str();
}

} // namespace lsched
