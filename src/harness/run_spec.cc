#include "run_spec.hh"

#include <climits>
#include <ostream>

#include "sim/logging.hh"

namespace proteus {

std::uint64_t
Arg::number(std::uint64_t lo, std::uint64_t hi) const
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        fatal(flag, " needs a non-negative integer (got '", text, "')");
    std::uint64_t n = 0;
    try {
        n = std::stoull(text);
    } catch (const std::out_of_range &) {
        fatal(flag, " is out of range (got ", text, ")");
    }
    if (n < lo || n > hi) {
        if (hi >= UINT_MAX)
            fatal(flag, " must be >= ", lo, " (got ", n, ")");
        fatal(flag, " must be in [", lo, ", ", hi, "] (got ", n, ")");
    }
    return n;
}

namespace {

/** Reject a `--set` of a key the spec derives, naming its flag. */
void
rejectOwnedKey(const std::string &override_spec)
{
    static const std::pair<const char *, const char *> owned[] = {
        {"cores", "--threads (one core per workload thread)"},
        {"seed", "--seed"},
        {"logging.scheme", "--scheme"},
        {"memCtrl.adr",
         "--scheme (ADR covers every scheme except pmem+pcommit)"},
    };
    const std::string key =
        override_spec.substr(0, override_spec.find('='));
    for (const auto &[name, instead] : owned) {
        if (key == name)
            fatal("--set ", key, " is derived from the run spec; use ",
                  instead);
    }
}

/** One command-line flag that sets a RunSpec field. */
struct Flag
{
    const char *name;
    const char *metavar;    ///< "" for a switch
    unsigned group;
    const char *help;       ///< '\n' continues on an indented line
    void (*apply)(RunSpec &spec, const Arg &arg);
    /** The default shown in --help; null for none. */
    std::string (*shown)(const RunSpec &defaults);
};

const Flag flags[] = {
    {"--scheme", "S", specflag::Scheme,
     "pmem | pmem+pcommit | pmem+nolog | atom | proteus |\n"
     "proteus+nolwr",
     [](RunSpec &s, const Arg &a) { s.scheme = parseScheme(a.text); },
     [](const RunSpec &d) -> std::string { return toString(d.scheme); }},
    {"--scale", "N", specflag::Sizing,
     "divide Table 2 SimOps (1 = paper size)",
     [](RunSpec &s, const Arg &a) { s.scale = a.count(); },
     [](const RunSpec &d) { return std::to_string(d.scale); }},
    {"--init-scale", "N", specflag::Sizing,
     "divide Table 2 InitOps (working set)",
     [](RunSpec &s, const Arg &a) { s.initScale = a.count(); },
     [](const RunSpec &d) { return std::to_string(d.initScale); }},
    {"--threads", "N", specflag::Sizing,
     "workload threads = simulated cores, 1-32",
     [](RunSpec &s, const Arg &a) { s.threads = a.count(32); },
     [](const RunSpec &d) { return std::to_string(d.threads); }},
    {"--seed", "N", specflag::Sizing, "workload RNG seed",
     [](RunSpec &s, const Arg &a) { s.seed = a.number(); },
     [](const RunSpec &d) { return std::to_string(d.seed); }},
    {"--dram", "", specflag::Dram, "DRAM timing (Section 7.2)",
     [](RunSpec &s, const Arg &) { s.dram = true; }, nullptr},
    {"--set", "k=v", specflag::Set,
     "config override, e.g. logging.logQEntries=8 (repeatable);\n"
     "cores, seed, logging.scheme and memCtrl.adr follow\n"
     "--threads, --seed and --scheme and are rejected here",
     [](RunSpec &s, const Arg &a) {
         rejectOwnedKey(a.text);
         SystemConfig().applyOverride(a.text);  // bad keys fail now
         s.overrides.push_back(a.text);
     },
     nullptr},
    {"--faults", "SPEC", specflag::Faults,
     "NVM media fault injection: comma list of torn=RATE,\n"
     "readflip=RATE, bits=N, endurance=N, stuck=N, detect=N,\n"
     "correct=N, retries=N, backoff=N, seed=N (default: off)",
     [](RunSpec &s, const Arg &a) {
         s.faults = faults::parseFaultSpec(a.text, s.faults);
     },
     nullptr},
    {"--fault-seed", "N", specflag::Faults, "fault-draw seed",
     [](RunSpec &s, const Arg &a) { s.faults.seed = a.number(); },
     [](const RunSpec &d) { return std::to_string(d.faults.seed); }},
    {"--wl-spec", "k=v,...", specflag::WlSpec,
     "generated-workload spec (workload 'gen'; see\n"
     "proteus-sim --list-workloads)",
     [](RunSpec &s, const Arg &a) {
         s.gen = wlgen::GenSpec::parse(a.text, s.gen);
     },
     nullptr},
    {"--wl-spec-file", "FILE", specflag::WlSpec,
     "generated-workload spec file, applied in order with\n"
     "--wl-spec (a later --wl-spec overrides it)",
     [](RunSpec &s, const Arg &a) {
         s.gen = wlgen::GenSpec::parseFile(a.text, s.gen);
     },
     nullptr},
    {"--elements-per-node", "N", specflag::List,
     "linked-list elements per node (LL only)",
     [](RunSpec &s, const Arg &a) { s.ll.elementsPerNode = a.count(); },
     [](const RunSpec &d) {
         return std::to_string(d.ll.elementsPerNode);
     }},
    {"--log-area-bytes", "N", specflag::LogArea,
     "per-thread log area size (same as\n"
     "--set logging.logAreaBytes=N)",
     [](RunSpec &s, const Arg &a) {
         s.overrides.push_back("logging.logAreaBytes=" +
                               std::to_string(a.number(1)));
     },
     [](const RunSpec &d) {
         return std::to_string(d.config().logging.logAreaBytes);
     }},
};

/** The flag named @p name among @p groups, or null. */
const Flag *
findFlag(const std::string &name, unsigned groups)
{
    for (const Flag &flag : flags) {
        if ((flag.group & groups) && name == flag.name)
            return &flag;
    }
    return nullptr;
}

void
append(std::vector<std::string> &to, const std::vector<std::string> &from)
{
    to.insert(to.end(), from.begin(), from.end());
}

} // namespace

bool
adrForScheme(LogScheme scheme)
{
    return scheme != LogScheme::PMEMPCommit;
}

SystemConfig
RunSpec::config() const
{
    SystemConfig cfg = dram ? dramConfig() : baselineConfig();
    cfg.seed = seed;
    cfg.cores = threads;
    cfg.logging.scheme = scheme;
    cfg.memCtrl.adr = adrForScheme(scheme);
    cfg.faults = faults;
    for (const std::string &o : overrides) {
        rejectOwnedKey(o);
        cfg.applyOverride(o);
    }
    return cfg;
}

TraceBundleKey
RunSpec::key() const
{
    TraceBundleKey key;
    key.kind = kind;
    key.scheme = scheme;
    key.params.threads = threads;
    key.params.scale = scale;
    key.params.initScale = initScale;
    key.params.seed = seed;
    key.params.logAreaBytes = config().logging.logAreaBytes;
    key.llOpts = ll;
    key.gen = gen;
    return key;
}

RunSpec
RunSpec::with(LogScheme s, WorkloadKind k) const
{
    RunSpec spec = *this;
    spec.scheme = s;
    spec.kind = k;
    return spec;
}

RunSpec
RunSpec::forBundle(const TraceBundleKey &key) const
{
    RunSpec spec = *this;
    spec.kind = key.kind;
    spec.scheme = key.scheme;
    spec.threads = key.params.threads;
    spec.scale = key.params.scale;
    spec.initScale = key.params.initScale;
    spec.seed = key.params.seed;
    spec.ll = key.llOpts;
    spec.gen = key.gen;
    const std::uint64_t area = config().logging.logAreaBytes;
    if (area != key.params.logAreaBytes) {
        if (area != baselineConfig().logging.logAreaBytes)
            fatal("--set logging.logAreaBytes=", area,
                  " conflicts with the recorded log area of ",
                  key.params.logAreaBytes, " bytes");
        spec.overrides.push_back("logging.logAreaBytes=" +
                                 std::to_string(key.params.logAreaBytes));
    }
    return spec;
}

std::vector<std::string>
RunSpec::args() const
{
    std::vector<std::string> out{toString(kind), "--scheme",
                                 toString(scheme)};
    append(out, workloadArgs());
    append(out, machineArgs());
    return out;
}

std::vector<std::string>
RunSpec::workloadArgs() const
{
    std::vector<std::string> out{"--seed", std::to_string(seed),
                                 "--threads", std::to_string(threads),
                                 "--scale", std::to_string(scale),
                                 "--init-scale", std::to_string(initScale)};
    if (gen != wlgen::GenSpec{})
        append(out, {"--wl-spec", gen.canonical()});
    if (!(ll == LinkedListOptions{}))
        append(out, {"--elements-per-node",
                     std::to_string(ll.elementsPerNode)});
    return out;
}

std::vector<std::string>
RunSpec::machineArgs() const
{
    std::vector<std::string> out;
    if (dram)
        out.push_back("--dram");
    for (const std::string &o : overrides)
        append(out, {"--set", o});
    if (!(faults == faults::FaultConfig{}))
        append(out, {"--faults", faults::canonicalFaultSpec(faults)});
    return out;
}

RunSpec
RunSpec::parse(const std::vector<std::string> &args)
{
    RunSpec spec;
    std::size_t i = 0;
    if (!args.empty() && args[0].rfind("--", 0) != 0)
        spec.kind = parseWorkload(args[i++]);
    for (; i < args.size(); ++i) {
        if (!spec.parseFlag(args, i, specflag::All))
            fatal("unknown argument: ", args[i]);
    }
    return spec;
}

bool
RunSpec::parseFlag(const std::vector<std::string> &args, std::size_t &i,
                   unsigned groups)
{
    const std::string &name = args[i];
    const Flag *flag = findFlag(name, groups);
    if (!flag)
        return false;
    if (*flag->metavar && i + 1 >= args.size())
        fatal("missing value after ", name);
    const std::string &text = *flag->metavar ? args[++i] : name;
    flag->apply(*this, Arg{name, text});
    return true;
}

void
rejectBundleConflicts(const std::vector<std::string> &args,
                      const TraceBundleKey &key, const std::string &path)
{
    constexpr unsigned identity = specflag::Scheme | specflag::Sizing |
                                  specflag::WlSpec | specflag::List;
    const RunSpec recorded = RunSpec().forBundle(key);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const Flag *flag = findFlag(args[i], identity);
        if (!flag)
            continue;
        // Apply the flag on top of the file's spec: a value equal to
        // the recorded one leaves it unchanged.
        RunSpec probe = recorded;
        const std::size_t at = i;
        probe.parseFlag(args, i, identity);
        if (probe == recorded)
            continue;
        const bool wl_spec = flag->group == specflag::WlSpec;
        fatal(args[at], " ", args[i], " conflicts with ", path,
              ", which records ", wl_spec ? "--wl-spec" : flag->name,
              " ", wl_spec ? recorded.gen.canonical()
                           : flag->shown(recorded),
              " (a replay takes the workload, scheme and sizing from "
              "the file)");
    }
}

void
RunSpec::printFlags(std::ostream &os, unsigned groups,
                    const RunSpec &defaults)
{
    const std::string indent(21, ' ');
    for (const Flag &flag : flags) {
        if (!(flag.group & groups))
            continue;
        std::string lead = std::string("  ") + flag.name;
        if (*flag.metavar)
            lead += std::string(" ") + flag.metavar;
        os << lead;
        if (lead.size() < indent.size())
            os << std::string(indent.size() - lead.size(), ' ');
        else
            os << "\n" << indent;
        for (const char *c = flag.help; *c; ++c) {
            os << *c;
            if (*c == '\n')
                os << indent;
        }
        if (flag.shown)
            os << " (default " << flag.shown(defaults) << ")";
        os << "\n";
    }
}

std::string
joinArgs(const std::vector<std::string> &args)
{
    std::string out;
    for (const std::string &arg : args) {
        if (!out.empty())
            out += ' ';
        out += arg;
    }
    return out;
}

} // namespace proteus
