#include "config.hh"

#include <algorithm>
#include <cctype>
#include <map>

#include "logging.hh"

namespace proteus {

const char *
toString(LogScheme scheme)
{
    switch (scheme) {
      case LogScheme::PMEM:         return "PMEM";
      case LogScheme::PMEMPCommit:  return "PMEM+pcommit";
      case LogScheme::PMEMNoLog:    return "PMEM+nolog";
      case LogScheme::ATOM:         return "ATOM";
      case LogScheme::Proteus:      return "Proteus";
      case LogScheme::ProteusNoLWR: return "Proteus+NoLWR";
    }
    return "unknown";
}

LogScheme
parseScheme(const std::string &name)
{
    std::string key;
    key.reserve(name.size());
    for (char c : name)
        key.push_back(static_cast<char>(std::tolower(
            static_cast<unsigned char>(c))));

    static const std::map<std::string, LogScheme> table = {
        {"pmem", LogScheme::PMEM},
        {"pmem+pcommit", LogScheme::PMEMPCommit},
        {"pcommit", LogScheme::PMEMPCommit},
        {"pmem+nolog", LogScheme::PMEMNoLog},
        {"nolog", LogScheme::PMEMNoLog},
        {"ideal", LogScheme::PMEMNoLog},
        {"atom", LogScheme::ATOM},
        {"proteus", LogScheme::Proteus},
        {"proteus+nolwr", LogScheme::ProteusNoLWR},
        {"nolwr", LogScheme::ProteusNoLWR},
    };
    auto it = table.find(key);
    if (it == table.end())
        fatal("unknown logging scheme: ", name);
    return it->second;
}

std::vector<LogScheme>
allLogSchemes()
{
    return {LogScheme::PMEM,      LogScheme::PMEMPCommit,
            LogScheme::PMEMNoLog, LogScheme::ATOM,
            LogScheme::Proteus,   LogScheme::ProteusNoLWR};
}

bool
isSoftwareScheme(LogScheme scheme)
{
    return scheme == LogScheme::PMEM || scheme == LogScheme::PMEMPCommit ||
           scheme == LogScheme::PMEMNoLog;
}

void
SystemConfig::applyOverride(const std::string &spec)
{
    auto eq = spec.find('=');
    if (eq == std::string::npos)
        fatal("override must be key=value: ", spec);
    const std::string key = spec.substr(0, eq);
    const std::string value = spec.substr(eq + 1);

    auto as_u64 = [&]() -> std::uint64_t {
        try {
            return std::stoull(value);
        } catch (const std::exception &) {
            fatal("bad numeric value in override: ", spec);
        }
    };
    auto as_double = [&]() -> double {
        try {
            return std::stod(value);
        } catch (const std::exception &) {
            fatal("bad numeric value in override: ", spec);
        }
    };
    auto as_bool = [&]() -> bool {
        if (value == "true" || value == "1") return true;
        if (value == "false" || value == "0") return false;
        fatal("bad boolean value in override: ", spec);
    };

    if (key == "cores") cores = static_cast<unsigned>(as_u64());
    else if (key == "seed") seed = as_u64();
    else if (key == "cpu.robEntries")
        cpu.robEntries = static_cast<unsigned>(as_u64());
    else if (key == "cpu.issueQueueEntries")
        cpu.issueQueueEntries = static_cast<unsigned>(as_u64());
    else if (key == "cpu.loadQueueEntries")
        cpu.loadQueueEntries = static_cast<unsigned>(as_u64());
    else if (key == "cpu.storeQueueEntries")
        cpu.storeQueueEntries = static_cast<unsigned>(as_u64());
    else if (key == "cpu.fetchWidth")
        cpu.fetchWidth = static_cast<unsigned>(as_u64());
    else if (key == "cpu.physIntRegs")
        cpu.physIntRegs = static_cast<unsigned>(as_u64());
    else if (key == "mem.nvmMode") mem.nvmMode = as_bool();
    else if (key == "mem.nvmReadTRCD")
        mem.nvmReadTRCD = static_cast<unsigned>(as_u64());
    else if (key == "mem.nvmWriteTRCD")
        mem.nvmWriteTRCD = static_cast<unsigned>(as_u64());
    else if (key == "mem.banks")
        mem.banks = static_cast<unsigned>(as_u64());
    else if (key == "memCtrl.adr") memCtrl.adr = as_bool();
    else if (key == "memCtrl.wpqEntries")
        memCtrl.wpqEntries = static_cast<unsigned>(as_u64());
    else if (key == "memCtrl.lpqEntries")
        memCtrl.lpqEntries = static_cast<unsigned>(as_u64());
    else if (key == "memCtrl.wpqDrainThreshold")
        memCtrl.wpqDrainThreshold = as_double();
    else if (key == "memCtrl.lpqDrainThreshold")
        memCtrl.lpqDrainThreshold = as_double();
    else if (key == "logging.scheme") logging.scheme = parseScheme(value);
    else if (key == "logging.logRegisters")
        logging.logRegisters = static_cast<unsigned>(as_u64());
    else if (key == "logging.logQEntries")
        logging.logQEntries = static_cast<unsigned>(as_u64());
    else if (key == "logging.lltEntries")
        logging.lltEntries = static_cast<unsigned>(as_u64());
    else if (key == "logging.lltWays")
        logging.lltWays = static_cast<unsigned>(as_u64());
    else if (key == "logging.logAreaBytes") logging.logAreaBytes = as_u64();
    else if (key == "logging.atomTruncationEntries")
        logging.atomTruncationEntries = static_cast<unsigned>(as_u64());
    else if (key == "faults.tornWriteRate")
        faults.tornWriteRate = as_double();
    else if (key == "faults.readFlipRate")
        faults.readFlipRate = as_double();
    else if (key == "faults.enduranceWrites")
        faults.enduranceWrites = as_u64();
    else if (key == "faults.eccDetectBits")
        faults.eccDetectBits = static_cast<unsigned>(as_u64());
    else if (key == "faults.eccCorrectBits")
        faults.eccCorrectBits = static_cast<unsigned>(as_u64());
    else if (key == "faults.readRetryLimit")
        faults.readRetryLimit = static_cast<unsigned>(as_u64());
    else if (key == "faults.retryBackoffBase")
        faults.retryBackoffBase = static_cast<unsigned>(as_u64());
    else if (key == "faults.seed") faults.seed = as_u64();
    else if (key == "obs.traceRingEntries")
        obs.traceRingEntries = as_u64();
    else if (key == "obs.txSlowest")
        obs.txSlowest = as_u64();
    else if (key == "cycleSkip") cycleSkip = as_bool();
    else
        fatal("unknown config override key: ", key);
}

SystemConfig
baselineConfig()
{
    SystemConfig cfg;
    return cfg;
}

SystemConfig
slowNvmConfig()
{
    SystemConfig cfg;
    // 300 ns write at 800 MHz DRAM clock = 240 memory cycles; read stays
    // at 50 ns (Section 7.1).
    cfg.mem.nvmWriteTRCD = 240;
    return cfg;
}

SystemConfig
dramConfig()
{
    SystemConfig cfg;
    cfg.mem.nvmMode = false;
    return cfg;
}

} // namespace proteus
