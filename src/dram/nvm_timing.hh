/**
 * @file
 * Bank-level main-memory timing model (DRAMSim2-lite).
 *
 * Models per-bank row buffers, activate/precharge/CAS timing, write
 * recovery, activation-window constraints (tRRD/tFAW), and a shared data
 * bus. All external times are CPU ticks; Table 1 parameters are memory
 * cycles converted by cpuPerMemCycle. In NVM mode the row activation
 * time (tRCD) is replaced per access direction with the paper's NVM
 * latencies: 29 memory cycles for reads, 109 for writes (50 ns / 150 ns
 * at 800 MHz); row-buffer hits remain DRAM-fast.
 */

#ifndef PROTEUS_DRAM_NVM_TIMING_HH
#define PROTEUS_DRAM_NVM_TIMING_HH

#include <deque>
#include <vector>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace proteus {

/** Passive bank/bus timing calculator driven by the memory controller. */
class NvmTiming
{
  public:
    NvmTiming(const MemTimingConfig &cfg, stats::StatRegistry &stats,
              const std::string &name);

    /** Where an address lives: its bank and its row within the bank.
     *  Computing one costs three 64-bit divisions, so the memory
     *  controller locates each request once, when it is queued. */
    struct Loc
    {
        unsigned bank = 0;
        std::uint64_t row = 0;
    };

    /** @return the bank and row servicing @p addr. */
    Loc
    locate(Addr addr) const
    {
        return Loc{bankIndex(addr), rowIndex(addr)};
    }

    /** @return bank index servicing @p addr. */
    unsigned bankIndex(Addr addr) const;

    /** @return row index within the bank for @p addr. */
    std::uint64_t rowIndex(Addr addr) const;

    /** @return the tick at which @p loc's bank accepts its next
     *  command. It changes only when a command issues to that bank,
     *  which needs the bank to be ready. */
    Tick
    bankReadyAt(const Loc &loc) const
    {
        return _banks[loc.bank].readyAt;
    }

    /** @return true if the bank can accept a command at @p now. */
    bool
    bankReady(const Loc &loc, Tick now) const
    {
        return bankReadyAt(loc) <= now;
    }

    bool
    bankReady(Addr addr, Tick now) const
    {
        return bankReady(locate(addr), now);
    }

    /** @return true if @p loc hits its bank's open row. */
    bool
    rowHit(const Loc &loc) const
    {
        const Bank &bank = _banks[loc.bank];
        return bank.rowOpen && bank.openRow == loc.row;
    }

    bool rowHit(Addr addr) const { return rowHit(locate(addr)); }

    /**
     * Issue one 64B access. The bank must be ready (bankReady). Returns
     * the tick at which the access completes: data returned for reads,
     * write recovery done for writes.
     */
    Tick issue(const Loc &loc, bool is_write, Tick now);

    Tick
    issue(Addr addr, bool is_write, Tick now)
    {
        return issue(locate(addr), is_write, now);
    }

    /** Totals used by the Figure 8 write-count study. */
    std::uint64_t totalWrites() const;
    std::uint64_t totalReads() const;

  private:
    struct Bank
    {
        bool rowOpen = false;
        std::uint64_t openRow = 0;
        Tick readyAt = 0;       ///< next command accepted at/after this
        Tick activatedAt = 0;   ///< last activate (for tRAS)
        Tick prechargeReadyAt = 0;  ///< earliest precharge (tWR/tRTP)
    };

    Tick memCycles(unsigned mem_cycles) const;
    Tick reserveActivateSlot(Tick earliest);

    MemTimingConfig _cfg;
    std::vector<Bank> _banks;
    Tick _busFreeAt = 0;
    std::deque<Tick> _recentActivates;  ///< for tRRD / tFAW

    stats::Scalar _reads;
    stats::Scalar _writes;
    stats::Scalar _rowHits;
    stats::Scalar _rowMisses;
    stats::Scalar _rowConflicts;
};

} // namespace proteus

#endif // PROTEUS_DRAM_NVM_TIMING_HH
