/**
 * @file
 * The machine event stream: one typed record for every protocol event
 * the timing components report, and one subscriber list.
 *
 * Core and MemCtrl hold a nullable EventStream pointer and post a
 * MachineEvent at each instrumented point of the logging protocol:
 * transaction boundaries, lock request/grant/release, the log-record
 * lifecycle (LogQ allocate, LLT filter, durability ack), per-cycle
 * commit-slot attribution, store retirement and store-buffer release,
 * the tx-end durability point, and on the memory-controller side write
 * acceptance (the ADR durability boundary), NVM array issue and
 * persist, LPQ flash-clear and tx-end marker operations (Section 4.3).
 * With no subscriber the pointer is null and every site is one null
 * check.
 *
 * Subscribers (the transaction flight recorder, the persistency-order
 * checker, the checker's stream mutator) each see every event, in
 * subscription order, and filter on the fields they care about.
 *
 * Ordering contract: the core posts DurablePoint before it calls
 * MemCtrl::txEnd, so a transaction's FlashClear and TxEndMarker events
 * always follow its durable-commit announcement; TxCommit follows
 * MemCtrl::txEnd, so flash-clears land in the still-open transaction.
 *
 * Every event carries the simulation tick of the instrumented point and
 * fires only on executed ticks, so the stream is bit-identical with
 * quiescence cycle skipping on or off. The one per-cycle event
 * (CommitSlot) is replayed for skipped spans with a cycle count, like
 * the core's per-cycle scalars.
 *
 * This header depends only on sim/types.hh, so cpu and memctrl emit
 * without linking against any subscriber.
 */

#ifndef PROTEUS_SIM_MACHINE_EVENT_HH
#define PROTEUS_SIM_MACHINE_EVENT_HH

#include <cstdint>
#include <vector>

#include "types.hh"

namespace proteus {

/**
 * The CPI-stack bucket a commit-slot cycle is attributed to: the core
 * (src/cpu/core.hh) charges each cycle to one and posts it on the
 * stream as a CommitSlot event.
 */
enum class TxSlot : std::uint8_t
{
    Base,
    RobFull,
    IqLsqFull,
    BranchRedirect,
    PersistStall,
    WpqBackpressure,
    LockWait,
};

constexpr unsigned numTxSlots = 7;

/** What happened to a tx-end marker at the memory controller. */
enum class MarkerOp : std::uint8_t
{
    Held,       ///< latest LPQ entry flagged tx-end and retained
    Rewritten,  ///< all entries had left; last entry re-queued with flag
    Dropped,    ///< a successor tx's first entry retired the marker
};

enum class EventKind : std::uint8_t
{
    /// @name Core: transaction boundaries (retirement)
    /// @{
    TxBegin,
    TxCommit,
    TxRollback,
    /// @}
    /// @name Core: lock manager
    /// @{
    LockRequest,
    LockGrant,
    LockRelease,    ///< a timing-level lock released at retirement
    /// @}
    /// @name Core: log-record lifecycle (LogQueue / ATOM MC-side logs)
    /// @{
    LogCreate,      ///< LogQ allocate / ATOM log start
    LogFilter,      ///< an LLT hit elided the record
    LogAck,         ///< the record became durable; since = created at
    /// @}
    /** count cycles landed in slot while tx was live at retirement
     *  (tx 0: outside any transaction). */
    CommitSlot,
    /// @name Core: persist edges (program order)
    /// @{
    /** A store retired; seq is its dynamic ordinal (the "store PC" of
     *  violation reports). */
    StoreRetire,
    /** A store left the store buffer toward the caches: from here its
     *  data can reach the MC, so the tx becomes a visible writer. */
    StoreRelease,
    FenceRetire,    ///< an sfence/mfence/pcommit retired
    /** Tx-end passed its scheme-specific retirement gate (posted
     *  before MemCtrl::txEnd). */
    DurablePoint,
    /// @}
    /// @name Memory controller
    /// @{
    /**
     * A write was accepted into the WPQ or LPQ. log: a log write (addr
     * is the log slot, granule the 32B data granule it covers);
     * otherwise a data write to block addr. combined: absorbed into an
     * existing WPQ entry (still newly durable data, but no new queue
     * entry). seq is the queue entry's acceptance sequence number.
     */
    WriteAccept,
    /** A queued write was issued to the NVM array; since = its MC
     *  acceptance tick, seq its acceptance sequence number. */
    NvmIssue,
    NvmPersist,     ///< a write's data reached the NVM array
    FlashClear,     ///< count LPQ entries of (core, tx) flash-cleared
    TxEndMarker,    ///< a tx-end marker operation (op)
    /// @}
};

/** One machine event; fields a kind does not use stay at defaults. */
struct MachineEvent
{
    EventKind kind = EventKind::TxBegin;
    CoreId core = 0;
    TxId tx = 0;
    Tick at = 0;
    /** Store / lock / MC block address, or a log write's slot. */
    Addr addr = invalidAddr;
    /** WriteAccept of a log write: the covered 32B data granule. */
    Addr granule = invalidAddr;
    /** Store: dynamic ordinal. MC: acceptance sequence number. */
    std::uint64_t seq = 0;
    /** CommitSlot: cycles. FlashClear: entries dropped. */
    std::uint64_t count = 0;
    /** LogAck: record creation tick. NvmIssue: MC acceptance tick. */
    Tick since = 0;
    /** WriteAccept: the 64B payload, valid only during delivery. */
    const std::uint8_t *data = nullptr;
    unsigned size = 0;              ///< store bytes
    TxSlot slot = TxSlot::Base;     ///< CommitSlot
    MarkerOp op = MarkerOp::Held;   ///< TxEndMarker
    bool persistent = false;        ///< StoreRetire: a persistent store
    bool lpq = false;               ///< MC: the Proteus LPQ (vs the WPQ)
    bool log = false;               ///< WriteAccept: a log write
    bool combined = false;          ///< WriteAccept: write-combined
    /** NvmIssue/NvmPersist: a synthesized tx-end marker write (no
     *  meaningful acceptance tick, no payload write of its own). */
    bool marker = false;
};

/** A listener on the machine event stream. */
class EventSubscriber
{
  public:
    virtual ~EventSubscriber() = default;
    virtual void on(const MachineEvent &ev) = 0;
};

/** The subscriber list; post() delivers in subscription order. */
class EventStream
{
  public:
    void subscribe(EventSubscriber &sub) { _subs.push_back(&sub); }
    bool empty() const { return _subs.empty(); }

    void
    post(const MachineEvent &ev) const
    {
        for (EventSubscriber *sub : _subs)
            sub->on(ev);
    }

  private:
    std::vector<EventSubscriber *> _subs;
};

} // namespace proteus

#endif // PROTEUS_SIM_MACHINE_EVENT_HH
