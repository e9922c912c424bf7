/**
 * @file
 * GEN: the generated workload — a persistent open-addressing KV store
 * driven by a declarative GenSpec (op mix, key distribution, keys per
 * transaction, value size).
 *
 * Layout: `tables` independent hash tables, each an array of 8-slot
 * bucket groups sized for ~50% max load. A slot is
 * 32 bytes of header (key, state, generation, pad) plus the value.
 * Keys probe only within their home group (bounded probe, tombstone
 * deletes), so every transaction touches a statically bounded set of
 * cache lines and the lock set is computable before the transaction
 * opens — multi-key transactions acquire their deduplicated group
 * locks in sorted address order.
 *
 * Values are a deterministic function of (key, generation), which is
 * what lets checkInvariants() verify every committed byte and the
 * crash oracle compare images byte-exactly.
 */

#ifndef PROTEUS_WLGEN_GEN_WORKLOAD_HH
#define PROTEUS_WLGEN_GEN_WORKLOAD_HH

#include "keydist.hh"
#include "workloads/workload.hh"

namespace proteus {
namespace wlgen {

/** Synthetic KV transactions over a persistent open-addressing store. */
class GenWorkload : public Workload
{
  public:
    GenWorkload(PersistentHeap &heap, LogScheme scheme,
                const WorkloadParams &params, const GenSpec &spec);

    std::string name() const override { return "GEN"; }
    std::uint64_t initOps() const override;
    std::uint64_t simOps() const override;
    std::string serialize(const MemoryImage &image) const override;
    std::string checkInvariants(const MemoryImage &image) const override;

    const GenSpec &spec() const { return _spec; }

    static constexpr unsigned slotsPerGroup = 8;
    static constexpr unsigned slotHeaderBytes = 32;
    /** Slot states (the +8 header word). */
    static constexpr std::uint64_t stEmpty = 0;
    static constexpr std::uint64_t stOccupied = 1;
    static constexpr std::uint64_t stTombstone = 2;

    /** Deterministic value pattern: word @p w of (key, generation). */
    static std::uint64_t valueWord(std::uint64_t key, std::uint64_t gen,
                                   unsigned w);

    /** Keys populated by setup(): keySpace * populatePct / 100. */
    std::uint64_t popKeys() const;

  protected:
    std::unique_ptr<Workload> clone() const override
    {
        return std::make_unique<GenWorkload>(*this);
    }
    void allocateStructures() override;
    void doInitOp(unsigned thread) override;
    void doOp(unsigned thread) override;

  private:
    enum class Op { Read, Update, Insert, Delete, Rmw };

    /** Outcome of a bounded in-group probe (all loads recorded). */
    struct Probe
    {
        Addr slot = 0;      ///< occupied slot holding the key, or 0
        Addr freeSlot = 0;  ///< first tombstone/empty on the path, or 0
        Value dep{};        ///< last load on the hit path
    };

    unsigned tableOf(std::uint64_t key) const;
    std::uint64_t groupOf(std::uint64_t key) const;
    unsigned homeOf(std::uint64_t key) const;
    Addr groupBase(unsigned table, std::uint64_t group) const;
    Addr lockFor(std::uint64_t key) const;

    /** Undo-declare @p key's whole bucket group (before any store). */
    void declareGroup(unsigned thread, std::uint64_t key);
    Probe probe(unsigned thread, std::uint64_t key);
    void opRead(unsigned thread, std::uint64_t key);
    void opUpdate(unsigned thread, std::uint64_t key, bool rmw);
    void opInsert(unsigned thread, std::uint64_t key);
    void opDelete(unsigned thread, std::uint64_t key);
    void dispatch(unsigned thread, Op op, std::uint64_t key);

    GenSpec _spec;
    /** Stateless after construction (nextRank is const), so forks
     *  share it. */
    std::shared_ptr<const KeyGenerator> _dist;
    std::uint64_t _groups = 0;      ///< bucket groups per table
    std::uint64_t _stripes = 0;     ///< lock stripes per table
    unsigned _slotBytes = 0;
    unsigned _valueWords = 0;
    std::vector<Addr> _tables;              ///< slot-array base per table
    std::vector<std::vector<Addr>> _locks;  ///< [table][stripe]
    std::vector<std::uint64_t> _initCounter;
};

} // namespace wlgen
} // namespace proteus

#endif // PROTEUS_WLGEN_GEN_WORKLOAD_HH
