/**
 * @file
 * Seeded event-stream mutation for checker self-validation
 * (`--check-mutate N`).
 *
 * The mutator subscribes to the machine event stream in the
 * PersistChecker's place and forwards every event to it unchanged
 * except for one seeded, rule-targeted perturbation: it drops or
 * duplicates the k-th qualifying persist edge (k derived from the
 * seed) in exactly the way the target rule forbids. A correct checker must flag the
 * mutated stream; the mutation campaign in check_runner asserts that
 * every armed rule catches its own injected violation, which is the CI
 * gate proving the rules are live (not vacuously passing).
 */

#ifndef PROTEUS_ANALYSIS_STREAM_MUTATOR_HH
#define PROTEUS_ANALYSIS_STREAM_MUTATOR_HH

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/persist_checker.hh"
#include "analysis/rules.hh"
#include "sim/machine_event.hh"

namespace proteus {
namespace analysis {

class StreamMutator : public EventSubscriber
{
  public:
    /** Mutates the @p target rule's k-th qualifying edge, k seeded by
     *  @p seed; everything else forwards verbatim to @p sink. */
    StreamMutator(Rule target, std::uint64_t seed, PersistChecker &sink);

    /** Register one log area [start, end). Lets the mutator target
     *  software log-entry writes and skip protocol stores. */
    void addLogArea(Addr start, Addr end);

    /** True once the seeded perturbation has been applied. */
    bool mutated() const { return _mutations > 0; }
    std::uint64_t mutations() const { return _mutations; }

    /** Forwards @p ev, perturbing only the kinds the target rule
     *  reads. */
    void on(const MachineEvent &ev) override;

  private:
    /** Core-id offset for the synthetic racing writer. */
    static constexpr CoreId phantomCore = 100;

    bool targeting(Rule r) const { return _target == r; }
    bool inLogArea(Addr addr) const;
    /** Counts qualifying edges; true exactly on the k-th. */
    bool takeKth();
    void releaseHeldDurablePoints(CoreId core);

    Rule _target;
    std::uint64_t _k;           ///< 1-based index of the mutated edge
    std::uint64_t _seen = 0;    ///< qualifying edges so far
    std::uint64_t _mutations = 0;
    PersistChecker &_sink;
    std::vector<std::pair<Addr, Addr>> _logAreas;

    /** FlashClearAfterCommit: durable points held back per core. */
    std::vector<std::tuple<CoreId, TxId, Tick>> _heldDurable;
    /** DurableByCommit: acceptance drop window. */
    bool _dropping = false;
    Addr _dropBlock = invalidAddr;
    CoreId _dropCore = 0;
    TxId _dropTx = 0;
};

} // namespace analysis
} // namespace proteus

#endif // PROTEUS_ANALYSIS_STREAM_MUTATOR_HH
