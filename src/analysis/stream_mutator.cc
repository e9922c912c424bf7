#include "analysis/stream_mutator.hh"

namespace proteus {
namespace analysis {

StreamMutator::StreamMutator(Rule target, std::uint64_t seed,
                             PersistChecker &sink)
    : _target(target), _k(1 + seed % 7), _sink(sink)
{
}

void
StreamMutator::addLogArea(Addr start, Addr end)
{
    if (start != invalidAddr && start < end)
        _logAreas.emplace_back(start, end);
}

bool
StreamMutator::inLogArea(Addr addr) const
{
    for (const auto &[start, end] : _logAreas) {
        if (addr >= start && addr < end)
            return true;
    }
    return false;
}

bool
StreamMutator::takeKth()
{
    return ++_seen == _k;
}

void
StreamMutator::releaseHeldDurablePoints(CoreId core)
{
    for (auto it = _heldDurable.begin(); it != _heldDurable.end();) {
        if (std::get<0>(*it) == core) {
            _sink.on({.kind = EventKind::DurablePoint,
                      .core = std::get<0>(*it), .tx = std::get<1>(*it),
                      .at = std::get<2>(*it)});
            it = _heldDurable.erase(it);
        } else {
            ++it;
        }
    }
}

void
StreamMutator::on(const MachineEvent &ev)
{
    switch (ev.kind) {
      case EventKind::LogAck:
        if (targeting(Rule::EntriesBeforeTxEnd) && takeKth()) {
            ++_mutations;   // the record's durability ack never happened
            return;
        }
        break;
      case EventKind::StoreRetire:
        _sink.on(ev);
        if (!ev.persistent || ev.tx == 0 || inLogArea(ev.addr))
            return;
        if (targeting(Rule::LockDiscipline) && takeKth()) {
            // A phantom core overwrites the same bytes holding no locks.
            ++_mutations;
            MachineEvent phantom = ev;
            phantom.core = ev.core + phantomCore;
            _sink.on(phantom);
            return;
        }
        if (targeting(Rule::DurableByCommit) && takeKth()) {
            // Swallow every durability witness for this store's block
            // until its transaction reaches the durability point.
            ++_mutations;
            _dropping = true;
            _dropBlock = blockAlign(ev.addr);
            _dropCore = ev.core;
            _dropTx = ev.tx;
        }
        return;
      case EventKind::DurablePoint:
        if (targeting(Rule::FlashClearAfterCommit) && takeKth()) {
            // Hold the durable-commit announcement back past the MC's
            // tx-end marker / flash-clear events for this core.
            ++_mutations;
            _heldDurable.emplace_back(ev.core, ev.tx, ev.at);
            return;
        }
        if (_dropping && ev.core == _dropCore && ev.tx == _dropTx) {
            _sink.on(ev);   // the rule fires here
            _dropping = false;
            _dropBlock = invalidAddr;
            return;
        }
        break;
      case EventKind::WriteAccept:
        if (ev.log) {
            if (targeting(Rule::LogBeforeData) && takeKth()) {
                ++_mutations;   // the hardware log entry never persists
                return;
            }
            break;
        }
        if (_dropping && blockAlign(ev.addr) == _dropBlock)
            return;
        if (targeting(Rule::LogBeforeData) && inLogArea(ev.addr) &&
            takeKth()) {
            ++_mutations;   // the software undo-log entry never persists
            return;
        }
        break;
      case EventKind::NvmIssue:
        _sink.on(ev);
        if (targeting(Rule::FifoPerAddress) && takeKth()) {
            ++_mutations;   // the same acceptance issues twice (reorder)
            _sink.on(ev);
        }
        return;
      case EventKind::NvmPersist:
        if (_dropping && blockAlign(ev.addr) == _dropBlock)
            return;
        break;
      case EventKind::FlashClear:
      case EventKind::TxEndMarker:
        _sink.on(ev);
        releaseHeldDurablePoints(ev.core);
        return;
      default:
        break;
    }
    _sink.on(ev);
}

} // namespace analysis
} // namespace proteus
