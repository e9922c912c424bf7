#include "snapshot.hh"

namespace proteus {

std::shared_ptr<const WorkloadSnapshot>
WorkloadSnapshot::build(WorkloadKind kind, const WorkloadParams &params,
                        const WorkloadExtras &extras)
{
    std::shared_ptr<WorkloadSnapshot> snap(new WorkloadSnapshot);
    // setup() never records, so the scheme it runs under is immaterial;
    // fork() binds the real one.
    snap->_workload = makeWorkload(kind, snap->_heap, LogScheme::Proteus,
                                   params, extras);
    snap->_workload->setup();
    return snap;
}

WorkloadSnapshot::Fork
WorkloadSnapshot::fork(LogScheme scheme) const
{
    Fork f;
    f.heap = std::make_shared<PersistentHeap>(_heap);
    f.workload = _workload->fork(*f.heap, scheme);
    return f;
}

} // namespace proteus
