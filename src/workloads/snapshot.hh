/**
 * @file
 * A workload's post-setup() state, built once and forked per scheme.
 *
 * setup() runs the paper's InitOps functionally, with recording off,
 * and nothing it does reads the logging scheme: the heap image, the
 * allocator state and the workload object (builders, RNGs, free lists)
 * come out identical under all six schemes. A WorkloadSnapshot holds
 * that state once per (kind, params, extras); fork() deep-copies the
 * heap and re-binds a copy of the workload to it and to one scheme,
 * which is all TraceBundle::build and a crash point's committed-prefix
 * replay need (DESIGN.md §5.14).
 *
 * A snapshot is immutable after build(): it is shared as
 * shared_ptr<const WorkloadSnapshot>, and concurrent forks only read it.
 */

#ifndef PROTEUS_WORKLOADS_SNAPSHOT_HH
#define PROTEUS_WORKLOADS_SNAPSHOT_HH

#include <memory>

#include "workload.hh"

namespace proteus {

/** A forkable post-setup() workload and heap. */
class WorkloadSnapshot
{
  public:
    /** A private, mutable copy of the snapshot under one scheme. */
    struct Fork
    {
        std::shared_ptr<PersistentHeap> heap;
        std::unique_ptr<Workload> workload;     ///< bound to *heap
    };

    /** Construct @p kind and run its setup() (the one call). */
    static std::shared_ptr<const WorkloadSnapshot>
    build(WorkloadKind kind, const WorkloadParams &params,
          const WorkloadExtras &extras);

    /**
     * Copy the heap (the post-setup volatile image and the allocator
     * state; the NVM image is left empty, as after setup()) and bind a
     * copy of the workload to it under @p scheme.
     */
    Fork fork(LogScheme scheme) const;

    const PersistentHeap &heap() const { return _heap; }
    const Workload &workload() const { return *_workload; }

  private:
    WorkloadSnapshot() = default;

    PersistentHeap _heap;
    std::unique_ptr<Workload> _workload;
};

} // namespace proteus

#endif // PROTEUS_WORKLOADS_SNAPSHOT_HH
