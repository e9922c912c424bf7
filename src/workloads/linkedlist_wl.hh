/**
 * @file
 * LL: the Table 3 microbenchmark — variable-sized, large transactions
 * over a linked list. Each transaction updates every element of one
 * node (1024..8192 eight-byte elements), stressing the LogQ, LLT, and
 * LPQ with 20-156x more log entries per transaction.
 */

#ifndef PROTEUS_WORKLOADS_LINKEDLIST_WL_HH
#define PROTEUS_WORKLOADS_LINKEDLIST_WL_HH

#include "workload.hh"

namespace proteus {

/** Per-thread linked lists of nodes with large element arrays. */
class LinkedListWorkload : public Workload
{
  public:
    LinkedListWorkload(PersistentHeap &heap, LogScheme scheme,
                       const WorkloadParams &params,
                       const LinkedListOptions &opts);

    std::string name() const override { return "LL"; }
    std::uint64_t initOps() const override { return 0; }
    std::uint64_t simOps() const override
    {
        return std::max<std::uint64_t>(400 / _params.scale, 4);
    }
    std::string serialize(const MemoryImage &image) const override;
    std::string checkInvariants(const MemoryImage &image) const override;

    static constexpr unsigned nodesPerList = 16;

    unsigned elementsPerNode() const { return _elements; }

  protected:
    std::unique_ptr<Workload> clone() const override
    {
        return std::make_unique<LinkedListWorkload>(*this);
    }
    void allocateStructures() override;
    void doOp(unsigned thread) override;

  private:
    /** Node layout: [0] next, [8] version, [16..) elements. */
    std::uint64_t nodeBytes() const
    {
        return 16 + std::uint64_t{8} * _elements;
    }

    unsigned _elements;
    std::vector<Addr> _listHeads;       ///< per thread
    std::vector<Addr> _cursors;         ///< current node per thread
    std::vector<Addr> _locks;
};

} // namespace proteus

#endif // PROTEUS_WORKLOADS_LINKEDLIST_WL_HH
