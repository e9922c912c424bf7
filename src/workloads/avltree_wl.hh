/**
 * @file
 * AT: insert or delete nodes in 16 AVL trees (Table 2).
 *
 * The rebalancing path makes conservative software undo logging
 * expensive (Section 6): the SW schemes log every node the operation
 * touches, discovered with TraceBuilder::collectTouched.
 */

#ifndef PROTEUS_WORKLOADS_AVLTREE_WL_HH
#define PROTEUS_WORKLOADS_AVLTREE_WL_HH

#include "workload.hh"

namespace proteus {

/** Sixteen persistent AVL trees with per-tree locks. */
class AvlTreeWorkload : public Workload
{
  public:
    AvlTreeWorkload(PersistentHeap &heap, LogScheme scheme,
                    const WorkloadParams &params);

    std::string name() const override { return "AT"; }
    std::uint64_t initOps() const override
    {
        return 100000 / _params.initScale;
    }
    std::uint64_t simOps() const override
    {
        return 10000 / _params.scale;
    }
    std::string serialize(const MemoryImage &image) const override;
    std::string checkInvariants(const MemoryImage &image) const override;

    static constexpr unsigned numTrees = 16;
    static constexpr unsigned nodeBytes = 64;

  protected:
    std::unique_ptr<Workload> clone() const override
    {
        return std::make_unique<AvlTreeWorkload>(*this);
    }
    void allocateStructures() override;
    void doInitOp(unsigned thread) override;
    void doOp(unsigned thread) override;

  private:
    /** Node layout: [0] key, [8] left, [16] right, [24] height. */
    std::uint64_t keyRange() const;
    void treeOp(unsigned thread, bool insert_only);

    Addr insertRec(TraceBuilder &tb, Addr node, std::uint64_t key,
                   Addr new_node, bool &used, Value dep);
    Addr deleteRec(TraceBuilder &tb, Addr node, std::uint64_t key,
                   std::vector<Addr> &freed, Value dep);
    Addr fixup(TraceBuilder &tb, Addr node);
    Addr rotateLeft(TraceBuilder &tb, Addr node);
    Addr rotateRight(TraceBuilder &tb, Addr node);
    void fixHeight(TraceBuilder &tb, Addr node);
    std::uint64_t heightOf(TraceBuilder &tb, Addr node, Value dep);

    std::vector<Addr> _roots;       ///< root-pointer blocks
    std::vector<Addr> _locks;
};

} // namespace proteus

#endif // PROTEUS_WORKLOADS_AVLTREE_WL_HH
