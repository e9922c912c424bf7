/**
 * @file
 * RT: insert or delete nodes in 16 red-black trees (Table 2),
 * implemented as left-leaning red-black (LLRB) trees — every LLRB is a
 * legal red-black tree, and the recursive formulation keeps the
 * rotation/color-flip store pattern faithful.
 */

#ifndef PROTEUS_WORKLOADS_RBTREE_WL_HH
#define PROTEUS_WORKLOADS_RBTREE_WL_HH

#include "workload.hh"

namespace proteus {

/** Sixteen persistent red-black trees with per-tree locks. */
class RbTreeWorkload : public Workload
{
  public:
    RbTreeWorkload(PersistentHeap &heap, LogScheme scheme,
                   const WorkloadParams &params);

    std::string name() const override { return "RT"; }
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
        return std::make_unique<RbTreeWorkload>(*this);
    }
    void allocateStructures() override;
    void doInitOp(unsigned thread) override;
    void doOp(unsigned thread) override;

  private:
    /** Node layout: [0] key, [8] left, [16] right, [24] color(1=red). */
    std::uint64_t keyRange() const;
    void treeOp(unsigned thread, bool insert_only);

    bool isRed(TraceBuilder &tb, Addr node);
    Addr rotateLeft(TraceBuilder &tb, Addr node);
    Addr rotateRight(TraceBuilder &tb, Addr node);
    void colorFlip(TraceBuilder &tb, Addr node);
    Addr fixUp(TraceBuilder &tb, Addr node);
    Addr moveRedLeft(TraceBuilder &tb, Addr node);
    Addr moveRedRight(TraceBuilder &tb, Addr node);
    Addr insertRec(TraceBuilder &tb, Addr node, std::uint64_t key,
                   Addr new_node, bool &used);
    Addr deleteMin(TraceBuilder &tb, Addr node,
                   std::vector<Addr> &freed);
    Addr deleteRec(TraceBuilder &tb, Addr node, std::uint64_t key,
                   std::vector<Addr> &freed);
    std::uint64_t minKey(TraceBuilder &tb, Addr node);
    bool contains(TraceBuilder &tb, Addr node, std::uint64_t key);

    std::vector<Addr> _roots;
    std::vector<Addr> _locks;
};

} // namespace proteus

#endif // PROTEUS_WORKLOADS_RBTREE_WL_HH
