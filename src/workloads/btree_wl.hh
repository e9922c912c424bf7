/**
 * @file
 * BT: insert or delete nodes in 16 B-trees (Table 2). Minimum degree
 * t=2 (a 2-3-4 tree): one 64-byte node holds the count, up to three
 * keys, and four children — exactly one cache line, as Table 2
 * prescribes. Insert uses preemptive splits, delete uses preemptive
 * borrow/merge (CLRS).
 */

#ifndef PROTEUS_WORKLOADS_BTREE_WL_HH
#define PROTEUS_WORKLOADS_BTREE_WL_HH

#include "workload.hh"

namespace proteus {

/** Sixteen persistent 2-3-4 trees with per-tree locks. */
class BTreeWorkload : public Workload
{
  public:
    BTreeWorkload(PersistentHeap &heap, LogScheme scheme,
                  const WorkloadParams &params);

    std::string name() const override { return "BT"; }
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
    static constexpr unsigned maxKeys = 3;

  protected:
    std::unique_ptr<Workload> clone() const override
    {
        return std::make_unique<BTreeWorkload>(*this);
    }
    void allocateStructures() override;
    void doInitOp(unsigned thread) override;
    void doOp(unsigned thread) override;

  private:
    /** In-register image of one node during an operation. */
    struct Node
    {
        Addr a = 0;
        std::uint64_t count = 0;
        std::uint64_t keys[3] = {};
        Addr child[4] = {};
        bool leaf() const { return child[0] == 0; }
    };

    std::uint64_t keyRange() const;
    void treeOp(unsigned thread, bool insert_only);

    Node readNode(TraceBuilder &tb, Addr a, Value dep = {});
    void writeNode(TraceBuilder &tb, const Node &n);

    Addr poolTake();
    void splitChild(TraceBuilder &tb, Node &parent, unsigned i);
    bool insertNonFull(TraceBuilder &tb, Addr a, std::uint64_t key);
    void deleteRec(TraceBuilder &tb, Addr a, std::uint64_t key,
                   std::vector<Addr> &freed);
    void fillChild(TraceBuilder &tb, Node &parent, unsigned i,
                   std::vector<Addr> &freed);
    /** Merge child[li + 1] and the key between them into child[li]. */
    void mergeChildren(TraceBuilder &tb, Node &parent, unsigned li,
                       std::vector<Addr> &freed);
    std::uint64_t maxKeyOf(TraceBuilder &tb, Addr a);
    std::uint64_t minKeyOf(TraceBuilder &tb, Addr a);

    std::vector<Addr> _roots;
    std::vector<Addr> _locks;

    /** Per-operation node pool (allocated before the mutation so the
     *  dry run and the recorded run use identical addresses). */
    std::vector<Addr> _pool;
    std::size_t _poolNext = 0;
};

} // namespace proteus

#endif // PROTEUS_WORKLOADS_BTREE_WL_HH
