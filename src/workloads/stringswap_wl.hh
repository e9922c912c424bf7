/**
 * @file
 * SS: swap 256-byte strings in a large string array (Table 2).
 */

#ifndef PROTEUS_WORKLOADS_STRINGSWAP_WL_HH
#define PROTEUS_WORKLOADS_STRINGSWAP_WL_HH

#include "workload.hh"

namespace proteus {

/** One shared array of 256B strings with segment locks. */
class StringSwapWorkload : public Workload
{
  public:
    StringSwapWorkload(PersistentHeap &heap, LogScheme scheme,
                       const WorkloadParams &params);

    std::string name() const override { return "SS"; }
    std::uint64_t initOps() const override
    {
        return 20000 / _params.initScale;
    }
    std::uint64_t simOps() const override
    {
        return 50000 / _params.scale;
    }
    std::string serialize(const MemoryImage &image) const override;
    std::string checkInvariants(const MemoryImage &image) const override;

    static constexpr unsigned stringBytes = 256;
    static constexpr unsigned stringsPerLock = 256;

    std::uint64_t items() const { return _items; }

  protected:
    std::unique_ptr<Workload> clone() const override
    {
        return std::make_unique<StringSwapWorkload>(*this);
    }
    void allocateStructures() override;
    void doInitOp(unsigned thread) override;
    void doOp(unsigned thread) override;

  private:
    Addr stringAddr(std::uint64_t index) const
    {
        return _array + index * stringBytes;
    }
    void swap(unsigned thread, std::uint64_t i, std::uint64_t j);

    std::uint64_t _items;
    Addr _array = invalidAddr;
    std::vector<Addr> _locks;
};

} // namespace proteus

#endif // PROTEUS_WORKLOADS_STRINGSWAP_WL_HH
