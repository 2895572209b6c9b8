/**
 * @file
 * The fundamental unit of all simulation input: a single memory
 * access, identified by the program counter of the load/store that
 * issued it and the byte address it touched.
 */

#ifndef GLIDER_TRACES_ACCESS_HH
#define GLIDER_TRACES_ACCESS_HH

#include <cstdint>

namespace glider {
namespace traces {

/** Log2 of the cache block size; 64-byte blocks throughout (Table 1). */
constexpr unsigned kBlockBits = 6;

/** Byte address → block (line) address. */
constexpr std::uint64_t
blockAddr(std::uint64_t byte_addr)
{
    return byte_addr >> kBlockBits;
}

// The cache's tag array marks invalid ways with an all-ones block
// address (sim::LineView); the shift keeps every real block below it.
static_assert(blockAddr(~std::uint64_t{0}) != ~std::uint64_t{0});

/**
 * One memory access. `pc` is a stable identifier for the static
 * load/store instruction (synthetic workloads assign one per call
 * site), `address` is the byte address accessed.
 */
struct AccessRecord
{
    std::uint64_t pc = 0;
    std::uint64_t address = 0;
    std::uint8_t core = 0;
    bool is_write = false;

    bool
    operator==(const AccessRecord &o) const
    {
        return pc == o.pc && address == o.address && core == o.core
            && is_write == o.is_write;
    }
};

} // namespace traces
} // namespace glider

#endif // GLIDER_TRACES_ACCESS_HH
