/**
 * @file
 * Memory request types shared by the controller, System Agent and DMA
 * engines.
 */

#ifndef VIP_MEM_MEM_TYPES_HH
#define VIP_MEM_MEM_TYPES_HH

#include <cstdint>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace vip
{

/** Physical address type. */
using Addr = std::uint64_t;

/** A DMA-style memory transaction (one sub-frame worth of data). */
struct MemRequest
{
    Addr addr = 0;
    std::uint32_t bytes = 0;
    bool write = false;
    /** Requester id, used for per-agent accounting. */
    std::uint32_t requesterId = 0;
    /** Invoked when the transaction completes (may be empty).  Held
     *  inline, so issuing a request never allocates. */
    EventCallback onComplete;
};

/**
 * Simple bump allocator for frame buffers in the simulated physical
 * address space.  Allocations are page aligned and wrap around when
 * the modelled capacity is exhausted (frame buffers are transient, so
 * reuse is fine for timing purposes).
 */
class FrameAllocator
{
  public:
    explicit FrameAllocator(Addr capacity = Addr(1) << 32)
        : _capacity(capacity)
    {}

    Addr
    allocate(std::uint64_t bytes)
    {
        constexpr Addr align = 4096;
        bytes = (bytes + align - 1) & ~(align - 1);
        if (_next + bytes > _capacity)
            _next = 0;
        Addr out = _next;
        _next += bytes;
        return out;
    }

    /** @{ bump-cursor access (checkpointing) */
    Addr cursor() const { return _next; }
    void setCursor(Addr next) { _next = next; }
    /** @} */

  private:
    Addr _capacity;
    Addr _next = 0;
};

} // namespace vip

#endif // VIP_MEM_MEM_TYPES_HH
