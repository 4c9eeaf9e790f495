#include "workloads/env.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"

namespace safemem {

Env::Env(Machine &machine, HeapAllocator &allocator, Tool &tool)
    : machine_(machine), allocator_(allocator), tool_(tool)
{
}

VirtAddr
Env::alloc(std::size_t size, std::uint64_t site_tag)
{
    VirtAddr addr = tool_.toolAlloc(size, stack_, site_tag);
    roots_.insert(addr);
    return addr;
}

VirtAddr
Env::callocBytes(std::size_t count, std::size_t size,
                 std::uint64_t site_tag)
{
    VirtAddr addr = tool_.toolCalloc(count, size, stack_, site_tag);
    roots_.insert(addr);
    return addr;
}

VirtAddr
Env::reallocBytes(VirtAddr addr, std::size_t new_size,
                  std::uint64_t site_tag)
{
    // The old pointer stays held until realloc returns: a leak scan
    // inside the call must still see it.
    VirtAddr fresh = tool_.toolRealloc(addr, new_size, stack_, site_tag);
    if (addr != 0)
        roots_.erase(addr);
    roots_.insert(fresh);
    return fresh;
}

void
Env::free(VirtAddr addr)
{
    roots_.erase(addr);
    tool_.toolFree(addr);
}

void
Env::dropRef(VirtAddr addr)
{
    if (!roots_.erase(addr))
        panic("Env::dropRef: ", addr, " is not a held reference");
}

void
Env::read(VirtAddr addr, void *out, std::size_t size)
{
    machine_.read(addr, out, size);
}

void
Env::write(VirtAddr addr, const void *in, std::size_t size)
{
    machine_.write(addr, in, size);
}

void
Env::fill(VirtAddr addr, std::uint8_t value, std::size_t size)
{
    std::vector<std::uint8_t> buffer(std::min<std::size_t>(size, 4096),
                                     value);
    while (size > 0) {
        std::size_t chunk = std::min(size, buffer.size());
        machine_.write(addr, buffer.data(), chunk);
        addr += chunk;
        size -= chunk;
    }
}

void
Env::copy(VirtAddr dst, VirtAddr src, std::size_t size)
{
    std::vector<std::uint8_t> buffer(std::min<std::size_t>(size, 4096));
    while (size > 0) {
        std::size_t chunk = std::min(size, buffer.size());
        machine_.read(src, buffer.data(), chunk);
        machine_.write(dst, buffer.data(), chunk);
        src += chunk;
        dst += chunk;
        size -= chunk;
    }
}

void
Env::compute(Cycles cycles)
{
    machine_.compute(cycles);
    tool_.onCompute(cycles);
}

Cycles
Env::appNow() const
{
    return machine_.clock().charged(CostCenter::Application);
}

std::vector<VirtAddr>
Env::roots() const
{
    return std::vector<VirtAddr>(roots_.begin(), roots_.end());
}

} // namespace safemem
