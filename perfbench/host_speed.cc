/**
 * @file
 * Host-speed probe (see host_speed.h).
 */

#include "host_speed.h"

#include <sys/mman.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {
namespace {

/** Fresh anonymous memory faulted in by one probe. */
constexpr std::size_t kFaultBytes = 16u << 20;

/** Each part's median time on the 4-vCPU host the benchmark was written
 *  on; only their ratios to the measured times matter. */
constexpr double kFaultReferenceS = 0.0100;
constexpr double kHashReferenceS = 0.0250;
constexpr double kTreeReferenceS = 0.0340;
constexpr double kParityReferenceS = 0.0100;

double
faultPart()
{
    Clock::time_point start = Clock::now();
    void *memory = mmap(nullptr, kFaultBytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (memory == MAP_FAILED)
        throw std::runtime_error("host-speed probe: mmap failed");
    std::memset(memory, 1, kFaultBytes);
    munmap(memory, kFaultBytes);
    return secondsSince(start);
}

/** xorshift64: a fixed key stream, the same on every probe. */
std::uint64_t
nextKey(std::uint64_t &state)
{
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state & 0xfffff;
}

template <typename Map>
double
mapPart(int inserts, int lookups)
{
    Clock::time_point start = Clock::now();
    Map map;
    std::uint64_t state = 88172645463325252ULL;
    std::uint64_t sum = 0;
    for (int i = 0; i < inserts; ++i)
        map[nextKey(state)] += static_cast<std::uint64_t>(i);
    for (int i = 0; i < lookups; ++i) {
        auto it = map.lower_bound(nextKey(state));
        if (it != map.end())
            sum += it->second;
    }
    volatile std::uint64_t sink = sum;
    (void)sink;
    return secondsSince(start);
}

/** Syndrome-style parity work, the ALU-bound shape of codec code. */
double
parityPart()
{
    static constexpr std::uint64_t kMasks[] = {
        0x5555555555555555ULL, 0x3333333333333333ULL, 0x0f0f0f0f0f0f0f0fULL,
        0x00ff00ff00ff00ffULL, 0x0000ffff0000ffffULL, 0x00000000ffffffffULL,
        0x9696969696969696ULL, 0x6969696969696969ULL,
    };
    Clock::time_point start = Clock::now();
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    std::uint64_t acc = 0;
    for (int i = 0; i < 400000; ++i) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        unsigned syndrome = 0;
        for (unsigned bit = 0; bit < 8; ++bit)
            syndrome |= (std::popcount(state & kMasks[bit]) & 1u) << bit;
        if (syndrome & 1u)
            acc += syndrome;
        else
            acc ^= state;
    }
    volatile std::uint64_t sink = acc;
    (void)sink;
    return secondsSince(start);
}

/** std::unordered_map has no lower_bound; find() plays its part. */
struct HashMap : std::unordered_map<std::uint64_t, std::uint64_t>
{
    auto lower_bound(std::uint64_t key) { return find(key); }
};

} // namespace

void
HostSpeed::probeEvery(double interval)
{
    if (samples_.empty() ||
        std::chrono::duration<double>(Clock::now() - last_).count() >=
            interval)
        probe();
}

void
HostSpeed::probe()
{
    double fault = faultPart();
    double hash = mapPart<HashMap>(100000, 200000);
    double tree = mapPart<std::map<std::uint64_t, std::uint64_t>>(50000,
                                                                  50000);
    double parity = parityPart();
    samples_.push_back((fault / kFaultReferenceS + hash / kHashReferenceS +
                        tree / kTreeReferenceS + parity / kParityReferenceS) /
                       4.0);
    last_ = Clock::now();
}

double
HostSpeed::slowdown() const
{
    return samples_.empty() ? 1.0 : median(samples_);
}

} // namespace perfbench
