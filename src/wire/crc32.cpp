#include "wire/crc32.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <nmmintrin.h>
#define BACP_CRC32C_SSE42 1
#endif

namespace bacp::wire {

namespace {

constexpr std::uint32_t kPolyReflected = 0x82F63B78u;

// kTables[0] is the classic bytewise table; kTables[k][i] advances
// kTables[k-1][i] by one more zero byte, so eight lookups fold 8 bytes.
using SliceTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr SliceTables make_tables() {
    SliceTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit) {
            crc = (crc & 1u) ? (crc >> 1) ^ kPolyReflected : crc >> 1;
        }
        t[0][i] = crc;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
        for (std::size_t i = 0; i < 256; ++i) {
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
        }
    }
    return t;
}

constexpr SliceTables kTables = make_tables();

std::uint32_t load_le32(const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

// Kernels take and return the inverted running state.
using Kernel = std::uint32_t (*)(std::uint32_t, const std::uint8_t*, std::size_t);

std::uint32_t update_portable(std::uint32_t crc, const std::uint8_t* p, std::size_t n) {
    for (; n >= 8; p += 8, n -= 8) {
        const std::uint32_t lo = crc ^ load_le32(p);
        const std::uint32_t hi = load_le32(p + 4);
        crc = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
              kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
              kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
              kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
    }
    for (; n > 0; ++p, --n) {
        crc = kTables[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
    }
    return crc;
}

#ifdef BACP_CRC32C_SSE42
__attribute__((target("sse4.2"))) std::uint32_t update_sse42(std::uint32_t crc,
                                                             const std::uint8_t* p,
                                                             std::size_t n) {
    std::uint64_t wide = crc;
    for (; n >= 8; p += 8, n -= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, sizeof word);
        wide = _mm_crc32_u64(wide, word);
    }
    crc = static_cast<std::uint32_t>(wide);
    for (; n > 0; ++p, --n) {
        crc = _mm_crc32_u8(crc, *p);
    }
    return crc;
}
#endif

Kernel select_kernel() {
#ifdef BACP_CRC32C_SSE42
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2")) return update_sse42;
#endif
    return update_portable;
}

}  // namespace

std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t seed) {
    // A function-local static: chosen on the first call, after any static
    // initialisation order, and thread-safe.
    static const Kernel kernel = select_kernel();
    return ~kernel(~seed, data.data(), data.size());
}

namespace detail {

std::uint32_t crc32c_portable(std::span<const std::uint8_t> data, std::uint32_t seed) {
    return ~update_portable(~seed, data.data(), data.size());
}

}  // namespace detail

}  // namespace bacp::wire
