#pragma once

/// \file crc32.hpp
/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78).
///
/// Used as the frame integrity check.  crc32c() picks its kernel once, on
/// its first call: the SSE4.2 `crc32` instruction, 8 bytes per step, when
/// the CPU has it (x86-64), otherwise a portable slicing-by-8 table kernel.
/// Both compute the same checksum, so frames are byte-identical on every
/// host.  The seed argument continues a running checksum across buffers.

#include <cstddef>
#include <cstdint>
#include <span>

namespace bacp::wire {

/// Computes CRC-32C over \p data.  Pass a previous result as \p seed to
/// continue a running checksum across multiple buffers.
std::uint32_t crc32c(std::span<const std::uint8_t> data, std::uint32_t seed = 0);

namespace detail {

/// The portable slicing-by-8 kernel on its own, whatever the CPU has, so
/// tests cover it on hosts where crc32c() dispatches to SSE4.2.
std::uint32_t crc32c_portable(std::span<const std::uint8_t> data, std::uint32_t seed = 0);

}  // namespace detail

}  // namespace bacp::wire
