#pragma once

/// \file session_util.hpp
/// Small helpers shared by the runtimes and the link layer.

#include <cstdint>

#include "common/types.hpp"
#include "runtime/timeout_mode.hpp"

namespace bacp::runtime {

/// Derives an independent RNG stream per channel from one session seed.
/// Each consumer (data channel, ack channel, arrival process, duplex
/// directions) uses a distinct salt so streams never collide or shift
/// when one consumer draws more numbers than another.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace bacp::runtime
