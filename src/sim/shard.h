// The simulator runs one event lane. perfbench stamps this count into every
// result (`shards`), and its compare tool refuses host-time comparisons
// across differing stamps, so the constant stays for that stamp alone.
#pragma once

#include <cstddef>

namespace ici::sim {

/// Event lanes the simulator runs: always 1.
constexpr std::size_t default_shards() { return 1; }

}  // namespace ici::sim
