#include "sim/simulator.h"

namespace ici::sim {

std::size_t Simulator::run(std::size_t max_events) { return run_through(kNoDeadline, max_events); }

std::size_t Simulator::run_until(SimTime deadline) {
  const std::size_t n = run_through(deadline, SIZE_MAX);
  if (now_ < deadline) now_ = deadline;
  return n;
}

std::size_t Simulator::run_through(SimTime deadline, std::size_t max_events) {
  std::size_t n = 0;
  while (!queue_.empty() && n < max_events) {
    const EventQueue::NextRef nx = queue_.peek_next();
    if (nx.at > deadline) break;
    // Advance the clock before executing so the event observes its own time.
    now_ = nx.at;
    exec_node_ = nx.owner;
    queue_.run_next();
    exec_node_ = kNoOwner;
    ++n;
  }
  return n;
}

}  // namespace ici::sim
