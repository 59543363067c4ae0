// Registry: string-keyed counters/distributions so protocol code can record
// metrics without plumbing individual objects through every call site.
// Deterministic iteration order (sorted keys) keeps experiment output stable.
#pragma once

#include <map>
#include <mutex>
#include <string>

#include "metrics/counters.h"

namespace ici::metrics {

class Registry {
 public:
  /// Finds or creates. Thread-safe: the find-or-create is mutex-guarded
  /// and std::map nodes are stable, so the returned references stay valid
  /// while other threads insert. (Counter increments and Distribution adds
  /// are themselves thread-safe.)
  Counter& counter(const std::string& name);
  Distribution& distribution(const std::string& name);

  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  [[nodiscard]] const Distribution* find_distribution(const std::string& name) const;

  /// Whole-map views for report/emission code — harness contexts only (no
  /// pool task may be inserting while iterating).
  [[nodiscard]] const std::map<std::string, Counter>& counters() const { return counters_; }
  [[nodiscard]] const std::map<std::string, Distribution>& distributions() const {
    return dists_;
  }

  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Distribution> dists_;
};

}  // namespace ici::metrics
