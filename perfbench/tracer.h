// Benchmark-side tracing: spans recorded around the benchmark's own calls
// into each layer, kept in memory and written once when the run ends.
//
// Two span kinds share one log. Phase spans (setup/*, run/*, teardown) are
// the roots; together they should cover the whole process wall time.
// Layer spans (ici.ingest, sync.join, ...) nest under the open phase and
// are the per-call detail whose cost the traced run reports as overhead.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0;
    double end_s = 0;
  };

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  /// Phase spans are recorded while `phases` is on, layer spans only while
  /// `layers` is on as well.
  void configure(bool phases, bool layers) {
    phases_ = phases;
    layers_ = phases && layers;
  }

  int open_phase(std::string_view name) { return phases_ ? push(name) : -1; }
  int open_layer(std::string_view name) { return layers_ ? push(name) : -1; }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_s = now_s();
    stack_.pop_back();
  }

  [[nodiscard]] double now_s() const { return seconds_since(origin_); }

  /// Summed duration of root spans (roots never overlap: they are opened
  /// sequentially on one thread).
  [[nodiscard]] double root_seconds() const {
    double total = 0;
    for (const Span& s : spans_) {
      if (s.parent < 0) total += s.end_s - s.start_s;
    }
    return total;
  }

  /// Chrome trace-event JSON ("X" complete events, µs), loadable in
  /// chrome://tracing or Perfetto. The parent index rides in args.
  [[nodiscard]] bool write(const std::string& path) const {
    ici::JsonWriter w;
    w.begin_object().key("traceEvents").begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      w.begin_object()
          .member("name", std::string_view(s.name))
          .member("ph", "X")
          .member("pid", 1)
          .member("tid", 1)
          .member("ts", s.start_s * 1e6)
          .member("dur", (s.end_s - s.start_s) * 1e6)
          .key("args")
          .begin_object()
          .member("id", static_cast<std::int64_t>(i))
          .member("parent", static_cast<std::int64_t>(s.parent))
          .end_object()
          .end_object();
    }
    w.end_array().end_object();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string& text = w.str();
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  int push(std::string_view name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::string(name), parent, now_s(), 0});
    const int id = static_cast<int>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
  }

  Clock::time_point origin_;
  bool phases_ = false;
  bool layers_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Runs `fn` inside a phase span and returns its host seconds.
template <typename F>
double phase(Tracer& tracer, std::string_view name, F&& fn) {
  const int id = tracer.open_phase(name);
  const auto t0 = Clock::now();
  fn();
  const double s = seconds_since(t0);
  tracer.close(id);
  return s;
}

/// Runs `fn` inside a layer span and returns its host seconds.
template <typename F>
double layer(Tracer& tracer, std::string_view name, F&& fn) {
  const int id = tracer.open_layer(name);
  const auto t0 = Clock::now();
  fn();
  const double s = seconds_since(t0);
  tracer.close(id);
  return s;
}

}  // namespace perfbench
