#include "obs/trace.h"

#include <stdexcept>

#include "common/thread_pool.h"

namespace ici::obs {

namespace {

// ThreadPool::parallel_for hands the coordinating thread one busy-time
// sample per chunk after the join; they aggregate under "<open span>/pool"
// ("verify/slice/pool", "encode/rs/pool", ...), so BENCH_*.json shows how
// many chunks each parallel section ran and how evenly the work split.
// Worker threads never touch the sink (see docs/THREADING.md).
void record_pool_chunks(const double* chunk_us, std::size_t count) {
  TraceSink& sink = TraceSink::global();
  const std::string& parent = sink.current_path();
  const std::string label = parent.empty() ? std::string("pool") : parent + "/pool";
  for (std::size_t i = 0; i < count; ++i) sink.record_wall(label, chunk_us[i]);
}

[[maybe_unused]] const bool g_pool_recorder_installed = [] {
  thread_pool_set_chunk_recorder(&record_pool_chunks);
  return true;
}();

}  // namespace

TraceSink& TraceSink::global() {
  static TraceSink sink;
  return sink;
}

void TraceSink::record_wall(std::string_view label, double wall_us) {
  metrics::Distribution* dist = nullptr;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    auto it = labels_.find(label);
    if (it == labels_.end()) it = labels_.emplace(std::string(label), LabelData{}).first;
    dist = &it->second.wall;  // map nodes are stable; add() outside the lock
  }
  dist->add(wall_us);
}

void TraceSink::record_sim(std::string_view label, double sim_us) {
  metrics::Distribution* dist = nullptr;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    auto it = labels_.find(label);
    if (it == labels_.end()) it = labels_.emplace(std::string(label), LabelData{}).first;
    dist = &it->second.sim;
  }
  dist->add(sim_us);
}

std::uint64_t TraceSink::set_sim_clock(SimClock clock) {
  sim_clock_ = std::move(clock);
  return ++clock_token_;
}

void TraceSink::clear_sim_clock(std::uint64_t token) {
  if (token == clock_token_) sim_clock_ = nullptr;
}

std::vector<LabelAggregate> TraceSink::aggregates() const {
  const std::lock_guard<std::mutex> lk(mu_);
  std::vector<LabelAggregate> out;
  out.reserve(labels_.size());
  for (const auto& [label, data] : labels_) {
    LabelAggregate agg;
    agg.label = label;
    agg.has_wall = data.wall.count() > 0;
    agg.has_sim = data.sim.count() > 0;
    if (agg.has_wall) agg.wall_us = metrics::summarize(data.wall);
    if (agg.has_sim) agg.sim_us = metrics::summarize(data.sim);
    if (agg.has_wall || agg.has_sim) out.push_back(std::move(agg));
  }
  return out;
}

const metrics::Distribution* TraceSink::sim_distribution(std::string_view label) const {
  const std::lock_guard<std::mutex> lk(mu_);
  const auto it = labels_.find(label);
  if (it == labels_.end() || it->second.sim.count() == 0) return nullptr;
  return &it->second.sim;
}

void TraceSink::reset() {
  const std::lock_guard<std::mutex> lk(mu_);
  labels_.clear();
  span_stack().clear();
}

std::vector<std::string>& TraceSink::span_stack() const {
  // Keyed by sink so tests using private sinks next to the global one keep
  // separate nesting. Stacks are empty except mid-span, so a stale entry
  // for a destroyed sink's address is harmless.
  thread_local std::map<const TraceSink*, std::vector<std::string>> stacks;
  return stacks[this];
}

const std::string& TraceSink::current_path() const {
  static const std::string kEmpty;
  const std::vector<std::string>& stack = span_stack();
  return stack.empty() ? kEmpty : stack.back();
}

void TraceSink::push_span(std::string effective_label) {
  span_stack().push_back(std::move(effective_label));
}

void TraceSink::pop_span() {
  std::vector<std::string>& stack = span_stack();
  if (stack.empty()) throw std::logic_error("TraceSink: span stack underflow");
  stack.pop_back();
}

Span::Span(std::string_view label, TraceSink& sink)
    : sink_(sink), wall_start_(std::chrono::steady_clock::now()) {
  const std::string& parent = sink_.current_path();
  if (parent.empty()) {
    label_.assign(label);
  } else {
    label_.reserve(parent.size() + 1 + label.size());
    label_ = parent;
    label_ += '/';
    label_ += label;
  }
  if (sink_.has_sim_clock()) {
    sim_armed_ = true;
    sim_start_ = sink_.sim_now();
  }
  sink_.push_span(label_);
}

Span::~Span() {
  sink_.pop_span();
  const auto wall_end = std::chrono::steady_clock::now();
  const double wall_us =
      std::chrono::duration<double, std::micro>(wall_end - wall_start_).count();
  sink_.record_wall(label_, wall_us);
  if (sim_armed_ && sink_.has_sim_clock()) {
    const std::uint64_t sim_end = sink_.sim_now();
    if (sim_end > sim_start_) {
      sink_.record_sim(label_, static_cast<double>(sim_end - sim_start_));
    }
  }
}

}  // namespace ici::obs
