#include "sim/faults.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace ici::sim {

namespace {

/// Mean gap between a delivery and its injected duplicate. Small on purpose:
/// a retransmitted datagram trails the original closely.
constexpr double kDuplicateGapMeanUs = 1'000.0;

bool parse_double(const std::string& value, double* out) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_u64(const std::string& value, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

bool FaultPlan::has_message_faults() const {
  if (message.active()) return true;
  return std::any_of(per_type.begin(), per_type.end(),
                     [](const MessageFaultRule& r) { return r.active(); });
}

bool FaultPlan::enabled() const {
  return crash_fraction > 0.0 || !crashes.empty() || !partitions.empty() ||
         has_message_faults();
}

bool FaultPlan::parse(std::string_view spec, FaultPlan* out, std::string* error) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;

    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      if (error != nullptr) *error = "fault plan: expected key=value, got '" + std::string(item) + "'";
      return false;
    }
    const std::string key(item.substr(0, eq));
    const std::string value(item.substr(eq + 1));

    double d = 0.0;
    std::uint64_t u = 0;
    bool ok = true;
    if (key == "seed") {
      ok = parse_u64(value, &plan.seed);
    } else if (key == "crash") {
      ok = parse_double(value, &plan.crash_fraction);
    } else if (key == "up_s") {
      ok = parse_double(value, &d);
      if (ok) plan.mean_uptime_us = static_cast<SimTime>(d * 1e6);
    } else if (key == "down_s") {
      ok = parse_double(value, &d);
      if (ok) plan.mean_downtime_us = static_cast<SimTime>(d * 1e6);
    } else if (key == "drop") {
      ok = parse_double(value, &plan.message.drop_prob);
    } else if (key == "dup") {
      ok = parse_double(value, &plan.message.duplicate_prob);
    } else if (key == "delay_us") {
      ok = parse_u64(value, &u);
      if (ok) plan.message.extra_delay_mean_us = static_cast<double>(u);
    } else {
      if (error != nullptr) *error = "fault plan: unknown key '" + key + "'";
      return false;
    }
    if (!ok) {
      if (error != nullptr) *error = "fault plan: bad value for '" + key + "': " + value;
      return false;
    }
  }

  for (const double p :
       {plan.crash_fraction, plan.message.drop_prob, plan.message.duplicate_prob}) {
    if (p < 0.0 || p > 1.0) {
      if (error != nullptr) *error = "fault plan: probabilities must be in [0, 1]";
      return false;
    }
  }
  if (plan.message.extra_delay_mean_us < 0.0 || plan.mean_uptime_us == 0 ||
      plan.mean_downtime_us == 0) {
    if (error != nullptr) *error = "fault plan: durations must be positive";
    return false;
  }
  *out = std::move(plan);
  if (error != nullptr) error->clear();
  return true;
}

std::string FaultPlan::describe() const {
  std::ostringstream os;
  os << "seed=" << seed << ",crash=" << crash_fraction
     << ",up_s=" << static_cast<double>(mean_uptime_us) / 1e6
     << ",down_s=" << static_cast<double>(mean_downtime_us) / 1e6
     << ",drop=" << message.drop_prob << ",dup=" << message.duplicate_prob
     << ",delay_us=" << static_cast<std::uint64_t>(message.extra_delay_mean_us);
  return os.str();
}

FaultInjector::FaultInjector(Network& net, FaultPlan plan)
    : net_(net), plan_(std::move(plan)), rng_(plan_.seed) {
  ensure_nodes(net.node_count());
  net_.install_faults(this);
}

void FaultInjector::ensure_nodes(std::size_t n) {
  msg_rngs_.reserve(n);
  while (msg_rngs_.size() < n) {
    const auto id = static_cast<std::uint64_t>(msg_rngs_.size());
    msg_rngs_.emplace_back(plan_.seed ^ (0x9E3779B97F4A7C15ULL * (id + 1)));
  }
}

FaultInjector::~FaultInjector() {
  if (net_.faults() == this) net_.install_faults(nullptr);
}

void FaultInjector::start(const std::vector<NodeId>& candidates, Callback on_change) {
  on_change_ = std::move(on_change);
  for (NodeId id : candidates) {
    if (rng_.chance(plan_.crash_fraction)) {
      crash_set_.push_back(id);
      schedule_crash(id);
    }
  }
  // Scripted windows. Deadlines at or before "now" are pushed one tick out
  // so Simulator::at never clamps (late_events stays a bug detector).
  Simulator& sim = net_.simulator();
  for (const CrashWindow& w : plan_.crashes) {
    if (w.node == kNoNode) continue;
    sim.at(std::max(w.at_us, sim.now() + 1), [this, w] {
      if (!net_.online(w.node)) return;
      flip(w.node, false);
      if (w.restart_at_us > w.at_us) {
        net_.simulator().at(std::max(w.restart_at_us, net_.simulator().now() + 1),
                            [this, node = w.node] {
                              if (net_.online(node)) return;
                              flip(node, true);
                            });
      }
    });
  }
  // Partitions need no events: membership is checked against the clock on
  // every send, so an empty queue still drains to quiescence.
}

void FaultInjector::flip(NodeId id, bool online) {
  net_.set_online(id, online);
  if (online) {
    ++stats_.restarts;
  } else {
    ++stats_.crashes;
  }
  if (on_change_) on_change_(id, online);
}

void FaultInjector::schedule_crash(NodeId id) {
  const auto delay =
      static_cast<SimTime>(rng_.exponential(static_cast<double>(plan_.mean_uptime_us)));
  net_.simulator().after(delay, [this, id] {
    if (!net_.online(id)) return;
    flip(id, false);
    schedule_restart(id);
  });
}

void FaultInjector::schedule_restart(NodeId id) {
  const auto delay =
      static_cast<SimTime>(rng_.exponential(static_cast<double>(plan_.mean_downtime_us)));
  net_.simulator().after(delay, [this, id] {
    if (net_.online(id)) return;
    flip(id, true);
    schedule_crash(id);
  });
}

const MessageFaultRule& FaultInjector::rule_for(const char* type_name) const {
  for (const MessageFaultRule& r : plan_.per_type) {
    if (std::strcmp(r.type_name.c_str(), type_name) == 0) return r;
  }
  return plan_.message;
}

bool FaultInjector::partitioned(NodeId a, NodeId b, SimTime now) const {
  for (const PartitionWindow& w : plan_.partitions) {
    if (now < w.start_us || (w.end_us != 0 && now >= w.end_us)) continue;
    const bool a_in = std::find(w.members.begin(), w.members.end(), a) != w.members.end();
    const bool b_in = std::find(w.members.begin(), w.members.end(), b) != w.members.end();
    if (a_in != b_in) return true;
  }
  return false;
}

FaultInjector::SendVerdict FaultInjector::on_send(NodeId from, NodeId to,
                                                  const MessageBase& msg) {
  SendVerdict v;
  // Partition drops are clock-driven, not random: they consume no RNG so
  // the random-fault stream stays aligned across plans that only differ in
  // partition windows.
  if (partitioned(from, to, net_.simulator().now())) {
    ++stats_.partition_drops;
    ++stats_.msgs_dropped;
    v.drop = true;
    return v;
  }
  const MessageFaultRule& rule = rule_for(msg.type_name());
  // The sender's private stream: only the sender's own handlers advance
  // it, in their execution order.
  ici::Rng& rng = msg_rngs_[from];
  if (rule.drop_prob > 0.0 && rng.chance(rule.drop_prob)) {
    ++stats_.msgs_dropped;
    v.drop = true;
    return v;
  }
  if (rule.duplicate_prob > 0.0 && rng.chance(rule.duplicate_prob)) {
    ++stats_.msgs_duplicated;
    v.duplicate_delay_us = rng.exponential(kDuplicateGapMeanUs);
  }
  if (rule.extra_delay_mean_us > 0.0) {
    ++stats_.msgs_delayed;
    v.extra_delay_us = rng.exponential(rule.extra_delay_mean_us);
  }
  return v;
}

}  // namespace ici::sim
