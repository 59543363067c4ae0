// Deterministic fault injection for the simulator core.
//
// A FaultPlan is a declarative, seed-driven description of everything that
// goes wrong in a run: crash/restart schedules per node (random sessions
// and/or scripted windows), message-level faults (drop / duplicate / extra
// delay, globally or per message class), and group-scoped network
// partitions. A FaultInjector executes the plan against a sim::Network; all
// randomness comes from one Rng seeded by the plan, so identical plans
// replay bit-identically (docs/FAULTS.md documents the contract).
//
// With no injector installed the network send path draws zero fault RNG
// values and behaves byte-identically to a fault-free build.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "sim/network.h"

namespace ici::sim {

/// Message-level fault rates. An empty type_name applies to every message
/// class; per-class entries in FaultPlan::per_type override the default for
/// their class entirely (rates are not additive).
struct MessageFaultRule {
  std::string type_name;  // MessageBase::type_name(); "" = all classes
  /// Probability a sent message is silently lost in flight (the sender is
  /// still charged: the bytes left its uplink).
  double drop_prob = 0.0;
  /// Probability the receiver sees the message twice (retransmission-style).
  double duplicate_prob = 0.0;
  /// When > 0, every delivery gains exponential extra latency of this mean.
  double extra_delay_mean_us = 0.0;

  [[nodiscard]] bool active() const {
    return drop_prob > 0.0 || duplicate_prob > 0.0 || extra_delay_mean_us > 0.0;
  }
};

/// A scripted crash: `node` goes down at `at_us` and (optionally) returns at
/// `restart_at_us` (0 = never restarts). Used by tests that need exact
/// casualty sets rather than random crash sessions.
struct CrashWindow {
  NodeId node = kNoNode;
  SimTime at_us = 0;
  SimTime restart_at_us = 0;
};

/// A network partition: for [start_us, end_us) the member set is isolated
/// from the rest of the network (messages crossing the cut are dropped,
/// intra-group traffic flows). end_us = 0 means "until the end of the run".
/// Cluster-scoped partitions pass a cluster's member list here.
struct PartitionWindow {
  std::vector<NodeId> members;
  SimTime start_us = 0;
  SimTime end_us = 0;
};

struct FaultPlan {
  /// Seeds the injector's private Rng; the whole schedule derives from it.
  std::uint64_t seed = 1;

  /// Random crash/restart sessions — the simulator's one churn model: each
  /// candidate node joins the crash set with this probability, then
  /// alternates exponential up/down sessions.
  double crash_fraction = 0.0;
  SimTime mean_uptime_us = 600'000'000;   // 10 min
  SimTime mean_downtime_us = 60'000'000;  // 1 min

  /// Class-independent message fault rates (type_name ignored).
  MessageFaultRule message;
  /// Per-class overrides keyed by MessageBase::type_name().
  std::vector<MessageFaultRule> per_type;

  /// Scripted crash windows (applied in addition to the random sessions).
  std::vector<CrashWindow> crashes;
  std::vector<PartitionWindow> partitions;

  [[nodiscard]] bool has_message_faults() const;
  /// True when the plan injects anything at all.
  [[nodiscard]] bool enabled() const;

  /// Parses a compact spec string — comma-separated key=value pairs:
  ///   seed=7,crash=0.3,up_s=600,down_s=60,drop=0.1,dup=0.02,delay_us=5000
  /// Unknown keys, out-of-range or non-finite probabilities, signed or
  /// overflowing integers, and durations that are not positive or do not
  /// fit SimTime fail with a message in *error. An empty spec parses to a
  /// disabled plan. Scripted crashes,
  /// partitions, and per-class rules are programmatic-only.
  static bool parse(std::string_view spec, FaultPlan* out, std::string* error);

  /// Canonical spec string (round-trips through parse).
  [[nodiscard]] std::string describe() const;
};

/// Deterministic tallies of everything the injector did.
struct FaultStats {
  std::uint64_t msgs_dropped = 0;     // random drops + partition drops
  std::uint64_t msgs_duplicated = 0;
  std::uint64_t msgs_delayed = 0;
  std::uint64_t partition_drops = 0;  // subset of msgs_dropped
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
};

/// Executes a FaultPlan against a Network. Construction installs the
/// message-fault hook; start() arms the crash schedule. The injector must
/// outlive all scheduled simulation events that reference it (own it next
/// to the Simulator/Network it drives, as the network facades do).
class FaultInjector {
 public:
  using Callback = std::function<void(NodeId, bool /*online*/)>;

  FaultInjector(Network& net, FaultPlan plan);
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Selects the random crash set from `candidates` and schedules their
  /// sessions plus every scripted CrashWindow. `on_change` fires after each
  /// network state flip (protocols hook repair here).
  void start(const std::vector<NodeId>& candidates, Callback on_change);

  /// Verdict for one scheduled delivery. duplicate_delay_us < 0 means "no
  /// duplicate"; otherwise a second copy arrives that much after the first.
  struct SendVerdict {
    bool drop = false;
    double extra_delay_us = 0.0;
    double duplicate_delay_us = -1.0;
  };
  /// Called by Network::schedule_delivery for every non-loopback message.
  /// Randomness comes from the *sender's* private fault stream, so draw
  /// order is the sender's send order.
  SendVerdict on_send(NodeId from, NodeId to, const MessageBase& msg);

  /// Grows the per-sender fault streams to cover node ids < n. Called by
  /// Network::add_node (harness-only contexts); each stream is a pure
  /// function of (plan seed, sender id).
  void ensure_nodes(std::size_t n);

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  /// The deterministic tallies.
  [[nodiscard]] const FaultStats& stats() const { return stats_; }
  /// Nodes the random schedule selected for crash/restart sessions.
  [[nodiscard]] const std::vector<NodeId>& crash_set() const { return crash_set_; }

 private:
  [[nodiscard]] const MessageFaultRule& rule_for(const char* type_name) const;
  [[nodiscard]] bool partitioned(NodeId a, NodeId b, SimTime now) const;
  void flip(NodeId id, bool online);
  void schedule_crash(NodeId id);
  void schedule_restart(NodeId id);

  Network& net_;
  FaultPlan plan_;
  /// Crash/restart schedule stream (start() + global flip events).
  ici::Rng rng_;
  /// Per-sender message-fault streams, indexed by node id.
  std::vector<ici::Rng> msg_rngs_;
  Callback on_change_;
  std::vector<NodeId> crash_set_;
  FaultStats stats_;
};

}  // namespace ici::sim
