#include "sim/network.h"

#include <cmath>
#include <stdexcept>

#include "sim/faults.h"

namespace ici::sim {

double distance(const Coord& a, const Coord& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

Network::Network(Simulator& simulator, NetworkConfig cfg) : sim_(simulator), cfg_(cfg) {}

NodeId Network::add_node(INode* node, Coord coord, double uplink_bps) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  NodeSlot slot;
  slot.endpoint = node;
  slot.coord = coord;
  slot.uplink_bps = uplink_bps > 0.0 ? uplink_bps : cfg_.default_uplink_bps;
  // Golden-ratio stride decorrelates the per-sender streams while keeping
  // them a pure function of (network seed, node id) — joiner-order
  // independent and replayable.
  slot.jitter_rng = ici::Rng(cfg_.seed ^ (0x9E3779B97F4A7C15ULL * (std::uint64_t{id} + 1)));
  nodes_.push_back(slot);
  ++online_count_;
  if (faults_ != nullptr) faults_->ensure_nodes(nodes_.size());
  return id;
}

void Network::rebind(NodeId id, INode* node) {
  if (id >= nodes_.size()) throw std::out_of_range("Network::rebind");
  nodes_[id].endpoint = node;
}

void Network::set_online(NodeId id, bool online) {
  if (id >= nodes_.size()) throw std::out_of_range("Network::set_online");
  if (nodes_[id].online == online) return;
  nodes_[id].online = online;
  if (online) {
    ++online_count_;
  } else {
    --online_count_;
  }
}

bool Network::online(NodeId id) const {
  if (id >= nodes_.size()) throw std::out_of_range("Network::online");
  return nodes_[id].online;
}

void Network::deliver(NodeId from, NodeId to, std::size_t wire, const MessagePtr& msg) {
  NodeSlot& dst = nodes_[to];
  if (!dst.online || dst.endpoint == nullptr) return;  // dropped in flight
  dst.traffic.msgs_received += 1;
  dst.traffic.bytes_received += wire;
  dst.endpoint->on_message(from, msg);
}

void Network::schedule_delivery(NodeId from, NodeId to, std::size_t wire, double transfer_us,
                                MessagePtr msg) {
  NodeSlot& src = nodes_[from];
  const SimTime start = std::max(sim_.now(), src.uplink_busy_until);
  const SimTime departure = start + static_cast<SimTime>(transfer_us);
  src.uplink_busy_until = departure;

  const double prop =
      cfg_.base_propagation_us + distance(src.coord, nodes_[to].coord) * cfg_.us_per_distance_unit;
  const double jitter = std::max(0.0, src.jitter_rng.normal(0.0, cfg_.jitter_stddev_us));
  SimTime arrival = departure + static_cast<SimTime>(prop + jitter);

  if (faults_ != nullptr) {
    // The injector rules on every delivery after the sender has paid for the
    // transmission: a dropped message still occupied the uplink. All fault
    // randomness comes from the injector's per-sender Rng, so the network
    // jitter stream above is identical with and without a plan installed.
    const FaultInjector::SendVerdict verdict = faults_->on_send(from, to, *msg);
    if (verdict.drop) return;  // charged to the sender, lost in flight
    arrival += static_cast<SimTime>(verdict.extra_delay_us);
    if (verdict.duplicate_delay_us >= 0.0) {
      sim_.schedule_for(to, arrival + static_cast<SimTime>(verdict.duplicate_delay_us),
                        [this, from, to, wire, msg] { deliver(from, to, wire, msg); });
    }
  }

  // Deliveries execute as the receiver: what its handler schedules draws
  // the receiver's tie-break keys.
  sim_.schedule_for(to, arrival, [this, from, to, wire, msg = std::move(msg)] {
    deliver(from, to, wire, msg);
  });
}

void Network::send_impl(NodeId from, NodeId to, MessagePtr msg) {
  if (from >= nodes_.size() || to >= nodes_.size())
    throw std::out_of_range("Network::send: unknown node");
  if (!msg) throw std::invalid_argument("Network::send: null message");
  NodeSlot& src = nodes_[from];
  if (!src.online) return;  // a dead node sends nothing

  const std::size_t wire = msg->wire_size() + cfg_.per_message_overhead;
  src.traffic.msgs_sent += 1;
  src.traffic.bytes_sent += wire;

  if (from == to) {
    // Loopback: no uplink charge beyond accounting, minimal scheduling
    // delay. Still routed as a delivery (sender == receiver).
    sim_.schedule_for(to, sim_.now() + 1,
                      [this, from, to, wire, msg = std::move(msg)] { deliver(from, to, wire, msg); });
    return;
  }

  const double transfer_us = static_cast<double>(wire) / src.uplink_bps * 1e6;
  schedule_delivery(from, to, wire, transfer_us, std::move(msg));
}

void Network::multicast(NodeId from, const std::vector<NodeId>& to, const MessagePtr& msg) {
  bool hoisted = false;
  std::size_t wire = 0;
  double transfer_us = 0.0;
  for (NodeId t : to) {
    if (t == from) continue;
    if (!hoisted) {
      // Validate and price the message once per fan-out, not per recipient
      // (the checks and wire_size/transfer math are recipient-invariant;
      // no event can flip `online` mid-loop). First-recipient laziness
      // keeps edge-case behavior identical to repeated send() calls.
      if (from >= nodes_.size()) throw std::out_of_range("Network::send: unknown node");
      if (!msg) throw std::invalid_argument("Network::send: null message");
      if (!nodes_[from].online) return;  // a dead node sends nothing
      wire = msg->wire_size() + cfg_.per_message_overhead;
      transfer_us = static_cast<double>(wire) / nodes_[from].uplink_bps * 1e6;
      hoisted = true;
    }
    if (t >= nodes_.size()) throw std::out_of_range("Network::send: unknown node");
    NodeSlot& src = nodes_[from];
    src.traffic.msgs_sent += 1;
    src.traffic.bytes_sent += wire;
    schedule_delivery(from, t, wire, transfer_us, MessagePtr(msg));
  }
}

const Coord& Network::coord(NodeId id) const {
  if (id >= nodes_.size()) throw std::out_of_range("Network::coord");
  return nodes_[id].coord;
}

double Network::propagation_us(NodeId a, NodeId b) const {
  if (a >= nodes_.size() || b >= nodes_.size())
    throw std::out_of_range("Network::propagation_us");
  return cfg_.base_propagation_us +
         distance(nodes_[a].coord, nodes_[b].coord) * cfg_.us_per_distance_unit;
}

const NodeTraffic& Network::traffic(NodeId id) const {
  if (id >= nodes_.size()) throw std::out_of_range("Network::traffic");
  return nodes_[id].traffic;
}

NodeTraffic Network::total_traffic() const {
  NodeTraffic total;
  for (const NodeSlot& n : nodes_) {
    total.msgs_sent += n.traffic.msgs_sent;
    total.msgs_received += n.traffic.msgs_received;
    total.bytes_sent += n.traffic.bytes_sent;
    total.bytes_received += n.traffic.bytes_received;
  }
  return total;
}

void Network::reset_traffic() {
  for (NodeSlot& n : nodes_) n.traffic = NodeTraffic{};
}

}  // namespace ici::sim
