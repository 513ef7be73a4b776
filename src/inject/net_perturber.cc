#include "inject/net_perturber.h"

#include <algorithm>

#include "common/check.h"

namespace aer {
namespace {

bool Contains(const std::vector<int>& nodes, int node) {
  return std::find(nodes.begin(), nodes.end(), node) != nodes.end();
}

}  // namespace

NetPerturber::NetPerturber(NetPerturbConfig config, NetFaultScript script)
    : config_(config), script_(std::move(script)), rng_(config.seed) {
  AER_CHECK_GE(config_.drop_message, 0.0);
  AER_CHECK_LE(config_.drop_message, 1.0);
  AER_CHECK_GE(config_.delay_message, 0.0);
  AER_CHECK_LE(config_.delay_message, 1.0);
  AER_CHECK_GE(config_.duplicate_message, 0.0);
  AER_CHECK_LE(config_.duplicate_message, 1.0);
  AER_CHECK_GE(config_.drop_machine_hop, 0.0);
  AER_CHECK_LE(config_.drop_machine_hop, 1.0);
  AER_CHECK_GE(config_.delay_machine_hop, 0.0);
  AER_CHECK_LE(config_.delay_machine_hop, 1.0);
  AER_CHECK_GE(config_.duplicate_machine_hop, 0.0);
  AER_CHECK_LE(config_.duplicate_machine_hop, 1.0);
  AER_CHECK_GE(config_.false_success, 0.0);
  AER_CHECK_LE(config_.false_success, 1.0);
  AER_CHECK_GT(config_.max_delay, 0);

  int order = 0;
  for (std::size_t i = 0; i < script_.crashes.size(); ++i) {
    const NodeCrash& crash = script_.crashes[i];
    AER_CHECK_GE(crash.node, 0);
    NetTransition down;
    down.kind = NetTransition::Kind::kCrash;
    down.at = crash.at;
    down.node = crash.node;
    pending_.push_back({crash.at, order++, down});
    if (crash.restart_at >= 0) {
      AER_CHECK_GT(crash.restart_at, crash.at);
      NetTransition up = down;
      up.kind = NetTransition::Kind::kRestart;
      up.at = crash.restart_at;
      pending_.push_back({crash.restart_at, order++, up});
    }
  }
  for (std::size_t i = 0; i < script_.partitions.size(); ++i) {
    const LinkPartition& partition = script_.partitions[i];
    AER_CHECK_GT(partition.until, partition.from);
    NetTransition start;
    start.kind = NetTransition::Kind::kPartitionStart;
    start.at = partition.from;
    start.partition = static_cast<int>(i);
    pending_.push_back({partition.from, order++, start});
    NetTransition heal = start;
    heal.kind = NetTransition::Kind::kPartitionHeal;
    heal.at = partition.until;
    pending_.push_back({partition.until, order++, heal});
  }
  std::stable_sort(pending_.begin(), pending_.end(),
                   [](const PendingTransition& a, const PendingTransition& b) {
                     if (a.at != b.at) return a.at < b.at;
                     return a.order < b.order;
                   });
}

void NetPerturber::SetMetrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    obs_ = ObsMetrics{};
    return;
  }
  obs_.partition_drops =
      &metrics->GetCounter("aer_inject_net_partition_drops_total");
  obs_.random_drops = &metrics->GetCounter("aer_inject_net_msgs_dropped_total");
  obs_.delays = &metrics->GetCounter("aer_inject_net_msgs_delayed_total");
  obs_.duplicates =
      &metrics->GetCounter("aer_inject_net_msgs_duplicated_total");
  obs_.crashes = &metrics->GetCounter("aer_inject_coordinator_crashes_total");
  obs_.restarts =
      &metrics->GetCounter("aer_inject_coordinator_restarts_total");
  obs_.partitions_started =
      &metrics->GetCounter("aer_inject_partitions_started_total");
  obs_.partitions_healed =
      &metrics->GetCounter("aer_inject_partitions_healed_total");
  // Machine-side arms register only while enabled (see SetMetrics docs).
  if (config_.drop_machine_hop > 0.0) {
    obs_.machine_drops =
        &metrics->GetCounter("aer_inject_events_dropped_total");
  }
  if (config_.delay_machine_hop > 0.0) {
    obs_.machine_delays =
        &metrics->GetCounter("aer_inject_events_delayed_total");
  }
  if (config_.duplicate_machine_hop > 0.0) {
    obs_.machine_duplicates =
        &metrics->GetCounter("aer_inject_events_duplicated_total");
  }
  if (config_.false_success > 0.0) {
    obs_.false_successes =
        &metrics->GetCounter("aer_inject_false_successes_total");
  }
}

void NetPerturber::Apply(const NetTransition& transition) {
  switch (transition.kind) {
    case NetTransition::Kind::kCrash:
      if (!Contains(down_nodes_, transition.node)) {
        down_nodes_.push_back(transition.node);
      }
      ++stats_.crashes;
      if (obs_.crashes) obs_.crashes->Inc();
      break;
    case NetTransition::Kind::kRestart:
      std::erase(down_nodes_, transition.node);
      ++stats_.restarts;
      if (obs_.restarts) obs_.restarts->Inc();
      break;
    case NetTransition::Kind::kPartitionStart:
      if (!Contains(active_partitions_, transition.partition)) {
        active_partitions_.push_back(transition.partition);
      }
      ++stats_.partitions_started;
      if (obs_.partitions_started) obs_.partitions_started->Inc();
      break;
    case NetTransition::Kind::kPartitionHeal:
      std::erase(active_partitions_, transition.partition);
      ++stats_.partitions_healed;
      if (obs_.partitions_healed) obs_.partitions_healed->Inc();
      break;
  }
}

std::vector<NetTransition> NetPerturber::AdvanceTo(SimTime now) {
  std::vector<NetTransition> applied;
  while (next_pending_ < pending_.size() &&
         pending_[next_pending_].at <= now) {
    const NetTransition& transition = pending_[next_pending_].transition;
    Apply(transition);
    applied.push_back(transition);
    ++next_pending_;
  }
  return applied;
}

bool NetPerturber::NodeUp(int node) const {
  return !Contains(down_nodes_, node);
}

bool NetPerturber::LinkOpen(int from, int to) const {
  for (const int index : active_partitions_) {
    const LinkPartition& partition =
        script_.partitions[static_cast<std::size_t>(index)];
    const bool a_to_b =
        Contains(partition.side_a, from) && Contains(partition.side_b, to);
    const bool b_to_a =
        Contains(partition.side_b, from) && Contains(partition.side_a, to);
    if (a_to_b || (b_to_a && !partition.asymmetric)) return false;
  }
  return true;
}

NetPerturber::Routing NetPerturber::Route(SimTime now, int from, int to,
                                          SimTime base_latency) {
  AER_CHECK_GE(base_latency, 0);
  ++stats_.messages_routed;
  Routing routing;
  if (!NodeUp(from) || !NodeUp(to) || !LinkOpen(from, to)) {
    ++stats_.partition_drops;
    if (obs_.partition_drops) obs_.partition_drops->Inc();
    return routing;  // silently lost, like a real partition
  }
  routing.deliver = true;
  routing.at = now + base_latency;
  // Consume RNG only for enabled arms: a run with every probability at 0
  // draws nothing, so scripted-fault runs stay bit-identical regardless of
  // how much traffic the cluster size generates.
  if (config_.drop_message > 0.0 && rng_.NextBool(config_.drop_message)) {
    routing.deliver = false;
    ++stats_.random_drops;
    if (obs_.random_drops) obs_.random_drops->Inc();
    return routing;
  }
  if (config_.delay_message > 0.0 && rng_.NextBool(config_.delay_message)) {
    routing.at += rng_.NextInt(1, config_.max_delay);
    ++stats_.delays;
    if (obs_.delays) obs_.delays->Inc();
  }
  if (config_.duplicate_message > 0.0 &&
      rng_.NextBool(config_.duplicate_message)) {
    routing.duplicated = true;
    routing.duplicate_at =
        routing.at + rng_.NextInt(1, config_.max_delay);
    ++stats_.duplicates;
    if (obs_.duplicates) obs_.duplicates->Inc();
  }
  return routing;
}

NetPerturber::Routing NetPerturber::RouteMachineHop(SimTime now,
                                                    SimTime base_latency) {
  AER_CHECK_GE(base_latency, 0);
  ++stats_.machine_hops_routed;
  Routing routing;
  routing.deliver = true;
  routing.at = now + base_latency;
  // Same RNG discipline as Route(): disabled arms draw nothing.
  if (config_.drop_machine_hop > 0.0 &&
      rng_.NextBool(config_.drop_machine_hop)) {
    routing.deliver = false;
    ++stats_.machine_drops;
    if (obs_.machine_drops) obs_.machine_drops->Inc();
    return routing;
  }
  if (config_.delay_machine_hop > 0.0 &&
      rng_.NextBool(config_.delay_machine_hop)) {
    routing.at += rng_.NextInt(1, config_.max_delay);
    ++stats_.machine_delays;
    if (obs_.machine_delays) obs_.machine_delays->Inc();
  }
  if (config_.duplicate_machine_hop > 0.0 &&
      rng_.NextBool(config_.duplicate_machine_hop)) {
    routing.duplicated = true;
    routing.duplicate_at = routing.at + rng_.NextInt(1, config_.max_delay);
    ++stats_.machine_duplicates;
    if (obs_.machine_duplicates) obs_.machine_duplicates->Inc();
  }
  return routing;
}

bool NetPerturber::FalseSuccess() {
  if (config_.false_success <= 0.0 || !rng_.NextBool(config_.false_success)) {
    return false;
  }
  ++stats_.false_successes;
  if (obs_.false_successes) obs_.false_successes->Inc();
  return true;
}

}  // namespace aer
