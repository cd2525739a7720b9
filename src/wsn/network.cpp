#include "wsn/network.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/profile.h"
#include "obs/span.h"
#include "util/check.h"
#include "util/error.h"

namespace sid::wsn {

namespace {

// Stream ids for util::derive_seed under NetworkConfig::seed.
constexpr std::uint64_t kRadioStream = 0x7261646900ULL;
constexpr std::uint64_t kFaultStream = 0x6661756c74ULL;
constexpr std::uint64_t kClockStream = 0x636c6f636bULL;
// Beacon stream: boot-discovery sampling, and (as per-node sub-streams)
// every beacon tick's reception samples and jitter, draw from this
// dedicated derived seed, keeping the data-path radio and fault streams
// on their own draw order.
constexpr std::uint64_t kBeaconStream = 0x626561636fULL;
// Adversarial stream: all AttackPlan randomness (spoofed-beacon reception
// sampling, fabricated payload variety). Attack-free runs draw nothing
// from it, so they stay bit-identical to seed.
constexpr std::uint64_t kAttackStream = 0x6174746bULL;

// Oracle mode only: links enter the routing/flooding topology when their
// ground-truth PRR is at least this, because real WSN routing avoids the
// long, nearly-dead links at the edge of radio range. In self-healing
// mode adjacency admits *every* physically-reachable link (distance <=
// RadioConfig::max_range_m, boundary inclusive) and the learned tables'
// kMinQuality (wsn/neighbor.h) is the in-band analogue that gates link
// *use* (DESIGN.md §5f; pinned by
// NetworkTest.BoundaryLinkAdmissionMatchesRoutingMode).
constexpr double kOracleMinLinkPrr = 0.7;

// Every stochastic component's stream is offset by the master seed's
// deviation from the default: changing NetworkConfig::seed re-randomizes
// radio, clocks, and faults together (one seed determines the run), while
// the default master seed leaves each component on its historical stream
// so recorded baselines stay bit-identical.
std::uint64_t stream_offset(std::uint64_t master, std::uint64_t stream) {
  return util::derive_seed(master, stream) ^
         util::derive_seed(kDefaultNetworkSeed, stream);
}

// A plan entry naming no deployed node would silently do nothing, so
// every FaultPlan id must name one. Checked before the FaultInjector
// sizes its per-node crash array by those ids.
const FaultPlan& fault_plan_in_grid(const NetworkConfig& config) {
  const std::size_t node_count = config.rows * config.cols;
  const auto check_id = [node_count](NodeId id, const char* what) {
    util::require(id < node_count, what);
  };
  const FaultPlan& plan = config.faults;
  for (const auto& crash : plan.crashes) {
    check_id(crash.node, "FaultPlan: crash node out of grid");
  }
  for (const auto& battery : plan.battery_overrides) {
    check_id(battery.node, "FaultPlan: battery override node out of grid");
  }
  for (const auto& burst : plan.link_bursts) {
    check_id(burst.a, "FaultPlan: link burst endpoint out of grid");
    check_id(burst.b, "FaultPlan: link burst endpoint out of grid");
  }
  for (const auto& spec : plan.sensor_faults) {
    check_id(spec.node, "FaultPlan: sensor fault node out of grid");
  }
  for (const auto& spec : plan.acoustic_faults) {
    check_id(spec.node, "FaultPlan: acoustic fault node out of grid");
  }
  return plan;
}

RadioConfig derive_radio_config(const NetworkConfig& config) {
  RadioConfig radio = config.radio;
  radio.seed ^= stream_offset(config.seed, kRadioStream + radio.seed);
  return radio;
}

// Only referenced from SID_TRACE sites, which the metrics-off build
// compiles out.
[[maybe_unused]] std::string_view payload_name(const Message& msg) {
  switch (msg.payload.index()) {
    case 0: return "report";
    case 1: return "invite";
    case 2: return "decision";
    case 3: return "ack";
    case 4: return "probe";
    case 5: return "quarantine";
    case 6: return "acoustic";
    default: return "unknown";
  }
}

// Traffic classes the defense assesses (and the replayers capture):
// everything else (invites, acks, probes, notices) passes untouched.
// Acoustic contacts carry sensing evidence into fusion exactly like
// reports/decisions, so they are in the assessed class.
bool is_report_or_decision(const Message& msg) {
  return std::holds_alternative<DetectionReport>(msg.payload) ||
         std::holds_alternative<ClusterDecision>(msg.payload) ||
         std::holds_alternative<AcousticContactReport>(msg.payload);
}

}  // namespace

Network::NetCounters::NetCounters(obs::Registry& registry)
    : unicasts_attempted(registry.counter("net.unicasts_attempted")),
      unicasts_delivered(registry.counter("net.unicasts_delivered")),
      unicasts_dropped(registry.counter("net.unicasts_dropped")),
      unicasts_unroutable(registry.counter("net.unicasts_unroutable")),
      hops_traversed(registry.counter("net.hops_traversed")),
      floods(registry.counter("net.floods")),
      flood_deliveries(registry.counter("net.flood_deliveries")),
      bytes_sent(registry.counter("net.bytes_sent")),
      burst_losses(registry.counter("net.burst_losses")),
      congestion_losses(registry.counter("net.congestion_losses")),
      dead_receiver_drops(registry.counter("net.dead_receiver_drops")),
      beacons_sent(registry.counter("net.beacons_sent")),
      beacon_receptions(registry.counter("net.beacon_receptions")),
      suspicions(registry.counter("net.suspicions")),
      false_suspicions(registry.counter("net.false_suspicions")),
      route_repairs(registry.counter("net.route_repairs")),
      attack_replays(registry.counter("net.attack_replays")),
      attack_forgeries(registry.counter("net.attack_forgeries")),
      attack_clone_reports(registry.counter("net.attack_clone_reports")),
      attack_beacon_spoofs(registry.counter("net.attack_beacon_spoofs")),
      attack_acoustic_forgeries(
          registry.counter("net.attack_acoustic_forgeries")),
      defense_filtered(registry.counter("defense.filtered")),
      defense_drops(registry.counter("defense.drops")),
      defense_quarantines(registry.counter("defense.quarantines")),
      defense_false_quarantines(
          registry.counter("defense.false_quarantines")),
      defense_notices(registry.counter("defense.notices")),
      defense_spoofs_ignored(registry.counter("defense.spoofs_ignored")),
      defense_acoustic_rejects(
          registry.counter("defense.acoustic_rejects")),
      route_searches(registry.counter("net.route_searches")),
      route_nodes_settled(registry.counter("net.route_nodes_settled")),
      route_links_examined(registry.counter("net.route_links_examined")) {}

Network::Network(const NetworkConfig& config)
    : config_(config),
      counters_(registry_),
      radio_(derive_radio_config(config)),
      faults_(fault_plan_in_grid(config),
              util::derive_seed(config.seed, kFaultStream)),
      beacon_rng_(util::derive_seed(config.seed, kBeaconStream)),
      attack_rng_(util::derive_seed(config.seed, kAttackStream)) {
  util::require(config.rows > 0 && config.cols > 0,
                "Network: grid must be non-empty");
  util::require(config.spacing_m > 0.0, "Network: spacing must be positive");
  util::require(config.sink_node < config.rows * config.cols,
                "Network: sink_node out of grid");
  util::require(config.shards >= 1, "Network: shards must be at least 1");
  util::require(config.radio.hop_delay_fixed_s > 0.0,
                "Network: hop_delay_fixed_s must be positive (it is the "
                "windowed engine's lookahead)");
  // Always-on crash context: every trace/span site feeds the bounded
  // ring even while the JSONL tracer stays unarmed.
  tracer_.set_recorder(&recorder_);
  build_grid();
  build_adjacency();
  // A burst on a pair no hop joins would never fire, like an id outside
  // the grid (checked in fault_plan_in_grid).
  std::vector<std::size_t> burst_links;
  for (const auto& burst : config_.faults.link_bursts) {
    const auto slot = links_.find(burst.a, burst.b);
    util::require(slot.has_value(),
                  "FaultPlan: link burst endpoints are not radio neighbors");
    burst_links.push_back(link_of(*slot, burst.a, burst.b));
  }
  faults_.index_links(links_.ids.size() / 2, burst_links);
  if (config_.routing == RoutingMode::kSelfHealing) boot_discovery();
  // Per-node beacon streams: sub-stream 1 + id under the beacon seed.
  // Boot discovery keeps the one shared beacon_rng_.
  node_rngs_.reserve(nodes_.size());
  const std::uint64_t beacon_seed =
      util::derive_seed(config_.seed, kBeaconStream);
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    node_rngs_.emplace_back(beacon_seed, 1 + id);
  }
  const auto check_id = [this](NodeId id, const char* what) {
    util::require(id < nodes_.size(), what);
  };
  if (!config_.attacks.empty()) {
    util::require(config_.routing == RoutingMode::kSelfHealing,
                  "Network: the attack layer requires self-healing routing");
    validate_attack_plan(config_.attacks);
    for (const auto& atk : config_.attacks.replays) {
      check_id(atk.attacker, "AttackPlan: replay attacker out of grid");
    }
    for (const auto& atk : config_.attacks.forgeries) {
      check_id(atk.attacker, "AttackPlan: forgery attacker out of grid");
      util::require(atk.victim < nodes_.size() ||
                        atk.victim == kForgeAllIds,
                    "AttackPlan: forgery victim out of grid");
      check_id(atk.target, "AttackPlan: forgery target out of grid");
    }
    for (const auto& atk : config_.attacks.clones) {
      check_id(atk.host, "AttackPlan: clone host out of grid");
      check_id(atk.cloned, "AttackPlan: cloned id out of grid");
      check_id(atk.target, "AttackPlan: clone target out of grid");
    }
    for (const auto& atk : config_.attacks.beacon_spoofs) {
      check_id(atk.attacker, "AttackPlan: spoof attacker out of grid");
      check_id(atk.spoofed, "AttackPlan: spoofed id out of grid");
    }
    forgery_states_.resize(config_.attacks.forgeries.size());
    for (std::size_t i = 0; i < forgery_states_.size(); ++i) {
      // Stagger the all-ids victim cursors so concurrent forgers cover
      // the identity space instead of echoing each other.
      forgery_states_[i].next_victim = static_cast<NodeId>(
          (config_.attacks.forgeries[i].attacker * 7 + i) % nodes_.size());
    }
    clone_seqs_.reserve(config_.attacks.clones.size());
    for (const auto& atk : config_.attacks.clones) {
      clone_seqs_.push_back(atk.seq_base);
    }
    replay_captures_.assign(config_.attacks.replays.size(), 0);
    // Each replay attacker hears itself and every node within radio
    // range. Attacks run under self-healing routing, whose adjacency
    // admits exactly those nodes, so the hearing set is read off the
    // attacker's slot range; maybe_capture then tests a hop with one
    // lookup.
    replay_hearing_.assign(config_.attacks.replays.size(), {});
    for (std::size_t i = 0; i < config_.attacks.replays.size(); ++i) {
      const NodeId attacker = config_.attacks.replays[i].attacker;
      replay_hearing_[i].assign(nodes_.size(), 0);
      replay_hearing_[i][attacker] = 1;
      for (const NodeId v : neighbors(attacker)) replay_hearing_[i][v] = 1;
    }
  }
  if (config_.defense.enabled) {
    util::require(config_.routing == RoutingMode::kSelfHealing,
                  "Network: the defense layer requires self-healing routing");
    std::vector<util::Vec2> anchors;
    anchors.reserve(nodes_.size());
    for (const NodeInfo& info : nodes_) anchors.push_back(info.anchor);
    for (const NodeId g : config_.defense.guarded_nodes) {
      util::require(g < nodes_.size(), "DefenseConfig: guard out of grid");
      const auto [it, inserted] =
          guards_.emplace(g, GuardLedger(g, config_.defense, anchors));
      if (inserted) it->second.set_tracer(&tracer_);
    }
  }
  registry_.gauge("net.nodes").set(static_cast<double>(nodes_.size()));
  registry_.gauge("net.grid_rows").set(static_cast<double>(config_.rows));
  registry_.gauge("net.grid_cols").set(static_cast<double>(config_.cols));
}

void Network::build_grid() {
  nodes_.reserve(config_.rows * config_.cols);
  NodeId id = 0;
  for (std::size_t r = 0; r < config_.rows; ++r) {
    for (std::size_t c = 0; c < config_.cols; ++c) {
      const util::Vec2 anchor(static_cast<double>(c) * config_.spacing_m,
                              static_cast<double>(r) * config_.spacing_m);
      ClockConfig clock_cfg = config_.clock;
      clock_cfg.seed = (config_.seed * 1000003ULL + id) ^
                       stream_offset(config_.seed, kClockStream + clock_cfg.seed);
      const double battery_mj =
          faults_.battery_override(id).value_or(kDefaultBatteryMj);
      nodes_.emplace_back(id, anchor, static_cast<std::int32_t>(r),
                          static_cast<std::int32_t>(c), clock_cfg, battery_mj);
      ++id;
    }
  }
}

void Network::build_adjacency() {
  SID_PROFILE_STAGE(obs::Stage::kAdjacency);
  // Oracle mode reproduces the legacy baseline: links enter the topology
  // by thresholding the ground-truth PRR. Self-healing mode admits every
  // physically-reachable link (boundary inclusive — pinned by
  // NetworkTest.BoundaryLinkAdmissionMatchesRoutingMode); whether a link
  // is *used* is decided by the learned neighbor tables, never by the
  // model's true PRR.
  const bool oracle = config_.routing == RoutingMode::kOracle;
  const auto link_length = [&](std::size_t i,
                               std::size_t j) -> std::optional<double> {
    const double d = util::distance(nodes_[i].anchor, nodes_[j].anchor);
    if (!radio_.in_range(d)) return std::nullopt;
    if (oracle && radio_.prr(d) < kOracleMinLinkPrr) return std::nullopt;
    return d;
  };
  // Grid walk: build_grid puts id r * cols + c at (c * D, r * D), so no
  // node more than floor(R / D) grid steps away in either axis is in
  // range. The walk reaches one step further, so a link that rounding
  // puts exactly at R is never missed. R may be +inf: clamp the reach
  // before converting it.
  const std::size_t rows = config_.rows;
  const std::size_t cols = config_.cols;
  const auto reach = static_cast<std::size_t>(std::min(
      std::floor(radio_.config().max_range_m / config_.spacing_m) + 1.0,
      static_cast<double>(std::max(rows, cols))));
  // Every link is symmetric (distance only flips the sign of each
  // coordinate difference), so the walk covers the half of the square
  // toward higher ids, the rest of i's row and then the next rows, in
  // ascending id order, and each link is filed under both ends.
  const auto walk_higher = [&](std::size_t i, const auto& visit) {
    const std::size_t r = i / cols;
    const std::size_t c = i % cols;
    const std::size_t c_first = c > reach ? c - reach : 0;
    const std::size_t c_last = std::min(c + reach, cols - 1);
    const std::size_t r_last = std::min(r + reach, rows - 1);
    for (std::size_t row = r; row <= r_last; ++row) {
      const std::size_t first = row == r ? c + 1 : c_first;
      for (std::size_t col = first; col <= c_last; ++col) {
        visit(row * cols + col);
      }
    }
  };
  // Counting pass: sizes every array exactly before it is filled.
  const std::size_t n = nodes_.size();
  links_ = LinkSlots{};
  std::vector<std::uint32_t>& offsets = links_.offsets;
  offsets.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    walk_higher(i, [&](std::size_t j) {
      if (!link_length(i, j)) return;
      ++offsets[i + 1];
      ++offsets[j + 1];
    });
  }
  std::size_t slots = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    slots += offsets[i];
    util::require(slots <= 0xFFFFFFFFu,
                  "Network: too many links for 32-bit slots");
    offsets[i] = static_cast<std::uint32_t>(slots);
  }
  links_.ids.resize(slots);
  links_.reverse.resize(slots);
  link_base_.assign(n, 0);
  // Filling pass. Node i's range takes its lower neighbors while they are
  // walked, all before i is, then its higher ones in walk order: each
  // range ends up ascending, the order the tables and routes rely on.
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  std::size_t lower_slots = 0;  // slots toward a lower id, nodes 0..i
  for (std::size_t i = 0; i < n; ++i) {
    lower_slots += cursor[i] - offsets[i];
    link_base_[i] = static_cast<std::uint32_t>(lower_slots);
    walk_higher(i, [&](std::size_t j) {
      const std::optional<double> d = link_length(i, j);
      if (!d) return;
      const std::uint32_t ij = cursor[i]++;  // i's slot for j
      const std::uint32_t ji = cursor[j]++;  // j's slot for i
      links_.ids[ij] = static_cast<NodeId>(j);
      links_.ids[ji] = static_cast<NodeId>(i);
      links_.reverse[ij] = ji;
      links_.reverse[ji] = ij;
      longest_link_m_ = std::max(longest_link_m_, *d);
    });
  }
}

void Network::boot_discovery() {
  // Deployment-time handshake (§III-A: buoys are placed manually and
  // pre-synchronized): a few beacon rounds are exchanged while the field
  // is commissioned, seeding every table with a physically-sampled
  // estimate of each inbound link. Reception is sampled from the true
  // PRR + static extra loss through the dedicated beacon stream — the
  // estimate is *derived from samples* a real node would observe, never
  // from the model parameters themselves. Commissioning energy is out of
  // scope (batteries are topped up at deployment).
  links_.learn();
  // A booted link depends on its round outcomes alone, so each slot
  // draws its rounds into a pattern and copies that pattern's link.
  const NeighborTable::BootTable boot = NeighborTable::boot_table();
  for (NodeId u = 0; u < nodes_.size(); ++u) {
    for (std::size_t k = links_.offsets[u]; k < links_.offsets[u + 1]; ++k) {
      const NodeId v = links_.ids[k];
      const double p =
          reception_p(util::distance(nodes_[u].anchor, nodes_[v].anchor));
      std::size_t pattern = 0;
      for (std::size_t r = 0; r < kBootRounds; ++r) {
        if (beacon_rng_.bernoulli(p)) pattern |= std::size_t{1} << r;
      }
      // Orientation: slot (u, v) estimates the v -> u inbound link from
      // v's boot beacons as heard at u.
      links_.state[k] = boot.state[pattern];
      links_.cost[k] = boot.cost[pattern];
    }
  }
}

double Network::reception_p(double d) {
  for (const auto& [length, p] : p_by_length_) {
    if (length == d) return p;
  }
  const double p =
      radio_.prr(d) * (1.0 - radio_.config().extra_loss_probability);
  if (p_by_length_.size() < kMaxMemoLengths) p_by_length_.emplace_back(d, p);
  return p;
}

NodeInfo& Network::node(NodeId id) {
  util::require(id < nodes_.size(), "Network::node: bad id");
  return nodes_[id];
}

const NodeInfo& Network::node(NodeId id) const {
  util::require(id < nodes_.size(), "Network::node: bad id");
  return nodes_[id];
}

NodeId Network::id_at(std::size_t row, std::size_t col) const {
  util::require(row < config_.rows && col < config_.cols,
                "Network::id_at: out of grid");
  return static_cast<NodeId>(row * config_.cols + col);
}

std::span<const NodeId> Network::neighbors(NodeId id) const {
  util::require(id < nodes_.size(), "Network::neighbors: bad id");
  const std::uint32_t first = links_.offsets[id];
  return {links_.ids.data() + first, links_.offsets[id + 1] - first};
}

std::size_t Network::slot_of(NodeId u, NodeId v) const {
  const auto slot = links_.find(u, v);
  SID_CHECK(slot.has_value(), "no deployed link ", u, " -> ", v);
  return *slot;
}

bool Network::node_operational(NodeId id, double t) const {
  util::require(id < nodes_.size(), "Network::node_operational: bad id");
  if (nodes_[id].energy.depleted()) return false;
  if (faults_.active() && faults_.node_dead(id, t)) return false;
  return true;
}

bool Network::can_execute(NodeId id, double t) const {
  // A node's *own* liveness is not oracle knowledge — dead code does not
  // run. This is the only liveness read protocols are allowed.
  return node_operational(id, t);
}

bool Network::suspects(NodeId observer, NodeId subject) const {
  if (config_.routing != RoutingMode::kSelfHealing) return false;
  util::require(observer < nodes_.size(), "Network::suspects: bad id");
  return neighbor_table(observer).suspects(subject, events_.now());
}

const NeighborTable Network::neighbor_table(NodeId id) const {
  util::require(config_.routing == RoutingMode::kSelfHealing &&
                    id < nodes_.size(),
                "Network::neighbor_table: no table (oracle mode?)");
  // Const-overload delegation: the view is returned const, so none of
  // its mutators can be called through it.
  return const_cast<Network*>(this)->table(id);
}

void Network::note_suspicion(NodeId observer, NodeId subject, double t) {
  counters_.suspicions.add();
  // Local route repair: the suspecting node drops the link from its
  // forwarding set; when another usable neighbor remains, traffic can be
  // recomputed around the suspect immediately.
  if (table(observer).any_usable(t)) counters_.route_repairs.add();
  SID_TRACE(&tracer_, obs::Category::kNet, "suspect", t,
            {{"observer", observer}, {"subject", subject}});
}

void Network::note_false_suspicion(NodeId observer, NodeId subject,
                                   double t) {
  counters_.false_suspicions.add();
  SID_TRACE(&tracer_, obs::Category::kNet, "suspicion_cleared", t,
            {{"observer", observer}, {"subject", subject}});
}

void Network::start_beacons(double until_s) {
  if (config_.routing != RoutingMode::kSelfHealing) return;
  if (until_s <= beacons_until_) return;  // already covered
  const bool running = beacons_until_ > 0.0;
  beacons_until_ = until_s;
  if (running) return;  // live ticks reschedule against the new horizon
  const double now = events_.now();
  // Stagger first beacons uniformly over one period so the field
  // desynchronizes from the start (randomized jitter keeps it so). Each
  // node's offset comes from its own derived stream, so the schedule is
  // a function of the node alone (DESIGN.md §5l).
  for (const NodeInfo& info : nodes_) {
    const NodeId id = info.id;
    const double offset = node_rngs_[id].uniform(0.0, kBeaconPeriodS);
    beacon_lane_.schedule_at(now + offset, [this, id] { beacon_tick(id); });
  }
}

void Network::beacon_tick(NodeId id) {
  const double t = beacon_lane_.now();
  // Crash-stop / depletion: a dead node falls silent for good. Energy
  // state is frozen during phase A (spends happen at commit), so every
  // tick of a window sees the same window-start snapshot.
  if (!node_operational(id, t)) return;
  BeaconTickRecord rec;
  rec.t = t;
  rec.sender = id;
  // The sweep mutates only the sender's own slots.
  rec.suspects = table(id).sweep(t);
  for (std::uint32_t k = links_.offsets[id]; k < links_.offsets[id + 1];
       ++k) {
    const NodeId v = links_.ids[k];
    if (!node_operational(v, t)) continue;  // dead radios hear nothing
    const double p =
        reception_p(util::distance(nodes_[id].anchor, nodes_[v].anchor));
    // Reception sampling from the sender's own stream (PRR and static
    // extra loss). The *shared* fault streams (congestion windows,
    // Gilbert-Elliott chains) are applied at commit, in canonical order.
    if (!node_rngs_[id].bernoulli(p)) continue;
    // A quarantined identity's hellos are ignored: the quarantine view
    // keeps it out of forwarding sets, and letting its beacons refresh
    // link state would route traffic right back through it.
    if (!qview_.empty() && qview_[v][id] != 0) continue;
    rec.receivers.push_back(k);
  }
  beacon_outbox_.push_back(std::move(rec));
  const double next =
      t + kBeaconPeriodS + node_rngs_[id].uniform(0.0, kBeaconJitterS);
  if (next <= beacons_until_) {
    beacon_lane_.schedule_at(next, [this, id] { beacon_tick(id); });
  }
}

void Network::commit_beacon_records() {
  // Canonical commit order: (time, sender). The lane pops equal times in
  // insertion order, so the sort is what fixes the order. At most one
  // tick per sender per instant, so the order — and with it every
  // counter bump, energy spend, shared fault-stream draw and table
  // update — is a pure function of the record set.
  std::sort(beacon_outbox_.begin(), beacon_outbox_.end(),
            [](const BeaconTickRecord& a, const BeaconTickRecord& b) {
              if (a.t != b.t) return a.t < b.t;
              return a.sender < b.sender;
            });
  for (const BeaconTickRecord& rec : beacon_outbox_) {
    const NodeId u = rec.sender;
    for (const NodeId suspect : rec.suspects) {
      note_suspicion(u, suspect, rec.t);
    }
    counters_.beacons_sent.add();
    nodes_[u].energy.spend_tx(kBeaconBytes);
    counters_.bytes_sent.add(kBeaconBytes);
    for (const std::uint32_t s : rec.receivers) {
      const NodeId v = links_.ids[s];
      // The receiver's slot for the sender: the link its beacon updates.
      const std::size_t back = links_.reverse[s];
      if (faults_.active()) {
        if (faults_.congestion_drops(rec.t)) {
          counters_.congestion_losses.add();
          continue;
        }
        if (faults_.burst_drops(link_of(s, u, v))) {
          counters_.burst_losses.add();
          continue;
        }
      }
      nodes_[v].energy.spend_rx(kBeaconBytes);
      counters_.beacon_receptions.add();
      if (table(v).on_beacon_at(back)) note_false_suspicion(v, u, rec.t);
    }
  }
}

std::size_t Network::run_events() {
  // Conservative lookahead: no cross-node effect can propagate faster
  // than the fixed part of the hop delay (the exponential jitter only
  // adds to it), so the beacon ticks inside [t0, t0 + W] are causally
  // independent of one another and may run speculatively. The
  // constructor guarantees W > 0.
  const double lookahead = radio_.config().hop_delay_fixed_s;
  std::size_t executed = 0;
  for (;;) {
    // Window start = earliest pending event of the lane and the global
    // queue.
    double t0 = std::numeric_limits<double>::infinity();
    if (!events_.empty()) t0 = events_.next_time();
    if (!beacon_lane_.empty()) t0 = std::min(t0, beacon_lane_.next_time());
    if (t0 == std::numeric_limits<double>::infinity()) break;
    const double window_end = t0 + lookahead;
    SID_PROFILE_STAGE(obs::Stage::kShardWindow);
    // Phase A: the lane runs the window's beacon ticks, each drawing only
    // from its node's stream and mutating only its node's slots;
    // cross-node effects land in the outbox.
    beacon_outbox_.clear();
    executed += beacon_lane_.run_until(window_end);
    // Phase B: commit in canonical (time, sender) order.
    commit_beacon_records();
    // Phase C: the global queue (data path, attacks, telemetry) runs the
    // same window.
    executed += events_.run_until(window_end);
  }
  return executed;
}

std::size_t Network::events_executed_total() const {
  return events_.executed_total() + beacon_lane_.executed_total();
}

std::optional<std::vector<NodeId>> Network::shortest_path(NodeId from,
                                                          NodeId to,
                                                          double t) {
  SID_PROFILE_STAGE(obs::Stage::kRouting);
  util::require(from < nodes_.size() && to < nodes_.size(),
                "Network::shortest_path: bad id");
  if (config_.routing == RoutingMode::kSelfHealing) {
    return learned_path(from, to, t);
  }
  return oracle_path(from, to, t);
}

std::optional<std::vector<NodeId>> Network::learned_path(NodeId from,
                                                         NodeId to,
                                                         double t) {
  // Least-ETX search over what each relay's own table currently
  // believes: edge u -> v exists iff u's table holds v usable, weighted
  // by the expected transmission count of the estimated link. No oracle
  // input; a stale belief simply routes into a failed hop, which feeds
  // back into the estimate.
  // A dead source cannot transmit at all — that is the node's own state
  // (can_execute), not oracle knowledge about a peer.
  if (!can_execute(from, t)) return std::nullopt;
  if (from == to) return std::vector<NodeId>{from};
  constexpr double kInf = std::numeric_limits<double>::infinity();
  RouteScratch& s = route_scratch_;
  if (s.cost.empty()) {
    s.cost.assign(nodes_.size(), kInf);
    s.bound.assign(nodes_.size(), 0.0);
    // kNoParent, never kSinkId: the sink's reserved address shares the
    // numeric value, and reusing it as the search sentinel is exactly the
    // bug that made sink-addressed traffic unroutable (wsn/messages.h).
    s.parent.assign(nodes_.size(), kNoParent);
    s.slot.assign(nodes_.size(), kNotQueued);
  }
  for (const NodeId v : s.touched) {
    s.cost[v] = kInf;
    s.parent[v] = kNoParent;
    s.slot[v] = kNotQueued;
  }
  s.touched.clear();
  s.heap.clear();
  // Goal direction (DESIGN.md §5f): every usable link is a deployed link,
  // at most longest_link_m_ long, and costs ETX >= 1, so the straight-line
  // distance to `to` in longest links, shrunk by 1e-6 to absorb rounding,
  // is a consistent lower bound on the remaining cost. Ordering the heap
  // by cost + bound settles nodes with the same costs Dijkstra computes
  // while exploring only around the route. A field without links has no
  // route to bound (and 0 * inf would be NaN).
  const util::Vec2 goal = nodes_[to].anchor;
  const double bound_per_m =
      longest_link_m_ > 0.0 ? (1.0 - 1e-6) / longest_link_m_ : 0.0;
  const auto before = [](const RouteItem& a, const RouteItem& b) {
    return a.key != b.key ? a.key < b.key : a.node < b.node;
  };
  const auto place = [&s](std::size_t i, const RouteItem& item) {
    s.heap[i] = item;
    s.slot[item.node] = static_cast<std::uint32_t>(i);
  };
  const auto sift_up = [&](std::size_t i) {
    const RouteItem item = s.heap[i];
    while (i > 0 && before(item, s.heap[(i - 1) / 4])) {
      place(i, s.heap[(i - 1) / 4]);
      i = (i - 1) / 4;
    }
    place(i, item);
  };
  const auto sift_down = [&](std::size_t i) {
    const RouteItem item = s.heap[i];
    const std::size_t n = s.heap.size();
    for (std::size_t first = 4 * i + 1; first < n; first = 4 * i + 1) {
      std::size_t best = first;
      for (std::size_t k = 1; k < 4 && first + k < n; ++k) {
        if (before(s.heap[first + k], s.heap[best])) best = first + k;
      }
      if (!before(s.heap[best], item)) break;
      place(i, s.heap[best]);
      i = best;
    }
    place(i, item);
  };
  // Queues `v` at `cost`, or lowers its key if it is queued already.
  const auto enqueue = [&](NodeId v, double cost) {
    const double key = cost + s.bound[v];
    if (s.slot[v] == kNotQueued) {
      s.heap.push_back({key, v});
      sift_up(s.heap.size() - 1);
    } else {
      s.heap[s.slot[v]].key = key;
      sift_up(s.slot[v]);
    }
  };
  const auto touch = [&](NodeId v) {
    s.touched.push_back(v);
    s.bound[v] = bound_per_m * util::distance(nodes_[v].anchor, goal);
  };
  // Work is tallied here and added to the counters once per search.
  std::uint64_t settled = 0;
  std::uint64_t examined = 0;
  s.cost[from] = 0.0;
  touch(from);
  enqueue(from, 0.0);
  while (!s.heap.empty()) {
    const NodeId u = s.heap.front().node;
    s.slot[u] = kNotQueued;
    s.heap.front() = s.heap.back();
    s.heap.pop_back();
    if (!s.heap.empty()) sift_down(0);
    ++settled;
    if (u == to) break;
    const double cost_u = s.cost[u];
    // u's slots: 16 bytes of LinkCost and a 4-byte id per examined link.
    const std::size_t first = links_.offsets[u];
    const std::size_t last = links_.offsets[u + 1];
    examined += last - first;
    for (std::size_t k = first; k < last; ++k) {
      const LinkCost& link = links_.cost[k];
      if (!NeighborTable::usable(link, t)) continue;
      const NodeId v = links_.ids[k];
      // Quarantined identities are excluded as relays (but remain
      // addressable as final destinations, e.g. for transport acks).
      if (!qview_.empty() && v != to && qview_[u][v] != 0) continue;
      const double next = cost_u + link.etx;
      if (next < s.cost[v]) {
        if (s.cost[v] == kInf) touch(v);
        s.cost[v] = next;
        s.parent[v] = u;
        enqueue(v, next);
      } else if (next == s.cost[v]) {
        // Tie contract: Dijkstra settles in (cost, id) order and keeps
        // the first predecessor to reach a node's final cost. The bound
        // reorders settling, so the same predecessor is chosen here
        // explicitly: the least by (cost, id).
        const NodeId p = s.parent[v];
        if (cost_u < s.cost[p] || (cost_u == s.cost[p] && u < p)) {
          s.parent[v] = u;
        }
      }
    }
  }
  counters_.route_searches.add();
  counters_.route_nodes_settled.add(settled);
  counters_.route_links_examined.add(examined);
  if (s.parent[to] == kNoParent) return std::nullopt;
  std::vector<NodeId> path{to};
  NodeId cur = to;
  while (cur != from) {
    cur = s.parent[cur];
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::optional<std::vector<NodeId>> Network::oracle_path(NodeId from,
                                                        NodeId to,
                                                        double t) const {
  if (!node_operational(from, t) || !node_operational(to, t)) {
    return std::nullopt;
  }
  if (from == to) return std::vector<NodeId>{from};
  std::vector<NodeId> parent(nodes_.size(), kNoParent);
  std::deque<NodeId> queue{from};
  parent[from] = from;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (const NodeId v : neighbors(u)) {
      if (parent[v] != kNoParent) continue;
      if (!node_operational(v, t)) continue;  // route around dead nodes
      parent[v] = u;
      if (v == to) {
        std::vector<NodeId> path{to};
        NodeId cur = to;
        while (cur != from) {
          cur = parent[cur];
          path.push_back(cur);
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      queue.push_back(v);
    }
  }
  return std::nullopt;
}

std::optional<std::vector<NodeId>> Network::route(NodeId a, NodeId b) {
  return shortest_path(resolve_address(a), resolve_address(b),
                       events_.now());
}

void Network::set_delivery_handler(DeliveryHandler handler) {
  handler_ = std::move(handler);
}

std::optional<double> Network::try_hop(const NodeInfo& from,
                                       const NodeInfo& to,
                                       std::size_t bytes) {
  const double t = events_.now();
  if (!node_operational(from.id, t)) return std::nullopt;
  const std::size_t slot = slot_of(from.id, to.id);
  const double d = util::distance(from.anchor, to.anchor);
  const bool learning = config_.routing == RoutingMode::kSelfHealing;
  double delay = 0.0;
  for (std::size_t attempt = 0; attempt <= config_.max_retransmissions;
       ++attempt) {
    delay += radio_.hop_delay();
    nodes_[from.id].energy.spend_tx(bytes);
    counters_.bytes_sent.add(bytes);
    // A dead/depleted receiver silently wastes the attempt (the sender
    // still paid for the transmission and will retry in vain).
    if (!node_operational(to.id, t)) {
      counters_.dead_receiver_drops.add();
      SID_TRACE(&tracer_, obs::Category::kFault, "dead_receiver_drop", t,
                {{"from", from.id}, {"to", to.id}});
      continue;
    }
    if (!radio_.transmit_succeeds(d)) continue;
    if (faults_.active()) {
      if (faults_.congestion_drops(t)) {
        counters_.congestion_losses.add();
        SID_TRACE(&tracer_, obs::Category::kFault, "congestion_loss", t,
                  {{"from", from.id}, {"to", to.id}});
        continue;
      }
      if (faults_.burst_drops(link_of(slot, from.id, to.id))) {
        counters_.burst_losses.add();
        SID_TRACE(&tracer_, obs::Category::kFault, "burst_loss", t,
                  {{"from", from.id}, {"to", to.id}});
        continue;
      }
    }
    nodes_[to.id].energy.spend_rx(bytes);
    // The link-layer ack doubles as an observation of the link (and of
    // the neighbor being alive).
    if (learning && table(from.id).on_tx_success_at(slot)) {
      note_false_suspicion(from.id, to.id, t);
    }
    return delay;
  }
  // ARQ budget exhausted: negative evidence about the link. Enough of it
  // in a row fast-tracks a liveness suspicion without waiting for the
  // missed-beacon window.
  if (learning && table(from.id).on_tx_failure_at(slot, t)) {
    note_suspicion(from.id, to.id, t);
  }
  return std::nullopt;
}

UnicastOutcome Network::unicast(Message msg) {
  return unicast_from(msg.src, std::move(msg), /*adversarial=*/false);
}

UnicastOutcome Network::unicast_from(NodeId origin, Message msg,
                                     bool adversarial) {
  util::require(static_cast<bool>(handler_),
                "Network::unicast: no delivery handler set");
  util::require(msg.src < nodes_.size(), "Network::unicast: bad source id");
  util::require(origin < nodes_.size(), "Network::unicast: bad origin id");
  // Sink addressing: the reserved kSinkId resolves to the configured
  // gateway node before any routability check. Pre-fix this fell through
  // to the nonexistent-destination branch below and every sink-addressed
  // unicast died as kUnroutable (regression: wsn_test SinkSentinel*).
  msg.dst = resolve_address(msg.dst);
  counters_.unicasts_attempted.add();
  const double t = events_.now();
  SID_TRACE(&tracer_, obs::Category::kNet, "msg_tx", t,
            {{"src", msg.src},
             {"dst", msg.dst},
             {"type", payload_name(msg)},
             {"bytes", msg.wire_bytes()}});

  // No route cases, all reported under the single "no_route" trace
  // reason so counter, trace and outcome always agree (one msg_drop
  // "no_route" event per kUnroutable — asserted in wsn_test):
  //   - nonexistent destination;
  //   - dead origin (its own state: dead code does not send; for
  //     adversarial injections the origin is the compromised radio, not
  //     the claimed msg.src);
  //   - no path (below). The oracle knows a dead destination is
  //     unroutable; self-healing mode has no such knowledge — the learned
  //     path decides, and a stale belief plays out as in-flight hop
  //     failures.
  if (msg.dst >= nodes_.size() || !can_execute(origin, t)) {
    counters_.unicasts_unroutable.add();
    SID_TRACE(&tracer_, obs::Category::kNet, "msg_drop", t,
              {{"src", msg.src},
               {"dst", msg.dst},
               {"type", payload_name(msg)},
               {"reason", "no_route"}});
    return UnicastOutcome::kUnroutable;
  }

  if (origin == msg.dst) {
    // Degenerate self-delivery: no radio involved. (An adversarial
    // injection targeting the attacker's own radio delivers locally with
    // the forged src intact — the guard checks still apply.)
    counters_.unicasts_delivered.add();
    const Message delivered = msg;
    events_.schedule_after(0.0, [this, delivered] {
      deliver(delivered.dst, delivered, delivered.dst, 0.0, events_.now());
    });
    return UnicastOutcome::kDelivered;
  }

  const auto path = shortest_path(origin, msg.dst, t);
  if (!path || path->size() < 2) {
    counters_.unicasts_unroutable.add();
    SID_TRACE(&tracer_, obs::Category::kNet, "msg_drop", t,
              {{"src", msg.src},
               {"dst", msg.dst},
               {"type", payload_name(msg)},
               {"reason", "no_route"}});
    return UnicastOutcome::kUnroutable;
  }
  // Oracle routing invariant: a dead node must never be picked as a
  // relay. (Learned routes have no such guarantee — beliefs can lag
  // reality, and the failed hop is the signal that updates them.)
  if (config_.routing == RoutingMode::kOracle) {
    for (std::size_t i = 1; i + 1 < path->size(); ++i) {
      util::require(node_operational((*path)[i], t),
                    "Network::unicast: routed through a dead relay");
    }
  }

  double total_delay = 0.0;
  const std::size_t bytes = msg.wire_bytes();
  // Per-hop delays of a traced message, kept so the span records below
  // are emitted only for fully delivered transmissions (a dropped unicast
  // leaves no partial hop chain; the retry shows up as a span_wait).
  std::vector<double> hop_delays;
  if (msg.trace_id != 0) hop_delays.reserve(path->size() - 1);
  for (std::size_t i = 0; i + 1 < path->size(); ++i) {
    const auto hop_delay =
        try_hop(nodes_[(*path)[i]], nodes_[(*path)[i + 1]], bytes);
    if (!hop_delay) {
      counters_.unicasts_dropped.add();
      SID_TRACE(&tracer_, obs::Category::kNet, "msg_drop", t,
                {{"src", msg.src},
                 {"dst", msg.dst},
                 {"type", payload_name(msg)},
                 {"reason", "link_loss"},
                 {"hop", (*path)[i]}});
      return UnicastOutcome::kDropped;
    }
    total_delay += *hop_delay;
    if (msg.trace_id != 0) hop_delays.push_back(*hop_delay);
    counters_.hops_traversed.add();
  }
  counters_.unicasts_delivered.add();
  if (msg.trace_id != 0) {
    // One flight = one delivered radio transmission of a traced message.
    // The counter advances whether or not the tracer is armed, so armed
    // and unarmed same-seed runs stamp identical flight numbers.
    msg.trace_flight = ++next_flight_;
    double leg_start = t;
    for (std::size_t i = 0; i < hop_delays.size(); ++i) {
      SID_SPAN(&tracer_, obs::Category::kNet, "span_hop", leg_start,
               hop_delays[i], msg.trace_id,
               {{"flight", msg.trace_flight},
                {"from", (*path)[i]},
                {"to", (*path)[i + 1]}});
      leg_start += hop_delays[i];
    }
    SID_SPAN(&tracer_, obs::Category::kNet, "span_xmit", t, total_delay,
             msg.trace_id,
             {{"flight", msg.trace_flight},
              {"src", msg.src},
              {"dst", msg.dst},
              {"hops", hop_delays.size()}});
  }
  // Replay capture: in-window attackers overhear the broadcast medium
  // within radio range of any transmitting relay. (Adversarial traffic is
  // never re-captured — bounded replay, no self-amplification.)
  if (!adversarial && !config_.attacks.replays.empty() &&
      is_report_or_decision(msg)) {
    maybe_capture(msg, *path, t);
  }
  // The link-layer transmitter of the final hop: honest for legitimate
  // relays; a single-hop adversarial injection lies about it the same way
  // it lies about msg.src (link headers are spoofable, physics is not —
  // hence the separately-passed measured range).
  const NodeId via = (adversarial && path->size() == 2)
                         ? msg.src
                         : (*path)[path->size() - 2];
  const double via_dist_m = util::distance(
      nodes_[(*path)[path->size() - 2]].anchor, nodes_[msg.dst].anchor);
  const Message delivered = msg;
  events_.schedule_after(total_delay, [this, delivered, via, via_dist_m] {
    // A receiver that died between radio delivery and protocol
    // processing acts on nothing (dead code does not run).
    if (!node_operational(delivered.dst, events_.now())) return;
    SID_TRACE(&tracer_, obs::Category::kNet, "msg_rx", events_.now(),
              {{"src", delivered.src},
               {"dst", delivered.dst},
               {"type", payload_name(delivered)}});
    deliver(delivered.dst, delivered, via, via_dist_m, events_.now());
  });
  return UnicastOutcome::kDelivered;
}

void Network::flood(Message msg, std::size_t hops) {
  util::require(static_cast<bool>(handler_),
                "Network::flood: no delivery handler set");
  counters_.floods.add();
  const double t = events_.now();
  SID_TRACE(&tracer_, obs::Category::kNet, "flood", t,
            {{"src", msg.src},
             {"type", payload_name(msg)},
             {"hops", hops}});
  if (!can_execute(msg.src, t)) return;  // a dead source stays silent
  const bool learned = config_.routing == RoutingMode::kSelfHealing;
  // BFS out to `hops`, applying per-hop loss and accumulating delay along
  // the first successful path to each node. In self-healing mode each
  // relay forwards only over links its own table believes usable.
  struct Frontier {
    NodeId id;
    std::size_t depth;
    double delay;
  };
  std::unordered_set<NodeId> reached{msg.src};
  std::deque<Frontier> queue{{msg.src, 0, 0.0}};
  const std::size_t bytes = msg.wire_bytes();
  while (!queue.empty()) {
    const Frontier f = queue.front();
    queue.pop_front();
    if (f.depth == hops) continue;
    for (std::size_t k = links_.offsets[f.id]; k < links_.offsets[f.id + 1];
         ++k) {
      const NodeId v = links_.ids[k];
      if (reached.contains(v)) continue;
      if (learned) {
        // The relay's belief, not the oracle: quarantined or known-bad
        // links are skipped; stale beliefs just waste the hop attempt.
        if (!NeighborTable::usable(links_.cost[k], t)) continue;
        if (!qview_.empty() && qview_[f.id][v] != 0) continue;
      } else {
        if (!node_operational(v, t)) continue;  // dead nodes don't relay
      }
      const auto hop_delay = try_hop(nodes_[f.id], nodes_[v], bytes);
      if (!hop_delay) continue;
      reached.insert(v);
      const double delay = f.delay + *hop_delay;
      counters_.flood_deliveries.add();
      const NodeId via = f.id;
      const double via_dist_m =
          util::distance(nodes_[f.id].anchor, nodes_[v].anchor);
      const Message delivered = msg;
      events_.schedule_after(delay, [this, v, delivered, via, via_dist_m] {
        if (!node_operational(v, events_.now())) return;
        SID_TRACE(&tracer_, obs::Category::kNet, "msg_rx", events_.now(),
                  {{"src", delivered.src},
                   {"dst", v},
                   {"type", payload_name(delivered)},
                   {"flood", true}});
        deliver(v, delivered, via, via_dist_m, events_.now());
      });
      queue.push_back({v, f.depth + 1, delay});
    }
  }
}

const NetworkStats& Network::stats() const {
  // The registry counters are the single source of truth; the struct is
  // only a stable-ABI view assembled on demand.
  stats_view_.unicasts_attempted = counters_.unicasts_attempted.value();
  stats_view_.unicasts_delivered = counters_.unicasts_delivered.value();
  stats_view_.unicasts_dropped = counters_.unicasts_dropped.value();
  stats_view_.unicasts_unroutable = counters_.unicasts_unroutable.value();
  stats_view_.hops_traversed = counters_.hops_traversed.value();
  stats_view_.floods = counters_.floods.value();
  stats_view_.flood_deliveries = counters_.flood_deliveries.value();
  stats_view_.bytes_sent = counters_.bytes_sent.value();
  stats_view_.burst_losses = counters_.burst_losses.value();
  stats_view_.congestion_losses = counters_.congestion_losses.value();
  stats_view_.dead_receiver_drops = counters_.dead_receiver_drops.value();
  stats_view_.beacons_sent = counters_.beacons_sent.value();
  stats_view_.beacon_receptions = counters_.beacon_receptions.value();
  stats_view_.suspicions = counters_.suspicions.value();
  stats_view_.false_suspicions = counters_.false_suspicions.value();
  stats_view_.route_repairs = counters_.route_repairs.value();
  stats_view_.attack_replays = counters_.attack_replays.value();
  stats_view_.attack_forgeries = counters_.attack_forgeries.value();
  stats_view_.attack_clone_reports = counters_.attack_clone_reports.value();
  stats_view_.attack_beacon_spoofs = counters_.attack_beacon_spoofs.value();
  stats_view_.attack_acoustic_forgeries =
      counters_.attack_acoustic_forgeries.value();
  stats_view_.defense_filtered = counters_.defense_filtered.value();
  stats_view_.defense_drops = counters_.defense_drops.value();
  stats_view_.defense_quarantines = counters_.defense_quarantines.value();
  stats_view_.defense_false_quarantines =
      counters_.defense_false_quarantines.value();
  stats_view_.defense_notices = counters_.defense_notices.value();
  stats_view_.defense_spoofs_ignored =
      counters_.defense_spoofs_ignored.value();
  stats_view_.defense_acoustic_rejects =
      counters_.defense_acoustic_rejects.value();
  return stats_view_;
}

void Network::deliver(NodeId receiver, const Message& msg, NodeId via,
                      double via_dist_m, double t) {
  // Quarantine notices are network-internal control traffic: they mutate
  // the receiver's quarantine view and never reach the protocol handler
  // (protocols keep working on an unchanged message vocabulary).
  if (const auto* notice = std::get_if<QuarantineNotice>(&msg.payload)) {
    apply_notice(receiver, *notice);
    return;
  }
  if (defense_active() &&
      !defense_admit(receiver, msg, via, via_dist_m, t)) {
    return;
  }
  handler_(receiver, msg, t);
}

bool Network::defense_admit(NodeId receiver, const Message& msg, NodeId via,
                            double via_dist_m, double t) {
  // Only report/decision traffic is assessed; control traffic (invites,
  // acks, probes) is cheap to forge but useless to an attacker — it
  // carries no sensing evidence into fusion.
  if (!is_report_or_decision(msg)) return true;
  const auto it = guards_.find(receiver);
  if (it == guards_.end()) return true;  // unguarded nodes admit everything
  GuardLedger& ledger = it->second;

  // Network-level plausibility first (link-layer evidence the ledger
  // cannot see). Self-delivery (via == receiver) skips them: no radio hop
  // to check.
  if (via != receiver) {
    // The claimed final-hop transmitter must be a physical radio neighbor
    // the receiver has actually heard of — a never-beaconed link is a
    // wormhole claim.
    if (!links_.find(receiver, via).has_value()) {
      counters_.defense_filtered.add();
      SID_TRACE(&tracer_, obs::Category::kNet, "defense_filter", t,
                {{"guard", receiver}, {"via", via}, {"reason", "no_link"}});
      return false;
    }
    // RSSI-proxy range check: the physically-measured range of the final
    // hop must match the claimed transmitter's deployment geometry.
    // Identity claims are free; transmit power/physics is not.
    const double expected =
        util::distance(nodes_[via].anchor, nodes_[receiver].anchor);
    if (std::abs(via_dist_m - expected) >
        kBeaconRangeToleranceFrac * expected + kBeaconRangeSlackM) {
      counters_.defense_filtered.add();
      SID_TRACE(&tracer_, obs::Category::kNet, "defense_filter", t,
                {{"guard", receiver}, {"via", via}, {"reason", "range"}});
      return false;
    }
  }

  // Acoustic contacts take the modality-specific admission path (SNR
  // bounds, contact-stream watermarks, contact-rate window); everything
  // else takes the report/decision path.
  const bool acoustic =
      std::holds_alternative<AcousticContactReport>(msg.payload);
  const IngressVerdict verdict =
      acoustic ? ledger.assess_acoustic(msg, t) : ledger.assess(msg, t);
  if (const auto subject = ledger.quarantine_started()) {
    on_quarantine(receiver, *subject, t);
  }
  if (verdict == IngressVerdict::kAccept) return true;
  if (acoustic) counters_.defense_acoustic_rejects.add();
  if (verdict == IngressVerdict::kQuarantined) {
    counters_.defense_drops.add();
  } else {
    counters_.defense_filtered.add();
  }
  SID_TRACE(&tracer_, obs::Category::kNet, "defense_filter", t,
            {{"guard", receiver},
             {"src", msg.src},
             {"verdict", static_cast<int>(verdict)}});
  return false;
}

void Network::on_quarantine(NodeId guard, NodeId subject, double t) {
  counters_.defense_quarantines.add();
  if (!config_.attacks.implicates(subject)) {
    counters_.defense_false_quarantines.add();
  }
  SID_TRACE(&tracer_, obs::Category::kNet, "quarantine", t,
            {{"guard", guard}, {"subject", subject}});
  // Snapshot the flight-recorder ring at the anomaly: when an auto-dump
  // path is armed (sid_cli --flightrec-out) the last-N events leading up
  // to the quarantine land on disk; disarmed, this is a no-op.
  recorder_.auto_dump("quarantine");
  if (qview_.empty()) {
    qview_.assign(nodes_.size(), std::vector<std::uint8_t>(nodes_.size(), 0));
  }
  qview_[guard][subject] = 1;
  // Graceful degradation broadcast: the field learns to route around the
  // revoked identity. Notices ride the normal flood primitive (lossy,
  // energy-accounted) — no side channel.
  Message notice;
  notice.src = guard;
  notice.dst = guard;
  notice.payload = QuarantineNotice{subject, guard, true};
  counters_.defense_notices.add();
  flood(notice, config_.rows + config_.cols);
  if (quarantine_listener_) quarantine_listener_(subject, t);
}

void Network::apply_notice(NodeId receiver, const QuarantineNotice& notice) {
  if (notice.subject >= nodes_.size()) return;
  if (qview_.empty()) {
    qview_.assign(nodes_.size(), std::vector<std::uint8_t>(nodes_.size(), 0));
  }
  qview_[receiver][notice.subject] = notice.active ? 1 : 0;
}

bool Network::beacon_plausible(NodeId listener, NodeId claimed,
                               NodeId from) const {
  // Deployment positions are assigned (§III-A), so the geometry of every
  // honest link is known up front. A hello physically transmitted from
  // `from` arrives with the signal strength of the *true* range; if that
  // range is inconsistent with where the claimed sender was deployed, the
  // identity claim is implausible.
  const double measured =
      util::distance(nodes_[from].anchor, nodes_[listener].anchor);
  const double expected =
      util::distance(nodes_[claimed].anchor, nodes_[listener].anchor);
  const double tolerance =
      kBeaconRangeToleranceFrac * expected + kBeaconRangeSlackM;
  return std::abs(measured - expected) <= tolerance;
}

const GuardLedger* Network::guard_ledger(NodeId id) const {
  const auto it = guards_.find(id);
  return it == guards_.end() ? nullptr : &it->second;
}

bool Network::quarantine_view(NodeId observer, NodeId subject) const {
  if (qview_.empty()) return false;
  util::require(observer < qview_.size() && subject < qview_.size(),
                "Network::quarantine_view: bad id");
  return qview_[observer][subject] != 0;
}

void Network::set_quarantine_listener(
    std::function<void(NodeId, double)> listener) {
  quarantine_listener_ = std::move(listener);
}

void Network::start_adversary(double until_s) {
  if (config_.attacks.empty()) return;  // strictly opt-in: zero events
  if (until_s <= attacks_until_) return;
  const bool running = attacks_until_ > 0.0;
  attacks_until_ = until_s;
  if (running) return;  // live ticks reschedule against the new horizon
  const double now = events_.now();
  const auto kick = [&](double start_s, auto&& tick) {
    events_.schedule_at(std::max(now, start_s), tick);
  };
  for (std::size_t i = 0; i < config_.attacks.forgeries.size(); ++i) {
    kick(config_.attacks.forgeries[i].start_s,
         [this, i] { forgery_tick(i); });
  }
  for (std::size_t i = 0; i < config_.attacks.clones.size(); ++i) {
    kick(config_.attacks.clones[i].start_s, [this, i] { clone_tick(i); });
  }
  for (std::size_t i = 0; i < config_.attacks.beacon_spoofs.size(); ++i) {
    kick(config_.attacks.beacon_spoofs[i].start_s,
         [this, i] { spoof_tick(i); });
  }
  // Replay capture is passive: maybe_capture() hooks delivered unicasts
  // during each attack's capture window; nothing to schedule here.
}

void Network::forgery_tick(std::size_t index) {
  const ForgeryAttack& atk = config_.attacks.forgeries[index];
  ForgeryState& st = forgery_states_[index];
  const double t = events_.now();
  if (t <= std::min(atk.end_s, attacks_until_) && can_execute(atk.attacker, t)) {
    for (std::size_t b = 0; b < atk.burst; ++b) {
      NodeId victim = atk.victim;
      if (victim == kForgeAllIds) {
        victim = st.next_victim;
        st.next_victim = static_cast<NodeId>((st.next_victim + 1) %
                                             nodes_.size());
        if (victim == atk.target) continue;  // skip self-addressed forgery
      }
      Message msg;
      msg.src = victim;
      msg.dst = atk.target;
      msg.reliable = true;
      msg.e2e_seq = atk.seq_base + st.next_seq;
      const util::Vec2 position = atk.spoof_position
                                      ? nodes_[victim].anchor
                                      : nodes_[atk.attacker].anchor;
      if (atk.traffic == ForgedTraffic::kDecisions) {
        ClusterDecision d;
        d.head = victim;
        d.seq = atk.seq_base + st.next_seq;
        d.correlation = attack_rng_.uniform(0.9, 0.99);
        d.sweep_consistency = attack_rng_.uniform(0.85, 0.95);
        d.report_count = 6;
        d.intrusion = true;
        d.estimated_speed_mps = attack_rng_.uniform(6.0, 14.0);
        d.estimated_position = position;
        d.decision_local_time_s = t;
        msg.payload = d;
      } else if (atk.traffic == ForgedTraffic::kAcousticContacts) {
        // A fabricated hydrophone contact claiming the victim's identity.
        // The attacker picks a persuasive-looking SNR; whether it clears
        // the ledger's sonar-equation ceiling depends on the defense
        // configuration, not on this draw.
        AcousticContactReport c;
        c.reporter = victim;
        c.seq = atk.seq_base + st.next_seq;
        c.position = position;
        c.contact_local_time_s = t;
        c.snr_db = attack_rng_.uniform(10.0, 30.0);
        msg.payload = c;
      } else {
        DetectionReport r;
        r.reporter = victim;
        r.position = position;
        r.onset_local_time_s = t;
        r.anomaly_frequency = attack_rng_.uniform(1.0, 3.0);
        r.average_energy = attack_rng_.uniform(4.0, 8.0);
        r.peak_energy = attack_rng_.uniform(8.0, 14.0);
        r.grid_row = nodes_[victim].grid_row;
        r.grid_col = nodes_[victim].grid_col;
        r.fallback = true;  // fallback reports go straight to static heads
        msg.payload = r;
      }
      ++st.next_seq;
      counters_.attack_forgeries.add();
      if (atk.traffic == ForgedTraffic::kAcousticContacts) {
        counters_.attack_acoustic_forgeries.add();
      }
      unicast_from(atk.attacker, std::move(msg), /*adversarial=*/true);
    }
  }
  const double next = t + atk.period_s;
  if (next <= std::min(atk.end_s, attacks_until_)) {
    events_.schedule_at(next, [this, index] { forgery_tick(index); });
  }
}

void Network::clone_tick(std::size_t index) {
  const CloneAttack& atk = config_.attacks.clones[index];
  const double t = events_.now();
  if (t <= std::min(atk.end_s, attacks_until_) && can_execute(atk.host, t)) {
    // The clone speaks with the captured identity's full credentials:
    // correct anchor position, its own (racing) sequence stream. Two
    // radios emitting one identity is precisely the conflicting-evidence
    // signature the ledger's rate check keys on.
    Message msg;
    msg.src = atk.cloned;
    msg.dst = atk.target;
    msg.reliable = true;
    msg.e2e_seq = clone_seqs_[index];
    DetectionReport r;
    r.reporter = atk.cloned;
    r.position = nodes_[atk.cloned].anchor;
    r.onset_local_time_s = t;
    r.anomaly_frequency = attack_rng_.uniform(1.0, 3.0);
    r.average_energy = attack_rng_.uniform(4.0, 8.0);
    r.peak_energy = attack_rng_.uniform(8.0, 14.0);
    r.grid_row = nodes_[atk.cloned].grid_row;
    r.grid_col = nodes_[atk.cloned].grid_col;
    r.fallback = true;
    msg.payload = r;
    ++clone_seqs_[index];
    counters_.attack_clone_reports.add();
    unicast_from(atk.host, std::move(msg), /*adversarial=*/true);
  }
  const double next = t + atk.period_s;
  if (next <= std::min(atk.end_s, attacks_until_)) {
    events_.schedule_at(next, [this, index] { clone_tick(index); });
  }
}

void Network::spoof_tick(std::size_t index) {
  const BeaconSpoofAttack& atk = config_.attacks.beacon_spoofs[index];
  const double t = events_.now();
  if (t <= std::min(atk.end_s, attacks_until_) &&
      can_execute(atk.attacker, t)) {
    // Sinkhole-style hello spoofing: the attacker broadcasts beacons
    // claiming a (typically dead) identity, resurrecting it in nearby
    // tables so routes flow back through a black hole. The physical
    // broadcast originates at the attacker — reception sampling and RSSI
    // follow the attacker's geometry, which is what the defense checks.
    counters_.attack_beacon_spoofs.add();
    nodes_[atk.attacker].energy.spend_tx(kBeaconBytes);
    counters_.bytes_sent.add(kBeaconBytes);
    for (const NodeId v : neighbors(atk.attacker)) {
      if (!node_operational(v, t)) continue;
      const double p = reception_p(
          util::distance(nodes_[atk.attacker].anchor, nodes_[v].anchor));
      if (!attack_rng_.bernoulli(p)) continue;
      nodes_[v].energy.spend_rx(kBeaconBytes);
      if (!qview_.empty() && qview_[v][atk.spoofed] != 0) continue;
      if (defense_active() && !beacon_plausible(v, atk.spoofed, atk.attacker)) {
        counters_.defense_spoofs_ignored.add();
        continue;
      }
      if (table(v).on_beacon(atk.spoofed)) {
        note_false_suspicion(v, atk.spoofed, t);
      }
    }
  }
  const double next = t + atk.period_s;
  if (next <= std::min(atk.end_s, attacks_until_)) {
    events_.schedule_at(next, [this, index] { spoof_tick(index); });
  }
}

void Network::maybe_capture(const Message& msg,
                            const std::vector<NodeId>& path, double t) {
  for (std::size_t i = 0; i < config_.attacks.replays.size(); ++i) {
    const ReplayAttack& atk = config_.attacks.replays[i];
    if (t < atk.capture_start_s || t > atk.capture_end_s) continue;
    if (replay_captures_[i] >= atk.max_captures) continue;
    if (!can_execute(atk.attacker, t)) continue;
    // The attacker overhears the shared medium: any transmitting relay
    // within radio range leaks the frame. The hearing set was read off
    // the adjacency at construction, so a hop costs one lookup rather
    // than a distance computation.
    bool heard = false;
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      if (replay_hearing_[i][path[h]] != 0) {
        heard = true;
        break;
      }
    }
    if (!heard) continue;
    ++replay_captures_[i];
    const Message captured = msg;
    const NodeId attacker = atk.attacker;
    events_.schedule_after(atk.replay_delay_s, [this, captured, attacker] {
      const double now = events_.now();
      if (!can_execute(attacker, now)) return;
      counters_.attack_replays.add();
      Message replayed = captured;
      unicast_from(attacker, std::move(replayed), /*adversarial=*/true);
    });
  }
}

double Network::local_time(NodeId id, double t_true) const {
  return node(id).clock.local_time(t_true);
}

}  // namespace sid::wsn
