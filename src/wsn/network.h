// The sensor network: grid deployment, multihop delivery, statistics.
//
// Deployment follows the paper (§III-A): nodes are "deployed manually in
// grid fashion", positions "assigned at the time when they are deployed",
// clocks synchronized beforehand. Delivery follows least-ETX routes over
// what each relay's learned neighbor table believes (shortest hop paths
// over the live topology in the oracle baseline); each hop applies the
// radio's loss and delay. A bounded retransmission count models
// link-layer ARQ.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "util/geometry.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "wsn/clock.h"
#include "wsn/defense.h"
#include "wsn/energy.h"
#include "wsn/event_queue.h"
#include "wsn/faults.h"
#include "wsn/messages.h"
#include "wsn/neighbor.h"
#include "wsn/radio.h"
#include "wsn/spatial_index.h"

namespace sid::wsn {

struct NodeInfo {
  NodeId id = 0;
  util::Vec2 anchor;          ///< believed (assigned) position
  std::int32_t grid_row = 0;
  std::int32_t grid_col = 0;
  NodeClock clock;
  EnergyMeter energy;

  NodeInfo(NodeId id_, util::Vec2 anchor_, std::int32_t row,
           std::int32_t col, const ClockConfig& clock_cfg,
           const EnergyConfig& energy_cfg)
      : id(id_),
        anchor(anchor_),
        grid_row(row),
        grid_col(col),
        clock(clock_cfg),
        energy(energy_cfg) {}
};

/// Default master seed (see NetworkConfig::seed). Component streams are
/// keyed to the master seed's deviation from this value, so runs at the
/// default stay bit-identical to historical baselines.
inline constexpr std::uint64_t kDefaultNetworkSeed = 51;

/// How routing and flooding learn the topology.
enum class RoutingMode {
  /// Legacy omniscient baseline: links enter the topology by thresholding
  /// the radio model's ground-truth PRR, and routes consult the global
  /// liveness oracle. Kept only as the ground-truth reference comparator:
  /// bench/robustness_sweep gates self-healing against it, and the
  /// exact-accounting tests pin per-hop drops with it (DESIGN.md §5f).
  kOracle,
  /// Distributed mode: adjacency is physical radio range only; routing
  /// and flooding consult per-node neighbor tables learned from hello
  /// beacons and delivery outcomes (wsn/neighbor). No protocol decision
  /// reads the oracle; dead nodes are discovered by missed beacons.
  kSelfHealing,
};

struct NetworkConfig {
  std::size_t rows = 6;
  std::size_t cols = 6;
  double spacing_m = 25.0;   ///< the paper's deployment distance D
  RadioConfig radio;
  ClockConfig clock;
  EnergyConfig energy;
  /// Link-layer retransmissions per hop (0 = none).
  std::size_t max_retransmissions = 2;
  /// Master seed. Every stochastic sub-component (radio, per-node
  /// clocks, fault injector) derives its stream from this single value
  /// via util::derive_seed, so one seed fully determines a run;
  /// RadioConfig::seed and ClockConfig::seed act as stream ids under it.
  /// Streams are keyed to the deviation from kDefaultNetworkSeed, so the
  /// default seed reproduces the historical baseline streams exactly.
  std::uint64_t seed = kDefaultNetworkSeed;
  /// Scheduled faults (strictly opt-in; empty plan changes nothing).
  FaultPlan faults;
  /// Topology discovery mode. Self-healing is the default: default-seed
  /// runs therefore differ from the pre-beacon baselines (see DESIGN.md
  /// §5f); the determinism contract is relative (same seed ⇒ same run),
  /// not tied to historical hashes.
  RoutingMode routing = RoutingMode::kSelfHealing;
  /// Beacon/neighbor-table knobs for self-healing mode.
  NeighborConfig neighbor;
  /// Scheduled adversarial traffic (strictly opt-in; an empty plan draws
  /// nothing and schedules nothing, keeping runs bit-identical to seed).
  /// Requires self-healing routing.
  AttackPlan attacks;
  /// Sink-side plausibility defense (strictly opt-in; with no attack
  /// traffic it changes nothing — every check passes on honest traffic
  /// and the ledger draws no randomness). Requires self-healing routing.
  DefenseConfig defense;
  /// The deployed node acting as the sink/shore gateway. Messages whose
  /// destination is the reserved kSinkId address resolve to this node at
  /// the unicast entry point (historically such messages were declared
  /// unroutable — see the kNoParent note in wsn/messages.h). SidSystem
  /// stations its sink at grid (0, 0), hence the default.
  NodeId sink_node = 0;
  /// Spatial shards of the beacon plane (K >= 1; 0 is rejected). The
  /// field is striped into K contiguous-id slices, each with its own
  /// event-queue lane, and every node draws from its own derived RNG
  /// stream; lanes and the global queue advance through a conservative
  /// time-windowed barrier (lookahead = RadioConfig::hop_delay_fixed_s,
  /// which must be positive). Runs are bit-identical for every K, so K
  /// is a throughput hint only (DESIGN.md §5l).
  std::size_t shards = 1;
};

/// Network-layer statistics. Since the observability PR this struct is a
/// *view*: the authoritative values live as counters ("net.*") in the
/// network's obs::Registry, and Network::stats() rebuilds the struct from
/// them on demand, so the two can never disagree.
struct NetworkStats {
  std::size_t unicasts_attempted = 0;
  std::size_t unicasts_delivered = 0;
  std::size_t unicasts_dropped = 0;
  /// Unicasts that never left the source because no route existed: the
  /// destination is dead/depleted, the source is dead, or the live
  /// topology is partitioned. Distinct from lossy in-flight drops.
  std::size_t unicasts_unroutable = 0;
  std::size_t hops_traversed = 0;
  std::size_t floods = 0;
  std::size_t flood_deliveries = 0;
  std::size_t bytes_sent = 0;
  /// Transmission attempts killed by Gilbert–Elliott burst loss.
  std::size_t burst_losses = 0;
  /// Transmission attempts killed inside a congestion window.
  std::size_t congestion_losses = 0;
  /// Transmission attempts whose receiver was dead/depleted (the sender
  /// still spent transmit energy).
  std::size_t dead_receiver_drops = 0;
  /// Hello beacons broadcast (self-healing mode).
  std::size_t beacons_sent = 0;
  /// Hello-beacon receptions across all nodes.
  std::size_t beacon_receptions = 0;
  /// Fresh liveness suspicions raised by neighbor tables.
  std::size_t suspicions = 0;
  /// Suspicions later cleared by direct evidence of life (the neighbor
  /// was alive all along — e.g. a loss burst, not a crash).
  std::size_t false_suspicions = 0;
  /// Suspicions where the suspecting node still had a live forwarding
  /// alternative (local route repair was possible immediately).
  std::size_t route_repairs = 0;
  /// Adversarial layer: messages injected per attack class.
  std::size_t attack_replays = 0;
  std::size_t attack_forgeries = 0;
  std::size_t attack_clone_reports = 0;
  std::size_t attack_beacon_spoofs = 0;
  /// Forged acoustic contacts injected (ForgedTraffic::kAcousticContacts).
  std::size_t attack_acoustic_forgeries = 0;
  /// Defense layer: tier-1 per-message filter drops at guard nodes.
  std::size_t defense_filtered = 0;
  /// Messages dropped because their claimed identity was quarantined.
  std::size_t defense_drops = 0;
  /// Fresh identity quarantines across all guards.
  std::size_t defense_quarantines = 0;
  /// Quarantines of identities the attack plan never implicated.
  std::size_t defense_false_quarantines = 0;
  /// QuarantineNotice floods originated by guards.
  std::size_t defense_notices = 0;
  /// Hello beacons ignored for range/quarantine implausibility.
  std::size_t defense_spoofs_ignored = 0;
  /// Acoustic contacts rejected by the ledger's modality checks (SNR
  /// bounds, contact-stream watermarks, contact-rate window).
  std::size_t defense_acoustic_rejects = 0;
};

/// Synchronous outcome of a unicast (the simulator resolves every hop at
/// send time; delivery-handler invocation is only deferred by the
/// accumulated latency). Protocols use it as a transport-level ack to
/// drive retry/backoff.
enum class UnicastOutcome {
  kDelivered,   ///< all hops succeeded; handler scheduled
  kDropped,     ///< lost in flight (link loss after retransmissions)
  kUnroutable,  ///< no live route from source to destination
};

class Network {
 public:
  /// Handler invoked when a message reaches its destination node (or any
  /// node, for floods). Arguments: receiving node id, message, true
  /// delivery time.
  using DeliveryHandler =
      std::function<void(NodeId receiver, const Message& msg, double time)>;

  explicit Network(const NetworkConfig& config);

  /// The global queue (data path, protocol timers, attacks, telemetry).
  /// Schedule on it freely, but drive it only through run_events():
  /// draining it directly would leave the beacon lanes idle.
  EventQueue& events() { return events_; }
  const NetworkConfig& config() const { return config_; }

  /// Runs the simulation to completion through the windowed engine
  /// (beacon lanes + global queue, DESIGN.md §5l). Returns the number of
  /// events executed.
  std::size_t run_events();

  /// Events executed so far across the global queue and all shard lanes.
  std::size_t events_executed_total() const;

  /// The node kSinkId-addressed messages resolve to.
  NodeId sink_node() const { return config_.sink_node; }

  std::size_t node_count() const { return nodes_.size(); }
  NodeInfo& node(NodeId id);
  const NodeInfo& node(NodeId id) const;
  const std::vector<NodeInfo>& nodes() const { return nodes_; }

  /// Node id at grid (row, col).
  NodeId id_at(std::size_t row, std::size_t col) const;

  /// Ids of direct radio neighbors of `id`. Oracle mode: links above the
  /// ground-truth PRR threshold (legacy baseline). Self-healing mode:
  /// every physically-reachable link; whether a link is *used* is the
  /// learned neighbor table's call at traversal time.
  const std::vector<NodeId>& neighbors(NodeId id) const;

  /// The route a unicast from `a` to `b` would take now, endpoints
  /// included (kSinkId resolves to the gateway): the least-ETX learned
  /// route in self-healing mode, the oracle's shortest live hop path
  /// otherwise. nullopt when no route exists. Hop count is size() - 1.
  std::optional<std::vector<NodeId>> route(NodeId a, NodeId b);

  /// True when `id` can participate in the network at time `t`: not
  /// crash-stopped by the fault plan and battery not depleted. A
  /// non-operational node neither transmits, receives, routes, nor
  /// samples. This is the *oracle*: outside this class only can_execute
  /// (a node's self-check) may consume it — scripts/lint.py enforces the
  /// funnel.
  bool node_operational(NodeId id, double t) const;

  /// A node's own liveness self-check: whether `id` is physically able
  /// to run code at time `t`. A node trivially knows if it is alive, so
  /// protocols may gate *their own* actions on this; querying another
  /// node's liveness must go through the beacon/suspicion machinery
  /// (suspects(), probe + kGaveUp).
  bool can_execute(NodeId id, double t) const;

  /// In-band liveness belief: true while `observer`'s own neighbor table
  /// actively suspects `subject` dead. Always false in oracle mode and
  /// for non-neighbors (a node has no direct belief about distant nodes).
  bool suspects(NodeId observer, NodeId subject) const;

  /// Read access to a node's neighbor table (empty in oracle mode).
  const NeighborTable& neighbor_table(NodeId id) const;

  /// Starts (or extends) the periodic hello-beacon processes through
  /// simulated time `until_s`. Self-healing mode only (no-op otherwise).
  /// The horizon keeps run_events() terminating; callers pass their
  /// scenario duration plus slack for late protocol traffic.
  void start_beacons(double until_s);

  /// Starts the AttackPlan's adversarial processes (forgery/clone/spoof
  /// ticks, replay capture) bounded by simulated time `until_s`. No-op
  /// for an empty plan: no events, no RNG draws, bit-identical runs.
  void start_adversary(double until_s);

  /// True when the plausibility defense is enabled for this run.
  bool defense_active() const { return config_.defense.enabled; }

  /// Read access to a guard node's suspicion ledger (nullptr when `id`
  /// is not guarded or the defense is disabled).
  const GuardLedger* guard_ledger(NodeId id) const;

  /// True while `observer`'s quarantine view (its own ledger, or flooded
  /// QuarantineNotices) excludes `subject`.
  bool quarantine_view(NodeId observer, NodeId subject) const;

  /// Invoked on every fresh quarantine (subject, sim time). Higher layers
  /// use it to drop tainted per-source transport state.
  void set_quarantine_listener(std::function<void(NodeId, double)> listener);

  RoutingMode routing_mode() const { return config_.routing; }

  /// Read access to the fault layer (crash schedule, sensor faults).
  const FaultInjector& faults() const { return faults_; }

  void set_delivery_handler(DeliveryHandler handler);

  /// Sends `msg` from msg.src to msg.dst along route(msg.src, msg.dst),
  /// recomputed per message from current beliefs (the live topology in
  /// oracle mode). Each hop may fail (after retransmissions the whole
  /// message drops). On success the delivery handler fires at the
  /// accumulated delay.
  UnicastOutcome unicast(Message msg);

  /// Floods `msg` from msg.src to every node within `hops` hops. The
  /// delivery handler fires once per reached node (not for the source).
  void flood(Message msg, std::size_t hops);

  /// Network statistics, rebuilt from the registry counters on each call
  /// (the returned reference stays valid but is overwritten by the next
  /// call).
  const NetworkStats& stats() const;

  /// The simulation-wide metrics registry. The network registers its own
  /// "net.*" counters here; higher layers (SidSystem) add theirs so one
  /// dump covers the whole run.
  obs::Registry& registry() { return registry_; }
  const obs::Registry& registry() const { return registry_; }

  /// The structured event tracer (disabled until opened/attached).
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }

  /// The always-on crash flight recorder: attached to the tracer at
  /// construction, it retains the last obs::FlightRecorder::kDefaultCapacity
  /// trace/span events even when the JSONL tracer is unarmed. Snapshots
  /// are taken automatically on quarantine onset (when an auto-dump path
  /// is armed) and on SID_CHECK failure (when install_crash_dump ran).
  obs::FlightRecorder& flight_recorder() { return recorder_; }
  const obs::FlightRecorder& flight_recorder() const { return recorder_; }

  /// True time -> local timestamp for a node (convenience).
  double local_time(NodeId id, double t_true) const;

 private:
  void build_grid();
  void build_adjacency();
  /// Deployment-time neighbor discovery (self-healing mode): seeds every
  /// node's table from a few physically-sampled boot beacon rounds.
  void boot_discovery();
  /// kSinkId-to-gateway address aliasing (see NetworkConfig::sink_node);
  /// every other id passes through unchanged.
  NodeId resolve_address(NodeId id) const {
    return id == kSinkId ? config_.sink_node : id;
  }
  /// Windowed engine (DESIGN.md §5l) --------------------------------------
  /// One cross-node interaction computed speculatively inside a shard
  /// window: a node's beacon broadcast plus the fresh suspicions its
  /// table sweep raised. Committed serially in canonical (time, sender)
  /// order, which makes the result independent of the shard count.
  struct BeaconTickRecord {
    double t = 0.0;
    NodeId sender = 0;
    /// Fresh suspicions raised by the pre-broadcast table sweep.
    std::vector<NodeId> suspects;
    /// Neighbors that sampled a successful reception (operational and
    /// un-quarantined at window start); fault-stream loss is applied at
    /// commit so the shared Gilbert–Elliott chains advance canonically.
    std::vector<NodeId> receivers;
  };
  struct Shard {
    NodeId begin = 0;  ///< first owned node id
    NodeId end = 0;    ///< one past the last owned node id
    EventQueue lane;   ///< beacon-plane events of the owned slice
    std::vector<BeaconTickRecord> records;  ///< window outbox
  };
  /// Builds shard stripes, per-node RNG streams and the worker pool.
  void build_shards();
  /// Phase-A beacon tick inside shard `s`: sweeps the sender's table,
  /// samples its hello's receptions from the sender's own derived stream,
  /// appends the cross-node effects to the shard's outbox, and
  /// reschedules until the beacon horizon.
  void beacon_tick(std::size_t s, NodeId id);
  /// Commits one window's outboxes in canonical (time, sender) order.
  void commit_beacon_records();
  /// Routing dispatch: oracle BFS or the learned-table ETX search.
  std::optional<std::vector<NodeId>> shortest_path(NodeId from, NodeId to,
                                                   double t);
  /// Legacy oracle BFS over the live topology at time `t`; nullopt when
  /// either endpoint is dead.
  std::optional<std::vector<NodeId>> oracle_path(NodeId from, NodeId to,
                                                 double t) const;
  /// Least-ETX route over the sender-side neighbor tables: each relay
  /// only uses links its own table currently believes usable. A goal-
  /// directed search that returns exactly the route plain ETX Dijkstra
  /// would (DESIGN.md §5f). The result may include dead relays (beliefs
  /// lag reality); physics sorts it out at transmission time.
  std::optional<std::vector<NodeId>> learned_path(NodeId from, NodeId to,
                                                  double t);
  /// Simulates one hop; returns the delay on success. In self-healing
  /// mode the outcome also feeds the sender's link estimate.
  std::optional<double> try_hop(const NodeInfo& from, const NodeInfo& to,
                                std::size_t bytes);
  /// Records a fresh suspicion raised by `observer` against `subject`
  /// (counters + trace + route-repair accounting).
  void note_suspicion(NodeId observer, NodeId subject, double t);
  /// Records a cleared (hence false) suspicion.
  void note_false_suspicion(NodeId observer, NodeId subject, double t);
  /// Routing-level unicast used by both the public API (origin == msg.src)
  /// and the adversarial injectors (origin is the compromised radio while
  /// msg.src carries the claimed identity).
  UnicastOutcome unicast_from(NodeId origin, Message msg, bool adversarial);
  /// Final delivery step shared by unicast/flood: intercepts
  /// QuarantineNotices, runs the defense admission check at guarded
  /// receivers, then hands the message to the protocol handler.
  /// `via` is the claimed link-layer transmitter of the final hop and
  /// `via_dist_m` its physically-measured range (the RSSI proxy).
  void deliver(NodeId receiver, const Message& msg, NodeId via,
               double via_dist_m, double t);
  /// Defense admission at a guarded receiver; false drops the message.
  bool defense_admit(NodeId receiver, const Message& msg, NodeId via,
                     double via_dist_m, double t);
  /// Handles a fresh tier-2 quarantine at guard `g`: counters, false-
  /// quarantine ground truth, notice flood, listener.
  void on_quarantine(NodeId guard, NodeId subject, double t);
  /// Applies a QuarantineNotice to `receiver`'s quarantine view.
  void apply_notice(NodeId receiver, const QuarantineNotice& notice);
  /// Beacon-range plausibility (impersonation detection): true when a
  /// hello claiming `claimed`, physically transmitted from `from` and
  /// heard at `listener`, is consistent with the deployment geometry.
  bool beacon_plausible(NodeId listener, NodeId claimed, NodeId from) const;
  /// Periodic adversarial processes (see AttackPlan).
  void forgery_tick(std::size_t index);
  void clone_tick(std::size_t index);
  void spoof_tick(std::size_t index);
  /// Replay capture hook: called for delivered report/decision unicasts;
  /// any in-window replayer within radio range of a transmitting relay
  /// records the message and schedules its re-injection.
  void maybe_capture(const Message& msg, const std::vector<NodeId>& path,
                     double t);

  /// Stable references into registry_ for the hot-path counters; the
  /// NetworkStats view is assembled from exactly these (never a second
  /// copy).
  struct NetCounters {
    explicit NetCounters(obs::Registry& registry);
    obs::Counter& unicasts_attempted;
    obs::Counter& unicasts_delivered;
    obs::Counter& unicasts_dropped;
    obs::Counter& unicasts_unroutable;
    obs::Counter& hops_traversed;
    obs::Counter& floods;
    obs::Counter& flood_deliveries;
    obs::Counter& bytes_sent;
    obs::Counter& burst_losses;
    obs::Counter& congestion_losses;
    obs::Counter& dead_receiver_drops;
    obs::Counter& beacons_sent;
    obs::Counter& beacon_receptions;
    obs::Counter& suspicions;
    obs::Counter& false_suspicions;
    obs::Counter& route_repairs;
    obs::Counter& attack_replays;
    obs::Counter& attack_forgeries;
    obs::Counter& attack_clone_reports;
    obs::Counter& attack_beacon_spoofs;
    obs::Counter& attack_acoustic_forgeries;
    obs::Counter& defense_filtered;
    obs::Counter& defense_drops;
    obs::Counter& defense_quarantines;
    obs::Counter& defense_false_quarantines;
    obs::Counter& defense_notices;
    obs::Counter& defense_spoofs_ignored;
    obs::Counter& defense_acoustic_rejects;
  };

  NetworkConfig config_;
  obs::Registry registry_;
  obs::Tracer tracer_;
  /// Bounded last-N ring behind tracer_ (see flight_recorder()). Declared
  /// after tracer_ but attached in the constructor body; detached order
  /// does not matter because both die together.
  obs::FlightRecorder recorder_;
  NetCounters counters_;
  EventQueue events_;
  Radio radio_;
  FaultInjector faults_;
  std::vector<NodeInfo> nodes_;
  std::vector<std::vector<NodeId>> adjacency_;
  /// Uniform grid over the deployed anchors (cell = radio range); built
  /// once at construction, reused by the adjacency build and the replay
  /// capture precomputation.
  SpatialIndex spatial_index_;
  /// Per-replay-attack hearing sets: replay_hearing_[i][v] != 0 when node
  /// v sits within radio range of replay attacker i (precomputed via the
  /// spatial index; replaces the per-hop O(N) distance scan).
  std::vector<std::vector<std::uint8_t>> replay_hearing_;
  /// Beacon-plane shards (NetworkConfig::shards of them).
  std::vector<Shard> shards_;
  /// Owning shard of each node.
  std::vector<std::size_t> node_shard_;
  /// Per-node beacon RNG streams: node i draws reception samples and tick
  /// jitter from Rng(derive_seed(master, kBeaconStream'), 1 + i), making
  /// the draw sequence a function of the node alone — never of the shard
  /// count or interleaving.
  std::vector<util::Rng> node_rngs_;
  /// Fixed worker pool for phase A (created lazily on the first run with
  /// K > 1; one worker per shard, capped at the hardware concurrency).
  std::unique_ptr<util::ThreadPool> shard_pool_;
  /// Per-node learned link state (self-healing mode; empty otherwise).
  std::vector<NeighborTable> tables_;
  /// learned_path scratch, sized to the field on first use and reset
  /// through `touched` so a search costs only what it explores. Routes
  /// are computed on the global queue and from API calls only, never in
  /// the phase-A beacon lanes, so one copy serves every search.
  struct RouteItem {
    double key = 0.0;  ///< cost so far + lower bound to the target
    double cost = 0.0;
    NodeId node = 0;
  };
  struct RouteScratch {
    std::vector<double> cost;   ///< best known cost (inf = untouched)
    std::vector<NodeId> parent;
    std::vector<NodeId> touched;
    std::vector<RouteItem> heap;
  };
  RouteScratch route_scratch_;
  /// Boot-discovery sampling stream, seeded with the beacon seed itself
  /// (the per-node tick streams are its sub-streams 1 + id). Boot
  /// discovery runs serially at construction, so one stream suffices.
  util::Rng beacon_rng_;
  /// Beacon processes run until this sim time (0 = not started).
  double beacons_until_ = 0.0;
  /// All adversarial randomness draws from its own derived stream, so
  /// attack-free runs never touch it and attacked runs leave the radio /
  /// fault / beacon streams on their baseline draw order.
  util::Rng attack_rng_;
  /// Adversarial processes run until this sim time (0 = not started).
  double attacks_until_ = 0.0;
  /// Per-forgery-attack fabrication state (victim cursor, next seq).
  struct ForgeryState {
    NodeId next_victim = 0;
    std::uint32_t next_seq = 0;
  };
  std::vector<ForgeryState> forgery_states_;
  /// Per-clone-attack next sequence number.
  std::vector<std::uint32_t> clone_seqs_;
  /// Messages captured so far per replay attack (the max_captures bound).
  std::vector<std::size_t> replay_captures_;
  /// Suspicion ledgers of the guarded nodes (defense enabled only).
  std::map<NodeId, GuardLedger> guards_;
  /// Per-node quarantine views: qview_[observer][subject] != 0 excludes
  /// the subject from the observer's forwarding set and beacon intake.
  /// Allocated lazily on the first quarantine, so attack-free runs keep
  /// their memory profile.
  std::vector<std::vector<std::uint8_t>> qview_;
  std::function<void(NodeId, double)> quarantine_listener_;
  DeliveryHandler handler_;
  mutable NetworkStats stats_view_;
  /// Monotone flight number stamped on every *traced* delivered unicast
  /// (Message::trace_flight) so span_hop/span_xmit records of one radio
  /// transmission group together even when the same trace id crosses the
  /// network several times (retries, relays). Observability-only state:
  /// incremented deterministically whether or not the tracer is armed.
  std::uint64_t next_flight_ = 0;
};

}  // namespace sid::wsn
