// Route equivalence: Network::route (the goal-directed learned search)
// must return exactly the route of plain ETX Dijkstra, the search it
// replaced, on every query. The reference below is that Dijkstra kept
// verbatim, reading only the network's public state; the fields cover
// the cases where the two could part ways: exactly tied link costs just
// after boot, suspicion and detours under crashes and burst loss, relays
// excluded by quarantine views, a spacing whose longest link (the
// bound's scale) is not the default grid's, and a field with no links.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "util/geometry.h"
#include "util/rng.h"
#include "wsn/faults.h"
#include "wsn/messages.h"
#include "wsn/network.h"

namespace sid::wsn {
namespace {

struct ReferenceRoute {
  std::optional<std::vector<NodeId>> path;
  /// Settled costs (the search stops once the target settles).
  std::vector<double> dist;
};

/// ETX Dijkstra over the sender-side neighbor tables: (cost, id) heap,
/// strict relaxation, stop when the target settles.
ReferenceRoute reference_route(Network& net, NodeId a, NodeId b) {
  const auto resolve = [&](NodeId id) {
    return id == kSinkId ? net.sink_node() : id;
  };
  const NodeId from = resolve(a);
  const NodeId to = resolve(b);
  const double t = net.events().now();
  ReferenceRoute out;
  if (!net.can_execute(from, t)) return out;
  if (from == to) {
    out.path = std::vector<NodeId>{from};
    return out;
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double>& dist = out.dist;
  dist.assign(net.node_count(), kInf);
  std::vector<NodeId> parent(net.node_count(), kNoParent);
  using Item = std::pair<double, NodeId>;  // (cost, node); node breaks ties
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[from] = 0.0;
  heap.emplace(0.0, from);
  while (!heap.empty()) {
    const auto [cost, u] = heap.top();
    heap.pop();
    if (cost > dist[u]) continue;  // stale heap entry
    if (u == to) break;
    for (const NodeId v : net.neighbors(u)) {
      if (!net.neighbor_table(u).usable(v, t)) continue;
      // Quarantined identities are excluded as relays (but remain
      // addressable as final destinations, e.g. for transport acks).
      if (v != to && net.quarantine_view(u, v)) continue;
      const double next = cost + net.neighbor_table(u).etx(v);
      if (next < dist[v]) {
        dist[v] = next;
        parent[v] = u;
        heap.emplace(next, v);
      }
    }
  }
  if (parent[to] == kNoParent) return out;
  std::vector<NodeId> path{to};
  NodeId cur = to;
  while (cur != from) {
    cur = parent[cur];
    path.push_back(cur);
  }
  std::reverse(path.begin(), path.end());
  out.path = std::move(path);
  return out;
}

/// True when some hop of `path` had a second predecessor at exactly the
/// same cost: the route then depends on the tie-break.
bool has_tied_hop(Network& net, const ReferenceRoute& ref) {
  const double t = net.events().now();
  const std::vector<NodeId>& path = *ref.path;
  const NodeId to = path.back();
  for (std::size_t i = 1; i < path.size(); ++i) {
    const NodeId v = path[i];
    for (const NodeId u : net.neighbors(v)) {
      if (u == path[i - 1]) continue;
      if (!net.neighbor_table(u).usable(v, t)) continue;
      if (v != to && net.quarantine_view(u, v)) continue;
      if (ref.dist[u] + net.neighbor_table(u).etx(v) == ref.dist[v]) {
        return true;
      }
    }
  }
  return false;
}

struct Tally {
  std::size_t compared = 0;
  std::size_t mismatched = 0;
  std::size_t routed = 0;
  std::size_t tied = 0;
  std::size_t multi_hop = 0;
};

/// Schedules `instants` random query instants in [t0, t1], each comparing
/// route() with the reference on `pairs` random endpoint pairs (about one
/// endpoint in ten is the reserved kSinkId address).
void schedule_checks(Network& net, std::uint64_t seed, double t0, double t1,
                     int instants, int pairs, Tally& tally) {
  util::Rng rng(seed);
  const auto pick = [&] {
    return rng.uniform_int(10) == 0
               ? kSinkId
               : static_cast<NodeId>(rng.uniform_int(net.node_count()));
  };
  for (int i = 0; i < instants; ++i) {
    std::vector<std::pair<NodeId, NodeId>> ends;
    for (int k = 0; k < pairs; ++k) ends.emplace_back(pick(), pick());
    net.events().schedule_at(rng.uniform(t0, t1), [&net, &tally, ends] {
      for (const auto& [a, b] : ends) {
        const auto got = net.route(a, b);
        const ReferenceRoute want = reference_route(net, a, b);
        ++tally.compared;
        if (got != want.path) {
          if (tally.mismatched++ < 3) {
            ADD_FAILURE() << "route(" << a << ", " << b << ") at t="
                          << net.events().now()
                          << " differs from ETX Dijkstra";
          }
          continue;
        }
        if (!got) continue;
        ++tally.routed;
        if (got->size() > 2) ++tally.multi_hop;
        if (has_tied_hop(net, want)) ++tally.tied;
      }
    });
  }
}

NetworkConfig field_20x20() {
  NetworkConfig cfg;
  cfg.rows = 20;
  cfg.cols = 20;
  cfg.seed = 7;
  cfg.shards = 2;
  return cfg;
}

TEST(RouteEquivalenceTest, FreshFieldWithTiedLinkCosts) {
  // Just after boot every estimate comes from five boot rounds and at
  // most one beacon slot, so link costs take a handful of exact values
  // and equal-cost routes are everywhere.
  Network net(field_20x20());
  Tally tally;
  schedule_checks(net, 1, 0.0, 5.0, 40, 60, tally);
  net.start_beacons(5.0);
  net.run_events();
  EXPECT_GE(tally.compared, 2400u);
  EXPECT_EQ(tally.mismatched, 0u);
  EXPECT_GE(tally.routed, tally.compared * 9 / 10);
  EXPECT_GE(tally.multi_hop, tally.compared / 2);
  // About one route in ten depends on the tie-break here.
  EXPECT_GE(tally.tied, tally.compared / 20);
}

TEST(RouteEquivalenceTest, CrashedAndBurstyField) {
  NetworkConfig cfg = field_20x20();
  util::Rng plan_rng(11);
  for (int i = 0; i < 40; ++i) {
    cfg.faults.crashes.push_back(
        {static_cast<NodeId>(1 + plan_rng.uniform_int(399)),
         plan_rng.uniform(5.0, 90.0)});
  }
  cfg.faults.all_links_burst = GilbertElliottParams{};
  Network net(cfg);
  Tally tally;
  schedule_checks(net, 2, 5.0, 120.0, 40, 60, tally);
  net.start_beacons(120.0);
  net.run_events();
  EXPECT_GT(net.stats().suspicions, 0u);
  EXPECT_GT(net.stats().burst_losses, 0u);
  EXPECT_GE(tally.compared, 2400u);
  EXPECT_EQ(tally.mismatched, 0u);
  EXPECT_GE(tally.multi_hop, tally.compared / 2);
  EXPECT_GT(tally.tied, 0u);
  EXPECT_LT(tally.routed, tally.compared);  // some endpoints crashed
}

TEST(RouteEquivalenceTest, DefendedFieldWithQuarantineViews) {
  // A clone flood from the far corner gets the cloned mid-field identity
  // quarantined at the sink's guard; the flooded notices then keep it out
  // of relay sets field-wide while routes are compared.
  NetworkConfig cfg = field_20x20();
  cfg.defense.enabled = true;
  cfg.defense.guarded_nodes = {0};
  CloneAttack clone;
  clone.host = 399;
  clone.cloned = 189;
  clone.target = 0;
  clone.start_s = 10.0;
  clone.end_s = 200.0;
  clone.period_s = 1.0;
  cfg.attacks.clones.push_back(clone);
  Network net(cfg);
  net.set_delivery_handler([](NodeId, const Message&, double) {});
  double first_quarantine = -1.0;
  net.set_quarantine_listener([&](NodeId, double t) {
    if (first_quarantine < 0.0) first_quarantine = t;
  });
  Tally tally;
  schedule_checks(net, 3, 10.0, 230.0, 40, 60, tally);
  net.start_beacons(230.0);
  net.start_adversary(230.0);
  net.run_events();
  ASSERT_GE(net.stats().defense_quarantines, 1u);
  EXPECT_TRUE(net.quarantine_view(1, clone.cloned));
  EXPECT_GT(first_quarantine, 10.0);
  EXPECT_LT(first_quarantine, 120.0);  // most queries see the views
  EXPECT_GE(tally.compared, 2400u);
  EXPECT_EQ(tally.mismatched, 0u);
  EXPECT_GE(tally.multi_hop, tally.compared / 2);
}

TEST(RouteEquivalenceTest, WideSpacingBoundsByTheLongestLink) {
  // The bound divides by the longest deployed link, not the radio range.
  // At 40 m spacing that is the 56.6 m diagonal, against 55.9 m on the
  // default 25 m grid. A radio that hears the diagonals almost always
  // lets their ETX approach 1, so a bound scaled by anything shorter
  // (even the default grid's 55.9 m) overestimates and changes routes.
  NetworkConfig cfg = field_20x20();
  cfg.spacing_m = 40.0;
  cfg.radio.prr50_distance_m = 70.0;
  cfg.radio.transition_width_m = 3.0;
  cfg.radio.extra_loss_probability = 0.0;
  Network net(cfg);
  double longest = 0.0;
  for (NodeId u = 0; u < net.node_count(); ++u) {
    for (const NodeId v : net.neighbors(u)) {
      longest = std::max(longest, util::distance(net.node(u).anchor,
                                                 net.node(v).anchor));
    }
  }
  EXPECT_DOUBLE_EQ(longest, 40.0 * std::sqrt(2.0));
  Tally tally;
  schedule_checks(net, 4, 0.0, 60.0, 40, 60, tally);
  net.start_beacons(60.0);
  net.run_events();
  EXPECT_GE(tally.compared, 2400u);
  EXPECT_EQ(tally.mismatched, 0u);
  EXPECT_GE(tally.routed, tally.compared * 9 / 10);
  EXPECT_GE(tally.multi_hop, tally.compared / 2);
}

TEST(RouteEquivalenceTest, FieldWithoutLinksRoutesNothing) {
  // At 80 m spacing no two buoys are in radio range: there is no link to
  // scale the bound by, and only a node's route to itself exists.
  NetworkConfig cfg = field_20x20();
  cfg.spacing_m = 80.0;
  Network net(cfg);
  for (NodeId u = 0; u < net.node_count(); ++u) {
    EXPECT_TRUE(net.neighbors(u).empty());
  }
  Tally tally;
  schedule_checks(net, 5, 0.0, 10.0, 10, 60, tally);
  net.start_beacons(10.0);
  net.run_events();
  EXPECT_EQ(tally.compared, 600u);
  EXPECT_EQ(tally.mismatched, 0u);
  EXPECT_EQ(tally.multi_hop, 0u);
  EXPECT_LT(tally.routed, tally.compared / 10);  // only a == b routes
  EXPECT_EQ(net.route(0, 399), std::nullopt);
  EXPECT_EQ(net.route(kSinkId, 21), std::nullopt);
  EXPECT_EQ(net.route(21, 21), std::vector<NodeId>{21});
}

}  // namespace
}  // namespace sid::wsn
