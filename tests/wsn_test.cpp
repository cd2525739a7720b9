// Tests for the WSN substrate: event queue, clocks, radio, energy and the
// grid network with multihop delivery.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "util/error.h"
#include "util/stats.h"
#include "wsn/clock.h"
#include "wsn/energy.h"
#include "wsn/event_queue.h"
#include "wsn/messages.h"
#include "wsn/network.h"
#include "wsn/radio.h"

namespace sid::wsn {
namespace {

// ------------------------------------------------------------ events

TEST(EventQueueTest, ExecutesInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule_at(3.0, [&] { order.push_back(3); });
  queue.schedule_at(1.0, [&] { order.push_back(1); });
  queue.schedule_at(2.0, [&] { order.push_back(2); });
  queue.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule_at(1.0, [&] { order.push_back(1); });
  queue.schedule_at(1.0, [&] { order.push_back(2); });
  queue.schedule_at(1.0, [&] { order.push_back(3); });
  queue.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, CallbacksCanScheduleMoreEvents) {
  EventQueue queue;
  int fired = 0;
  queue.schedule_at(1.0, [&] {
    ++fired;
    queue.schedule_after(1.0, [&] { ++fired; });
  });
  queue.run_all();
  EXPECT_EQ(fired, 2);
  EXPECT_NEAR(queue.now(), 2.0, 1e-12);
}

TEST(EventQueueTest, RunUntilStopsAtBoundary) {
  EventQueue queue;
  int fired = 0;
  queue.schedule_at(1.0, [&] { ++fired; });
  queue.schedule_at(5.0, [&] { ++fired; });
  const auto executed = queue.run_until(2.0);
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_NEAR(queue.now(), 2.0, 1e-12);
  EXPECT_EQ(queue.pending(), 1u);
}

TEST(EventQueueTest, NextTimePeeksWithoutRunning) {
  EventQueue queue;
  EXPECT_THROW(queue.next_time(), util::InvalidArgument);
  queue.schedule_at(2.5, [] {});
  queue.schedule_at(1.5, [] {});
  EXPECT_NEAR(queue.next_time(), 1.5, 1e-12);
  EXPECT_EQ(queue.pending(), 2u);  // peeking executes nothing
  queue.run_all();
  EXPECT_THROW(queue.next_time(), util::InvalidArgument);
}

TEST(EventQueueTest, PastSchedulingThrows) {
  EventQueue queue;
  queue.schedule_at(2.0, [] {});
  queue.run_all();
  EXPECT_THROW(queue.schedule_at(1.0, [] {}), util::InvalidArgument);
  EXPECT_THROW(queue.schedule_after(-1.0, [] {}), util::InvalidArgument);
}

// ------------------------------------------------------------ clock

TEST(ClockTest, OffsetWithinSyncError) {
  util::RunningStats offsets;
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    ClockConfig cfg;
    cfg.sync_error_stddev_s = 0.01;
    cfg.drift_ppm_stddev = 0.0;
    cfg.seed = seed;
    const NodeClock clock(cfg);
    offsets.add(clock.offset_at(0.0));
  }
  EXPECT_NEAR(offsets.stddev(), 0.01, 0.002);
  EXPECT_NEAR(offsets.mean(), 0.0, 0.002);
}

TEST(ClockTest, DriftAccumulatesLinearly) {
  ClockConfig cfg;
  cfg.sync_error_stddev_s = 0.0;
  cfg.drift_ppm_stddev = 50.0;
  cfg.resync_period_s = 0.0;  // no resync
  cfg.seed = 3;
  const NodeClock clock(cfg);
  const double o100 = clock.offset_at(100.0);
  const double o200 = clock.offset_at(200.0);
  EXPECT_NEAR(o200, 2.0 * o100, std::abs(o100) * 1e-9);
}

TEST(ClockTest, ResyncBoundsDrift) {
  ClockConfig cfg;
  cfg.sync_error_stddev_s = 0.0;
  cfg.drift_ppm_stddev = 100.0;
  cfg.resync_period_s = 60.0;
  cfg.seed = 4;
  const NodeClock clock(cfg);
  // Max drift contribution is bounded by drift * resync period.
  const double bound = std::abs(clock.drift_ppm()) * 1e-6 * 60.0;
  for (double t : {10.0, 100.0, 1000.0, 5000.0}) {
    EXPECT_LE(std::abs(clock.offset_at(t)), bound + 1e-12);
  }
}

TEST(ClockTest, LocalTimeIsTruePlusOffset) {
  ClockConfig cfg;
  cfg.seed = 5;
  const NodeClock clock(cfg);
  EXPECT_NEAR(clock.local_time(123.0), 123.0 + clock.offset_at(123.0),
              1e-12);
}

// ------------------------------------------------------------ radio

TEST(RadioTest, PrrMonotoneDecreasing) {
  Radio radio(RadioConfig{});
  double prev = 1.1;
  for (double d = 0.0; d <= 70.0; d += 5.0) {
    const double p = radio.prr(d);
    EXPECT_LE(p, prev);
    prev = p;
  }
}

TEST(RadioTest, PrrHalfAtNominalDistance) {
  RadioConfig cfg;
  cfg.prr50_distance_m = 45.0;
  Radio radio(cfg);
  EXPECT_NEAR(radio.prr(45.0), 0.5, 1e-12);
  EXPECT_GT(radio.prr(25.0), 0.9);
  EXPECT_EQ(radio.prr(71.0), 0.0);
}

TEST(RadioTest, TransmissionFrequencyMatchesPrr) {
  RadioConfig cfg;
  cfg.extra_loss_probability = 0.0;
  cfg.seed = 7;
  Radio radio(cfg);
  int successes = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (radio.transmit_succeeds(25.0)) ++successes;
  }
  EXPECT_NEAR(static_cast<double>(successes) / kTrials, radio.prr(25.0), 0.01);
}

TEST(RadioTest, ExtraLossReducesDelivery) {
  RadioConfig cfg;
  cfg.extra_loss_probability = 0.3;
  cfg.seed = 8;
  Radio radio(cfg);
  int delivered = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (radio.transmit_succeeds(10.0)) ++delivered;
  }
  EXPECT_NEAR(static_cast<double>(delivered) / kTrials,
              radio.prr(10.0) * 0.7, 0.02);
}

TEST(RadioTest, HopDelayHasFixedFloor) {
  RadioConfig cfg;
  cfg.hop_delay_fixed_s = 0.01;
  cfg.hop_delay_jitter_mean_s = 0.02;
  Radio radio(cfg);
  util::RunningStats delays;
  for (int i = 0; i < 10000; ++i) delays.add(radio.hop_delay());
  EXPECT_GE(delays.min(), 0.01);
  EXPECT_NEAR(delays.mean(), 0.03, 0.003);
}

TEST(RadioTest, RejectsBadConfig) {
  RadioConfig cfg;
  cfg.extra_loss_probability = 1.0;
  EXPECT_THROW(Radio{cfg}, util::InvalidArgument);
  cfg = {};
  cfg.max_range_m = 1.0;  // below prr50
  EXPECT_THROW(Radio{cfg}, util::InvalidArgument);
}

// ------------------------------------------------------------ energy

TEST(EnergyTest, AccumulatesByCategory) {
  EnergyMeter meter{EnergyConfig{}};
  meter.spend_tx(100);
  meter.spend_rx(100);
  meter.spend_samples(1000);
  meter.spend_cpu_ms(10.0);
  meter.spend_idle_s(5.0);
  meter.spend_sleep_s(100.0);
  EXPECT_NEAR(meter.tx_mj(), 0.60, 1e-9);
  EXPECT_NEAR(meter.rx_mj(), 0.67, 1e-9);
  EXPECT_NEAR(meter.sensing_mj(), 5.0, 1e-9);
  EXPECT_NEAR(meter.cpu_mj(), 0.3, 1e-9);
  EXPECT_NEAR(meter.idle_mj(), 1.5, 1e-9);
  EXPECT_NEAR(meter.sleep_mj(), 0.6, 1e-9);
  EXPECT_NEAR(meter.spent_mj(),
              0.60 + 0.67 + 5.0 + 0.3 + 1.5 + 0.6, 1e-9);
}

TEST(EnergyTest, DepletionDetected) {
  EnergyConfig cfg;
  cfg.battery_mj = 1.0;
  EnergyMeter meter(cfg);
  EXPECT_FALSE(meter.depleted());
  meter.spend_cpu_ms(100.0);  // 3 mJ
  EXPECT_TRUE(meter.depleted());
  EXPECT_EQ(meter.remaining_mj(), 0.0);
}

TEST(EnergyTest, SleepIsCheaperThanIdle) {
  const EnergyConfig cfg;
  EXPECT_LT(cfg.sleep_per_s_mj, cfg.idle_per_s_mj);
}

// ------------------------------------------------------------ network

NetworkConfig small_grid() {
  NetworkConfig cfg;
  cfg.rows = 4;
  cfg.cols = 5;
  cfg.spacing_m = 25.0;
  return cfg;
}

TEST(NetworkTest, GridLayoutAndIds) {
  Network net(small_grid());
  EXPECT_EQ(net.node_count(), 20u);
  const auto& n = net.node(net.id_at(2, 3));
  EXPECT_EQ(n.grid_row, 2);
  EXPECT_EQ(n.grid_col, 3);
  EXPECT_NEAR(n.anchor.x, 75.0, 1e-12);
  EXPECT_NEAR(n.anchor.y, 50.0, 1e-12);
  EXPECT_THROW(net.id_at(4, 0), util::InvalidArgument);
}

TEST(NetworkTest, NeighborsWithinRadioRange) {
  Network net(small_grid());
  // Default radio: max range 70 m covers 1-hop (25), diagonal (35.4),
  // 2-hop straight (50) but not 75 m.
  const auto& neighbors = net.neighbors(net.id_at(0, 0));
  EXPECT_FALSE(neighbors.empty());
  for (NodeId id : neighbors) {
    const double d =
        util::distance(net.node(id).anchor, net.node(net.id_at(0, 0)).anchor);
    EXPECT_LE(d, 70.0);
  }
}

TEST(NetworkTest, HopDistanceReflectsGrid) {
  Network net(small_grid());
  const auto self = net.route(net.id_at(0, 0), net.id_at(0, 0));
  ASSERT_TRUE(self.has_value());
  EXPECT_EQ(self->size() - 1, 0u);
  const auto path = net.route(net.id_at(0, 0), net.id_at(3, 4));
  ASSERT_TRUE(path.has_value());
  EXPECT_GE(path->size() - 1, 2u);  // 75+100 m away needs >= 2 hops at 70 m
  EXPECT_EQ(path->front(), net.id_at(0, 0));
  EXPECT_EQ(path->back(), net.id_at(3, 4));
}

TEST(NetworkTest, UnicastDeliversWithHandler) {
  NetworkConfig cfg = small_grid();
  cfg.radio.extra_loss_probability = 0.0;
  cfg.radio.transition_width_m = 1.0;  // crisp links
  cfg.max_retransmissions = 5;
  Network net(cfg);

  int delivered = 0;
  Message received;
  net.set_delivery_handler(
      [&](NodeId receiver, const Message& msg, double time) {
        ++delivered;
        received = msg;
        EXPECT_EQ(receiver, msg.dst);
        EXPECT_GT(time, 0.0);
      });

  Message msg;
  msg.src = net.id_at(0, 0);
  msg.dst = net.id_at(3, 4);
  DetectionReport report;
  report.reporter = msg.src;
  report.average_energy = 42.0;
  msg.payload = report;
  net.unicast(msg);
  net.run_events();

  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.stats().unicasts_delivered, 1u);
  EXPECT_EQ(std::get<DetectionReport>(received.payload).average_energy, 42.0);
  EXPECT_GT(net.stats().hops_traversed, 1u);
  EXPECT_GT(net.stats().bytes_sent, 0u);
}

TEST(NetworkTest, SelfUnicastDelivers) {
  Network net(small_grid());
  int delivered = 0;
  net.set_delivery_handler(
      [&](NodeId, const Message&, double) { ++delivered; });
  Message msg;
  msg.src = net.id_at(1, 1);
  msg.dst = net.id_at(1, 1);
  msg.payload = ClusterInvite{};
  net.unicast(msg);
  net.run_events();
  EXPECT_EQ(delivered, 1);
}

// ------------------------------------------------- sink sentinel bugfix
//
// The path searches historically reused kSinkId as their "no parent"
// sentinel, conflating the reserved sink address with "unreachable": any
// unicast addressed to the sink's reserved id fell into the
// nonexistent-destination branch and died as kUnroutable. The fix gives
// the searches a dedicated kNoParent sentinel and resolves kSinkId to
// NetworkConfig::sink_node at the unicast/route entry points.
// These tests fail on the pre-fix routing code.

TEST(SinkSentinelRegression, ReservedSinkAddressRoutesToGateway) {
  NetworkConfig cfg = small_grid();
  cfg.radio.extra_loss_probability = 0.0;
  cfg.radio.transition_width_m = 1.0;  // crisp links
  cfg.max_retransmissions = 5;
  Network net(cfg);  // default gateway: node 0 (SidSystem's grid (0,0))

  int delivered = 0;
  net.set_delivery_handler(
      [&](NodeId receiver, const Message& msg, double) {
        ++delivered;
        EXPECT_EQ(receiver, net.sink_node());
        EXPECT_EQ(msg.dst, net.sink_node());  // resolved, not 0xFFFFFFFF
      });

  Message msg;
  msg.src = net.id_at(3, 4);  // far corner: forces a multi-hop route
  msg.dst = kSinkId;
  msg.payload = ClusterDecision{};
  EXPECT_EQ(net.unicast(msg), UnicastOutcome::kDelivered);
  net.run_events();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.stats().unicasts_unroutable, 0u);
  EXPECT_GT(net.stats().hops_traversed, 1u);

  // route accepts the reserved address too (pre-fix: aborted on the
  // bad-id require).
  const auto path = net.route(net.id_at(3, 4), kSinkId);
  ASSERT_TRUE(path.has_value());
  EXPECT_GE(path->size() - 1, 2u);
  EXPECT_EQ(path->back(), net.sink_node());
}

// A 1x5 line where the gateway sits mid-line: the only route to the far
// end runs *through* the sink (the sink is the penultimate hop), and the
// only route to the reserved sink address needs parents assigned across
// the whole line. Exercises both searches with routes the old sentinel
// declared impossible, in both routing modes.
TEST(SinkSentinelRegression, RouteThroughMidlineSink) {
  for (const RoutingMode mode :
       {RoutingMode::kSelfHealing, RoutingMode::kOracle}) {
    NetworkConfig cfg;
    cfg.rows = 1;
    cfg.cols = 5;
    cfg.spacing_m = 60.0;  // only adjacent nodes are in the 70 m range
    cfg.radio.prr50_distance_m = 65.0;
    cfg.radio.transition_width_m = 1.0;
    cfg.radio.extra_loss_probability = 0.0;
    cfg.max_retransmissions = 5;
    cfg.routing = mode;
    cfg.sink_node = 3;
    Network net(cfg);

    int sink_deliveries = 0;
    int far_deliveries = 0;
    net.set_delivery_handler(
        [&](NodeId receiver, const Message&, double) {
          if (receiver == 3) ++sink_deliveries;
          if (receiver == 4) ++far_deliveries;
        });

    // 0 -> kSinkId resolves to node 3, three hops down the line.
    Message to_sink;
    to_sink.src = 0;
    to_sink.dst = kSinkId;
    to_sink.payload = ClusterDecision{};
    EXPECT_EQ(net.unicast(to_sink), UnicastOutcome::kDelivered);
    const auto to_sink_route = net.route(0, kSinkId);
    ASSERT_TRUE(to_sink_route.has_value());
    EXPECT_EQ(*to_sink_route, (std::vector<NodeId>{0, 1, 2, 3}));

    // 0 -> 4: the sink is the penultimate hop of the only route. Plain
    // addressing, unchanged by the fix (the alias only rewrites the
    // exact kSinkId value).
    Message through;
    through.src = 0;
    through.dst = 4;
    through.payload = ClusterDecision{};
    EXPECT_EQ(net.unicast(through), UnicastOutcome::kDelivered);
    const auto through_route = net.route(0, 4);
    ASSERT_TRUE(through_route.has_value());
    EXPECT_EQ(*through_route, (std::vector<NodeId>{0, 1, 2, 3, 4}));

    net.run_events();
    EXPECT_EQ(sink_deliveries, 1);
    EXPECT_EQ(far_deliveries, 1);
  }
}

TEST(NetworkTest, SinkNodeOutOfGridThrows) {
  NetworkConfig cfg = small_grid();
  cfg.sink_node = static_cast<NodeId>(cfg.rows * cfg.cols);
  EXPECT_THROW(Network net(cfg), util::InvalidArgument);
}

// The windowed engine is the only engine (DESIGN.md §5l): at least one
// shard and a positive lookahead are constructor preconditions, rejected
// with a message instead of aborting mid-run.
TEST(NetworkTest, DefaultsToOneShard) {
  EXPECT_EQ(NetworkConfig{}.shards, 1u);
}

TEST(NetworkTest, ZeroShardsThrows) {
  NetworkConfig cfg = small_grid();
  cfg.shards = 0;
  EXPECT_THROW(Network net(cfg), util::InvalidArgument);
}

TEST(NetworkTest, EwmaWeightOutsideUnitIntervalThrows) {
  // Link quality must stay in [0, 1] so every ETX is at least 1, which
  // the route search's lower bound relies on.
  for (const double alpha : {-0.1, 1.5}) {
    NetworkConfig cfg = small_grid();
    cfg.neighbor.ewma_alpha = alpha;
    EXPECT_THROW(Network net(cfg), util::InvalidArgument) << alpha;
  }
}

TEST(NetworkTest, ZeroHopDelayFloorThrows) {
  NetworkConfig cfg = small_grid();
  cfg.radio.hop_delay_fixed_s = 0.0;
  EXPECT_THROW(Network net(cfg), util::InvalidArgument);
}

// ------------------------------------------------ adjacency admission
//
// DESIGN.md §5f: oracle mode thresholds ground-truth PRR at 0.7;
// self-healing admits every physically-reachable link
// (boundary inclusive) and gates *use* through the learned tables. A
// link at exactly max_range_m is the discriminating case: PRR there is
// far below the oracle threshold but the link is still physical.
TEST(NetworkTest, BoundaryLinkAdmissionMatchesRoutingMode) {
  NetworkConfig cfg;
  cfg.rows = 1;
  cfg.cols = 2;
  cfg.spacing_m = cfg.radio.max_range_m;  // exactly at the boundary

  cfg.routing = RoutingMode::kSelfHealing;
  {
    Network net(cfg);
    ASSERT_EQ(net.neighbors(0).size(), 1u);
    EXPECT_EQ(net.neighbors(0)[0], 1u);
  }

  cfg.routing = RoutingMode::kOracle;
  {
    // Default radio: prr(70 m) is ~0, far under the oracle's 0.7.
    Network net(cfg);
    EXPECT_TRUE(net.neighbors(0).empty());
  }

  // One epsilon past the range boundary: no link in either mode.
  cfg.spacing_m = std::nextafter(cfg.radio.max_range_m,
                                 2.0 * cfg.radio.max_range_m);
  for (const RoutingMode mode :
       {RoutingMode::kSelfHealing, RoutingMode::kOracle}) {
    cfg.routing = mode;
    Network net(cfg);
    EXPECT_TRUE(net.neighbors(0).empty());
  }
}

TEST(NetworkTest, LossyLinksDropSomeUnicasts) {
  NetworkConfig cfg = small_grid();
  // Oracle routing: this test pins the legacy per-hop accounting exactly
  // (self-healing would blacklist the lossy links and report unroutable).
  cfg.routing = RoutingMode::kOracle;
  cfg.radio.extra_loss_probability = 0.45;
  cfg.max_retransmissions = 0;
  cfg.radio.seed = 11;
  Network net(cfg);
  net.set_delivery_handler([](NodeId, const Message&, double) {});
  for (int i = 0; i < 200; ++i) {
    Message msg;
    msg.src = net.id_at(0, 0);
    msg.dst = net.id_at(3, 4);
    msg.payload = ClusterInvite{};
    net.unicast(msg);
  }
  net.run_events();
  EXPECT_GT(net.stats().unicasts_dropped, 20u);
  EXPECT_GT(net.stats().unicasts_delivered, 5u);
  // Every attempt is accounted for exactly once; with all nodes alive
  // nothing is unroutable.
  EXPECT_EQ(net.stats().unicasts_unroutable, 0u);
  EXPECT_EQ(net.stats().unicasts_attempted,
            net.stats().unicasts_delivered + net.stats().unicasts_dropped +
                net.stats().unicasts_unroutable);
}

TEST(NetworkTest, UnroutableCounterMatchesNoRouteTraceEvents) {
  // Invariant promised in network.cpp: every kUnroutable outcome bumps
  // unicasts_unroutable exactly once and emits exactly one msg_drop
  // trace event with reason "no_route" — in both routing modes.
  for (const RoutingMode mode :
       {RoutingMode::kOracle, RoutingMode::kSelfHealing}) {
    NetworkConfig cfg = small_grid();
    cfg.routing = mode;
    cfg.faults.crashes.push_back(
        {static_cast<NodeId>(cfg.cols + 1), 10.0});  // node (1, 1)
    Network net(cfg);
    net.set_delivery_handler([](NodeId, const Message&, double) {});
    std::ostringstream trace;
    net.tracer().attach(&trace, static_cast<unsigned>(obs::Category::kNet));
    net.events().schedule_at(50.0, [&] {
      const NodeId dead = net.id_at(1, 1);
      const NodeId alive_a = net.id_at(0, 0);
      const NodeId alive_b = net.id_at(3, 4);
      std::size_t unroutable = 0;
      for (int i = 0; i < 10; ++i) {
        for (const auto& [src, dst] : {std::pair{alive_a, dead},
                                      std::pair{dead, alive_b},
                                      std::pair{alive_a, alive_b}}) {
          Message msg;
          msg.src = src;
          msg.dst = dst;
          msg.payload = ClusterInvite{};
          if (net.unicast(msg) == UnicastOutcome::kUnroutable) ++unroutable;
        }
      }
      // Sends *from* the dead node are unroutable in both modes; in
      // oracle mode sends *to* it are too.
      EXPECT_GT(unroutable, 0u);
      EXPECT_EQ(net.stats().unicasts_unroutable, unroutable);
    });
    net.run_events();
    net.tracer().close();
#if SID_METRICS_ENABLED
    // SID_TRACE sites compile to no-ops with SID_ENABLE_METRICS=OFF, so
    // the event-count half of the invariant only exists in this config.
    std::size_t no_route_events = 0;
    std::istringstream lines(trace.str());
    for (std::string line; std::getline(lines, line);) {
      if (line.find("\"name\":\"msg_drop\"") != std::string::npos &&
          line.find("\"reason\":\"no_route\"") != std::string::npos) {
        ++no_route_events;
      }
    }
    EXPECT_EQ(no_route_events, net.stats().unicasts_unroutable)
        << "routing mode " << static_cast<int>(mode);
#endif
  }
}

TEST(NetworkTest, RetransmissionsImproveDelivery) {
  auto run_with_retx = [](std::size_t retx) {
    NetworkConfig cfg;
    cfg.rows = 1;
    cfg.cols = 2;
    cfg.radio.extra_loss_probability = 0.4;
    cfg.max_retransmissions = retx;
    cfg.radio.seed = 13;
    Network net(cfg);
    net.set_delivery_handler([](NodeId, const Message&, double) {});
    for (int i = 0; i < 500; ++i) {
      Message msg;
      msg.src = 0;
      msg.dst = 1;
      msg.payload = ClusterInvite{};
      net.unicast(msg);
    }
    net.run_events();
    return net.stats().unicasts_delivered;
  };
  EXPECT_GT(run_with_retx(3), run_with_retx(0));
}

TEST(NetworkTest, FloodReachesHopLimitedNeighborhood) {
  NetworkConfig cfg = small_grid();
  // Oracle routing: reached == neighbors() requires forwarding over every
  // in-range link; learned tables exclude marginal links by design.
  cfg.routing = RoutingMode::kOracle;
  cfg.radio.extra_loss_probability = 0.0;
  cfg.max_retransmissions = 5;
  Network net(cfg);
  std::vector<NodeId> reached;
  net.set_delivery_handler(
      [&](NodeId receiver, const Message&, double) {
        reached.push_back(receiver);
      });
  Message msg;
  msg.src = net.id_at(0, 0);
  msg.dst = kSinkId;
  msg.payload = ClusterInvite{};
  net.flood(msg, 1);
  net.run_events();
  // 1 hop from the corner: every node within radio range.
  EXPECT_EQ(reached.size(), net.neighbors(net.id_at(0, 0)).size());
  for (NodeId id : reached) EXPECT_NE(id, msg.src);  // source not re-delivered
}

TEST(NetworkTest, WiderFloodReachesMore) {
  NetworkConfig cfg = small_grid();
  cfg.radio.extra_loss_probability = 0.0;
  cfg.max_retransmissions = 5;
  auto count_reached = [&](std::size_t hops) {
    Network net(cfg);
    std::size_t reached = 0;
    net.set_delivery_handler(
        [&](NodeId, const Message&, double) { ++reached; });
    Message msg;
    msg.src = net.id_at(0, 0);
    msg.dst = kSinkId;
    msg.payload = ClusterInvite{};
    net.flood(msg, hops);
    net.run_events();
    return reached;
  };
  EXPECT_LT(count_reached(1), count_reached(6));
  EXPECT_EQ(count_reached(6), 19u);  // whole 4x5 grid minus the source
}

TEST(NetworkTest, EnergySpentOnTraffic) {
  NetworkConfig cfg = small_grid();
  cfg.radio.extra_loss_probability = 0.0;
  Network net(cfg);
  net.set_delivery_handler([](NodeId, const Message&, double) {});
  Message msg;
  msg.src = net.id_at(0, 0);
  msg.dst = net.id_at(0, 2);
  msg.payload = DetectionReport{};
  net.unicast(msg);
  net.run_events();
  EXPECT_GT(net.node(net.id_at(0, 0)).energy.tx_mj(), 0.0);
}

TEST(NetworkTest, MessageWireSizes) {
  Message report;
  report.payload = DetectionReport{};
  Message invite;
  invite.payload = ClusterInvite{};
  Message decision;
  decision.payload = ClusterDecision{};
  EXPECT_EQ(report.wire_bytes(), DetectionReport::kWireBytes + 8);
  EXPECT_EQ(invite.wire_bytes(), ClusterInvite::kWireBytes + 8);
  EXPECT_EQ(decision.wire_bytes(), ClusterDecision::kWireBytes + 8);
}

TEST(NetworkTest, LocalTimePerNodeDiffers) {
  Network net(small_grid());
  // Different per-node clock seeds: offsets differ almost surely.
  const double a = net.local_time(net.id_at(0, 0), 100.0);
  const double b = net.local_time(net.id_at(3, 4), 100.0);
  EXPECT_NE(a, b);
}

TEST(NetworkTest, UnicastWithoutHandlerThrows) {
  Network net(small_grid());
  Message msg;
  msg.src = 0;
  msg.dst = 1;
  msg.payload = ClusterInvite{};
  EXPECT_THROW(net.unicast(msg), util::InvalidArgument);
}

}  // namespace
}  // namespace sid::wsn
