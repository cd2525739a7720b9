#include "wsn/faults.h"

#include <algorithm>

#include "util/error.h"

namespace sid::wsn {

namespace {

void validate_ge(const GilbertElliottParams& p) {
  util::require(p.p_enter_bad >= 0.0 && p.p_enter_bad <= 1.0 &&
                    p.p_exit_bad >= 0.0 && p.p_exit_bad <= 1.0,
                "GilbertElliott: transition probabilities must be in [0, 1]");
  util::require(p.p_enter_bad + p.p_exit_bad > 0.0,
                "GilbertElliott: chain must be able to move");
  util::require(p.loss_good >= 0.0 && p.loss_good <= 1.0 &&
                    p.loss_bad >= 0.0 && p.loss_bad <= 1.0,
                "GilbertElliott: loss probabilities must be in [0, 1]");
}

std::uint64_t link_key(NodeId a, NodeId b) {
  return (static_cast<std::uint64_t>(std::min(a, b)) << 32) |
         std::max(a, b);
}

}  // namespace

GilbertElliott::GilbertElliott(const GilbertElliottParams& params)
    : params_(params) {
  validate_ge(params);
}

bool GilbertElliott::drops(util::Rng& rng) {
  if (bad_) {
    if (rng.bernoulli(params_.p_exit_bad)) bad_ = false;
  } else {
    if (rng.bernoulli(params_.p_enter_bad)) bad_ = true;
  }
  return rng.bernoulli(bad_ ? params_.loss_bad : params_.loss_good);
}

double GilbertElliott::stationary_loss() const {
  const double pi_bad =
      params_.p_enter_bad / (params_.p_enter_bad + params_.p_exit_bad);
  return pi_bad * params_.loss_bad + (1.0 - pi_bad) * params_.loss_good;
}

FaultInjector::FaultInjector(const FaultPlan& plan, std::uint64_t seed)
    : plan_(plan), rng_(seed) {
  for (const auto& crash : plan_.crashes) {
    util::require(crash.time_s >= 0.0,
                  "FaultPlan: crash time must be non-negative");
    const auto [it, inserted] =
        earliest_crash_.try_emplace(crash.node, crash.time_s);
    if (!inserted) it->second = std::min(it->second, crash.time_s);
  }
  for (const auto& override_spec : plan_.battery_overrides) {
    // A node dead from deployment is written crashes {node, 0.0}.
    util::require(override_spec.battery_mj > 0.0,
                  "FaultPlan: battery override must be positive");
  }
  for (const auto& window : plan_.congestion) {
    util::require(window.end_s >= window.start_s,
                  "FaultPlan: congestion window must not end before start");
    util::require(window.extra_loss_probability >= 0.0 &&
                      window.extra_loss_probability <= 1.0,
                  "FaultPlan: congestion loss must be in [0, 1]");
  }
  for (const auto& burst : plan_.link_bursts) {
    validate_ge(burst.params);
    chains_.emplace(link_key(burst.a, burst.b), GilbertElliott(burst.params));
  }
  if (plan_.all_links_burst) validate_ge(*plan_.all_links_burst);
  for (const auto& spec : plan_.acoustic_faults) {
    util::require(spec.drop_fraction >= 0.0 && spec.drop_fraction <= 1.0,
                  "FaultPlan: acoustic drop fraction must be in [0, 1]");
    util::require(spec.clutter_rate_per_hour >= 0.0,
                  "FaultPlan: acoustic clutter rate must be non-negative");
    if (spec.kind == AcousticFaultKind::kClutterStorm) {
      util::require(spec.end_s >= spec.start_s,
                    "FaultPlan: clutter storm must not end before start");
    }
  }
}

bool FaultInjector::node_dead(NodeId node, double t) const {
  const auto it = earliest_crash_.find(node);
  return it != earliest_crash_.end() && t >= it->second;
}

std::optional<double> FaultInjector::crash_time(NodeId node) const {
  const auto it = earliest_crash_.find(node);
  if (it == earliest_crash_.end()) return std::nullopt;
  return it->second;
}

std::optional<double> FaultInjector::battery_override(NodeId node) const {
  for (const auto& override_spec : plan_.battery_overrides) {
    if (override_spec.node == node) return override_spec.battery_mj;
  }
  return std::nullopt;
}

double FaultInjector::congestion_loss(double t) const {
  double loss = 0.0;
  for (const auto& window : plan_.congestion) {
    if (t >= window.start_s && t <= window.end_s) {
      loss = std::max(loss, window.extra_loss_probability);
    }
  }
  return loss;
}

bool FaultInjector::congestion_drops(double t) {
  const double loss = congestion_loss(t);
  if (loss <= 0.0) return false;
  return rng_.bernoulli(loss);
}

bool FaultInjector::burst_drops(NodeId a, NodeId b) {
  // Per-link chains for explicit bursts were built in the constructor;
  // under all_links_burst every link lazily gets its own chain so bursts
  // on different links are independent.
  const auto key = link_key(a, b);
  if (plan_.all_links_burst) {
    return chains_.try_emplace(key, *plan_.all_links_burst)
        .first->second.drops(rng_);
  }
  const auto it = chains_.find(key);
  return it != chains_.end() && it->second.drops(rng_);
}

std::optional<SensorFaultSpec> FaultInjector::sensor_fault(
    NodeId node) const {
  for (const auto& spec : plan_.sensor_faults) {
    if (spec.node == node) return spec;
  }
  return std::nullopt;
}

std::optional<AcousticFaultSpec> FaultInjector::acoustic_fault(
    NodeId node) const {
  for (const auto& spec : plan_.acoustic_faults) {
    if (spec.node == node) return spec;
  }
  return std::nullopt;
}

bool AttackPlan::implicates(NodeId id) const {
  for (const auto& atk : replays) {
    if (atk.attacker == id) return true;
  }
  for (const auto& atk : forgeries) {
    if (atk.attacker == id || atk.victim == id ||
        atk.victim == kForgeAllIds) {
      return true;
    }
  }
  for (const auto& atk : clones) {
    if (atk.host == id || atk.cloned == id) return true;
  }
  for (const auto& atk : beacon_spoofs) {
    if (atk.attacker == id || atk.spoofed == id) return true;
  }
  return false;
}

void validate_attack_plan(const AttackPlan& plan) {
  for (const auto& atk : plan.replays) {
    util::require(atk.capture_end_s >= atk.capture_start_s,
                  "AttackPlan: capture window must not end before start");
    util::require(atk.replay_delay_s >= 0.0,
                  "AttackPlan: replay delay must be non-negative");
  }
  for (const auto& atk : plan.forgeries) {
    util::require(atk.end_s >= atk.start_s,
                  "AttackPlan: forgery window must not end before start");
    util::require(atk.period_s > 0.0,
                  "AttackPlan: forgery period must be positive");
    util::require(atk.burst >= 1, "AttackPlan: forgery burst must be >= 1");
  }
  for (const auto& atk : plan.clones) {
    util::require(atk.end_s >= atk.start_s,
                  "AttackPlan: clone window must not end before start");
    util::require(atk.period_s > 0.0,
                  "AttackPlan: clone period must be positive");
    util::require(atk.host != atk.cloned,
                  "AttackPlan: a clone must claim a different identity");
  }
  for (const auto& atk : plan.beacon_spoofs) {
    util::require(atk.end_s >= atk.start_s,
                  "AttackPlan: spoof window must not end before start");
    util::require(atk.period_s > 0.0,
                  "AttackPlan: spoof period must be positive");
    util::require(atk.attacker != atk.spoofed,
                  "AttackPlan: a spoofed beacon must claim another identity");
  }
}

}  // namespace sid::wsn
