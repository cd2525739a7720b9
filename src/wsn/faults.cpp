#include "wsn/faults.h"

#include <algorithm>
#include <cmath>
#include <limits>

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

/// Chain state bytes: bit 0 is the bad state, the bits above 1 + the
/// parameter index, so one byte holds at most this many distinct sets.
constexpr std::size_t kMaxChainParams = 127;

}  // namespace

GilbertElliott::GilbertElliott(const GilbertElliottParams& params)
    : params_(params) {
  validate_ge(params);
}

bool GilbertElliott::drops(util::Rng& rng) {
  return advance(params_, bad_, rng);
}

bool GilbertElliott::advance(const GilbertElliottParams& params, bool& bad,
                             util::Rng& rng) {
  if (bad) {
    if (rng.bernoulli(params.p_exit_bad)) bad = false;
  } else {
    if (rng.bernoulli(params.p_enter_bad)) bad = true;
  }
  return rng.bernoulli(bad ? params.loss_bad : params.loss_good);
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
    if (crash.node >= crash_at_.size()) {
      crash_at_.resize(crash.node + std::size_t{1},
                       std::numeric_limits<double>::quiet_NaN());
    }
    double& at = crash_at_[crash.node];
    if (std::isnan(at) || crash.time_s < at) at = crash.time_s;
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
  const auto add_params = [this](const GilbertElliottParams& params) {
    validate_ge(params);
    if (std::find(params_.begin(), params_.end(), params) == params_.end()) {
      params_.push_back(params);
    }
  };
  for (const auto& burst : plan_.link_bursts) {
    add_params(burst.params);
    pair_keys_.push_back(link_key(burst.a, burst.b));
  }
  if (plan_.all_links_burst) add_params(*plan_.all_links_burst);
  util::require(params_.size() <= kMaxChainParams,
                "FaultPlan: at most 127 distinct Gilbert-Elliott parameter "
                "sets");
  std::sort(pair_keys_.begin(), pair_keys_.end());
  pair_keys_.erase(std::unique(pair_keys_.begin(), pair_keys_.end()),
                   pair_keys_.end());
  chains_.assign(pair_keys_.size(), 0);
  for (const auto& burst : plan_.link_bursts) {
    const auto link = static_cast<std::size_t>(
        std::lower_bound(pair_keys_.begin(), pair_keys_.end(),
                         link_key(burst.a, burst.b)) -
        pair_keys_.begin());
    if (chains_[link] == 0) chains_[link] = fresh_chain(burst.params);
  }
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

std::uint8_t FaultInjector::fresh_chain(
    const GilbertElliottParams& params) const {
  const auto index = static_cast<std::size_t>(
      std::find(params_.begin(), params_.end(), params) - params_.begin());
  return static_cast<std::uint8_t>((index + 1) << 1);
}

std::optional<double> FaultInjector::crash_time(NodeId node) const {
  if (node >= crash_at_.size() || std::isnan(crash_at_[node])) {
    return std::nullopt;
  }
  return crash_at_[node];
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

void FaultInjector::index_links(std::size_t link_count,
                                const std::vector<std::size_t>& burst_links) {
  util::require(burst_links.size() == plan_.link_bursts.size(),
                "FaultInjector: one link per explicit burst");
  pair_keys_.clear();
  chains_.clear();
  if (params_.empty()) return;  // no chain anywhere
  chains_.assign(link_count, plan_.all_links_burst
                                 ? fresh_chain(*plan_.all_links_burst)
                                 : std::uint8_t{0});
  // Backwards, so the first entry among duplicates is written last.
  for (std::size_t i = burst_links.size(); i-- > 0;) {
    util::require(burst_links[i] < link_count,
                  "FaultInjector: burst link out of range");
    chains_[burst_links[i]] = fresh_chain(plan_.link_bursts[i].params);
  }
}

bool FaultInjector::burst_drops(std::size_t link) {
  if (chains_.empty()) return false;
  std::uint8_t& chain = chains_[link];
  if (chain == 0) return false;
  bool bad = (chain & 1u) != 0;
  const bool lost =
      GilbertElliott::advance(params_[(chain >> 1) - 1], bad, rng_);
  chain = static_cast<std::uint8_t>((chain & ~1u) | (bad ? 1u : 0u));
  return lost;
}

bool FaultInjector::burst_drops(NodeId a, NodeId b) {
  const std::uint64_t key = link_key(a, b);
  const auto it = std::lower_bound(pair_keys_.begin(), pair_keys_.end(), key);
  const auto link = static_cast<std::size_t>(it - pair_keys_.begin());
  if (it == pair_keys_.end() || *it != key) {
    if (!plan_.all_links_burst) return false;
    // A chain for every pair, created good on its first attempt.
    pair_keys_.insert(it, key);
    chains_.insert(chains_.begin() + static_cast<std::ptrdiff_t>(link),
                   fresh_chain(*plan_.all_links_burst));
  }
  return burst_drops(link);
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
