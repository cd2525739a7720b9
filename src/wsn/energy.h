// Node energy accounting.
//
// The paper motivates transmitting only extracted features ("due to the
// energy constraints of the sensor node... it is better that only the
// extracted features are transmitted", §IV-A). The meter charges every
// radio byte and every accelerometer sample against the node's battery;
// the Network enforces depletion. Duty cycling ("some nodes in a group
// may keep active to perform a coarse detection while other nodes
// sleep") is evaluated by core/duty_cycle with its own power model.
// Costs are representative iMote2 + CC2420-class numbers.
#pragma once

#include <cstddef>

namespace sid::wsn {

/// Usable battery budget of a node without a FaultPlan override.
inline constexpr double kDefaultBatteryMj = 20'000.0;
/// Radio cost per transmitted and per received byte.
inline constexpr double kTxPerByteMj = 0.0060;
inline constexpr double kRxPerByteMj = 0.0067;
/// One 3-axis ADC sample.
inline constexpr double kSampleMj = 0.0050;

/// Accumulates spent energy per category against a battery budget.
class EnergyMeter {
 public:
  /// `battery_mj` must be positive (FaultPlan::battery_overrides sets
  /// per-node budgets).
  explicit EnergyMeter(double battery_mj = kDefaultBatteryMj);

  void spend_tx(std::size_t bytes);
  void spend_rx(std::size_t bytes);
  void spend_samples(std::size_t samples);

  double spent_mj() const { return spent_mj_; }
  double remaining_mj() const;
  bool depleted() const { return remaining_mj() <= 0.0; }

  double tx_mj() const { return tx_mj_; }
  double rx_mj() const { return rx_mj_; }
  double sensing_mj() const { return sensing_mj_; }

 private:
  double battery_mj_;
  double spent_mj_ = 0.0;
  double tx_mj_ = 0.0;
  double rx_mj_ = 0.0;
  double sensing_mj_ = 0.0;
};

}  // namespace sid::wsn
