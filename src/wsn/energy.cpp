#include "wsn/energy.h"

#include <algorithm>

#include "util/error.h"

namespace sid::wsn {

EnergyMeter::EnergyMeter(double battery_mj) : battery_mj_(battery_mj) {
  util::require(battery_mj > 0.0, "EnergyMeter: battery must be positive");
}

void EnergyMeter::spend_tx(std::size_t bytes) {
  const double mj = kTxPerByteMj * static_cast<double>(bytes);
  tx_mj_ += mj;
  spent_mj_ += mj;
}

void EnergyMeter::spend_rx(std::size_t bytes) {
  const double mj = kRxPerByteMj * static_cast<double>(bytes);
  rx_mj_ += mj;
  spent_mj_ += mj;
}

void EnergyMeter::spend_samples(std::size_t samples) {
  const double mj = kSampleMj * static_cast<double>(samples);
  sensing_mj_ += mj;
  spent_mj_ += mj;
}

double EnergyMeter::remaining_mj() const {
  return std::max(0.0, battery_mj_ - spent_mj_);
}

}  // namespace sid::wsn
