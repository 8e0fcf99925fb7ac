// Per-signal energy coefficients.
//
// The paper's characterization step: "We abstracted all different
// transitions and use the average energy per transition for each signal
// considered for our power estimation." A SignalEnergyTable holds that
// abstraction — one femtojoule-per-transition coefficient per EC
// interface bundle — plus a text (de)serialization so characterized
// tables can be shipped with a platform.
//
// Each coefficient is quantized to bus::Energy once, when it is set;
// coeff_fJ() reads back the quantized value, so the text format, the
// models and every reader see the one number the models multiply by.
//
// Thread-safety: a SignalEnergyTable is a plain value type (an array of
// integers). Concurrent const access — coeff_fJ/coeffs/save — from any
// number of threads is safe as long as no thread mutates the same
// instance; the parallel exploration runner relies on this by sharing
// one characterized table across workers by const reference.
#ifndef SCT_POWER_COEFF_TABLE_H
#define SCT_POWER_COEFF_TABLE_H

#include <array>
#include <iosfwd>
#include <string>

#include "bus/ec_signals.h"
#include "bus/energy.h"

namespace sct::power {

class SignalEnergyTable {
 public:
  SignalEnergyTable() = default;

  double coeff_fJ(bus::SignalId id) const {
    return coeffs_[static_cast<std::size_t>(id)].fJ();
  }

  /// The flat per-signal coefficient array, indexed by SignalId order.
  const std::array<bus::Energy, bus::kSignalCount>& coeffs() const {
    return coeffs_;
  }
  void setCoeff_fJ(bus::SignalId id, double fJPerTransition) {
    coeffs_[static_cast<std::size_t>(id)] =
        bus::Energy::fromFj(fJPerTransition);
  }

  /// Serialize as "name fJ_per_transition" lines.
  void save(std::ostream& os) const;

  /// Parse the save() format. Throws std::runtime_error on unknown
  /// signal names, malformed lines or coefficients beyond 1e9 fJ;
  /// missing signals keep their current value.
  static SignalEnergyTable load(std::istream& is);

  bool operator==(const SignalEnergyTable&) const = default;

 private:
  std::array<bus::Energy, bus::kSignalCount> coeffs_{};
};

} // namespace sct::power

#endif // SCT_POWER_COEFF_TABLE_H
