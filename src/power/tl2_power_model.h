// Layer-2 energy model (paper, Section 3.3 "Layer 2 Energy Model").
//
// "Due to the missing detailed timing information another approach is
// necessary. [...] Energy estimation is divided into two phases —
// address phase energy estimation and data phase energy estimation.
// The bus process passes the request to the corresponding energy
// estimation method after the [...] phase is finished. The entire
// address phase for a burst read or write is calculated at once."
//
// The pricing engine, with the estimation rules and the inaccuracies
// they deliberately carry, is bus::Tl2PhaseEnergy
// (src/bus/tl2_phase_energy.h). This class binds it to the
// characterized coefficient table and adds the paper's layer-2 power
// interface. Attached to a Tl2Bus as an observer it hands the bus its
// engine (fusedPhaseEnergy), and the bus prices each phase as it
// retires it; the model receives no per-phase virtual callbacks.
#ifndef SCT_POWER_TL2_POWER_MODEL_H
#define SCT_POWER_TL2_POWER_MODEL_H

#include <cstdint>

#include "bus/ec_interfaces.h"
#include "bus/tl2_phase_energy.h"
#include "power/coeff_table.h"
#include "power/power_if.h"

namespace sct::power {

class Tl2PowerModel final : public bus::Tl2Observer,
                            public bus::Tl2PhaseEnergy,
                            public IntervalPowerIf {
 public:
  explicit Tl2PowerModel(const SignalEnergyTable& table)
      : bus::Tl2PhaseEnergy(table.coeffs()) {}

  // bus::Tl2Observer: Tl2Bus, the only layer-2 publisher, drives the
  // engine directly.
  bus::Tl2PhaseEnergy* fusedPhaseEnergy() override { return this; }

  // IntervalPowerIf — the paper's layer-2 power interface has only the
  // interval method; Figure 6 shows the resulting phase-granular
  // sampling skew.
  double energySinceLastCall_fJ() override {
    return bus::Tl2PhaseEnergy::energySinceLastCall_fJ();
  }
  double totalEnergy_fJ() const override {
    return bus::Tl2PhaseEnergy::totalEnergy_fJ();
  }

  /// -- Checkpoint (see ckpt/checkpoint.h): estimated transition
  /// counters, energy accumulators and the attribution context of the
  /// last phase. The byte layout is owned here and implemented by the
  /// engine. Version 2: integer counters and accumulators.
  static constexpr std::uint32_t kCkptVersion = 2;
};

} // namespace sct::power

#endif // SCT_POWER_TL2_POWER_MODEL_H
