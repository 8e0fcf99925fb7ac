// Layer-1 energy model (paper, Section 3.3 "Layer 1 Energy Model").
//
// "The power estimation unit is implemented as a dedicated module. It
// defines for each bus interface signal a member variable for the new
// and old value. The new values for all signals are set by the
// different bus phases. The bus process calls the energy calculation
// method after the write phase. [...] This methodology is like a
// transaction level to RTL adapter."
//
// Tl1PowerModel attaches to the layer-1 bus as an observer. At
// busCycleBegin it opens a new signal frame (buses and qualifiers hold,
// handshake strobes deassert); the address-phase and beat events drive
// the new values; at busCycleEnd it counts bit transitions between the
// old and new frames and converts them to energy with the characterized
// per-signal coefficients. The reconstructed frames are bit-identical
// to the layer-0 reference model's frames on the same workload (a
// property enforced by tests), so the only estimation error left is the
// coefficient abstraction itself — slope, coupling, hazard and baseline
// detail averaged into one number per signal (Table 2, layer 1).
//
// The frame-reconstruction engine itself lives in
// bus::Tl1FrameEnergy (src/bus/tl1_frame_energy.h); this class is the
// public face — it binds the engine to the characterized coefficient
// table, adapts it to the Tl1Observer and CycleAccuratePowerIf
// interfaces, and advertises the engine through fusedFrameEnergy() so
// Tl1Bus can drive it non-virtually on the hot path. Both drive paths
// run the same engine code, so results are bit-identical either way
// (the observer path stays live for any publisher that does not know
// about fusing).
#ifndef SCT_POWER_TL1_POWER_MODEL_H
#define SCT_POWER_TL1_POWER_MODEL_H

#include <cstdint>

#include "bus/ec_interfaces.h"
#include "bus/ec_signals.h"
#include "bus/tl1_frame_energy.h"
#include "ckpt/state_io.h"
#include "obs/ledger.h"
#include "obs/stats.h"
#include "power/coeff_table.h"
#include "power/power_if.h"

namespace sct::power {

class Tl1PowerModel final : public bus::Tl1Observer,
                            public CycleAccuratePowerIf {
 public:
  explicit Tl1PowerModel(const SignalEnergyTable& table)
      : engine_(table.coeffs()) {}

  // bus::Tl1Observer — the generic (virtual) drive path; a fusing bus
  // calls the engine directly instead and never reaches these.
  void busCycleBegin(std::uint64_t cycle) override {
    engine_.busCycleBegin(cycle);
  }
  void addressPhase(const bus::AddressPhaseInfo& info) override {
    engine_.addressPhase(info);
  }
  void readBeat(const bus::DataBeatInfo& info) override {
    engine_.readBeat(info);
  }
  void writeBeat(const bus::DataBeatInfo& info) override {
    engine_.writeBeat(info);
  }
  void busCycleEnd(std::uint64_t cycle) override { engine_.busCycleEnd(cycle); }

  /// Hand the bus the engine for direct (non-virtual, inlinable)
  /// dispatch. Events and arithmetic are identical to the observer path
  /// above.
  bus::Tl1FrameEnergy* fusedFrameEnergy() override { return &engine_; }

  // CycleAccuratePowerIf
  double energyLastCycle_fJ() const override {
    return engine_.energyLastCycle_fJ();
  }
  double energySinceLastCall_fJ() override {
    return engine_.energySinceLastCall_fJ();
  }
  double totalEnergy_fJ() const override { return engine_.totalEnergy_fJ(); }

  /// Transition counts per bundle over the whole run (diagnostics).
  std::uint64_t transitions(bus::SignalId id) const {
    return engine_.transitions(id);
  }

  /// The frame as reconstructed for the last completed cycle (used by
  /// the layer-0 equivalence tests; read it after busCycleEnd, i.e.
  /// from an observer registered after the power model).
  const bus::SignalFrame& frame() const { return engine_.frame(); }

  /// Attach an energy-attribution ledger. Every coefficient term of the
  /// busCycleEnd walk is forwarded, so ledger.total_fJ() equals
  /// totalEnergy_fJ(). `master` tags all contributions (the EC bus is
  /// single-master). Detached: one null-check per phase callback.
  void attachLedger(obs::EnergyLedger& ledger, int master = 0) {
    engine_.attachLedger(ledger, master);
  }

  /// Force the scalar dirty-walk even on busy cycles (test hook: the
  /// equivalence suite runs packed and scalar models side by side and
  /// requires identical energy from both).
  void setPackedCounting(bool on) { engine_.setPackedCounting(on); }

  /// Cycles whose transition count went through the packed-lane wide
  /// XOR path (diagnostics, not serialized — resets with the object).
  std::uint64_t packedLaneCycles() const { return engine_.packedLaneCycles(); }

  /// Publish power.packed_lane_cycles into `reg`. Compiles to nothing
  /// with SCT_OBS=OFF.
  void publishObs(obs::StatsRegistry& reg) const {
    if constexpr (obs::kEnabled) {
      reg.counter("power.packed_lane_cycles").add(engine_.packedLaneCycles());
    } else {
      (void)reg;
    }
  }

  /// -- Checkpoint (see ckpt/checkpoint.h): the full signal state —
  /// frame, pre-cycle values, strobe masks, transition counts and the
  /// energy accumulators, so a restored model continues exactly where
  /// the saved run stopped. The byte layout is owned here and
  /// implemented by the engine. Version 2: the EB_Inv codec sideband
  /// joined the signal inventory, growing every per-signal array in the
  /// section by one slot. Version 3: the energy accumulators are
  /// integer bus::Energy quanta.
  static constexpr std::uint32_t kCkptVersion = 3;

  void saveState(ckpt::StateWriter& w) const { engine_.saveState(w); }
  void loadState(ckpt::StateReader& r) { engine_.loadState(r); }

 private:
  bus::Tl1FrameEnergy engine_;
};

} // namespace sct::power

#endif // SCT_POWER_TL1_POWER_MODEL_H
