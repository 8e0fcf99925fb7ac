// Layer-2 energy model (paper, Section 3.3 "Layer 2 Energy Model").
//
// "Due to the missing detailed timing information another approach is
// necessary. [...] Energy estimation is divided into two phases —
// address phase energy estimation and data phase energy estimation.
// The bus process passes the request to the corresponding energy
// estimation method after the [...] phase is finished. The entire
// address phase for a burst read or write is calculated at once."
//
// Estimation rules (and the inaccuracies they deliberately carry —
// "this model does not allow an accurate count of transitions for
// control signals [...] it considers each transaction phase on its own
// but does not consider interactions between following transactions"):
//
//  * EB_A:    driven-bit count of the address, charged against an idle
//             (zero) bus — the model keeps no cross-transaction state,
//             so repeated or sequential addresses are over-counted.
//  * Qualifiers (EB_Instr/EB_Write/EB_Burst/EB_BE): driven bits per
//             phase, same idle-state assumption.
//  * Handshake strobes: one full pulse (two transitions) per phase —
//             AValid+ARdy per address phase, RdVal or WDRdy per *beat*,
//             EB_Last per transaction. At layer 0/1, back-to-back
//             phases and streaming bursts hold these lines, so this
//             systematically over-counts — the dominant source of the
//             paper's +14.7 %.
//  * EB_Sel:  one pulse per transaction (the model cannot know whether
//             consecutive transactions hit the same slave's line).
//  * Data:    every beat is charged against an idle (zero) bus — "each
//             phase on its own", no inter-beat or inter-transaction
//             correlation; over-counts the strongly correlated data of
//             real instruction streams and arrays.
#ifndef SCT_POWER_TL2_POWER_MODEL_H
#define SCT_POWER_TL2_POWER_MODEL_H

#include <cstdint>

#include "bus/ec_interfaces.h"
#include "bus/ec_signals.h"
#include "ckpt/state_io.h"
#include "obs/ledger.h"
#include "power/coeff_table.h"
#include "power/power_if.h"

namespace sct::power {

class Tl2PowerModel final : public bus::Tl2Observer, public IntervalPowerIf {
 public:
  explicit Tl2PowerModel(const SignalEnergyTable& table) : table_(table) {}

  // bus::Tl2Observer
  void addressPhaseDone(const bus::Tl2PhaseInfo& info) override;
  void dataPhaseDone(const bus::Tl2PhaseInfo& info) override;

  // IntervalPowerIf — the paper's layer-2 power interface has only the
  // interval method; Figure 6 shows the resulting phase-granular
  // sampling skew.
  double energySinceLastCall_fJ() override;
  double totalEnergy_fJ() const override { return total_.fJ(); }

  /// Estimated transition counts per bundle (diagnostics).
  std::uint64_t estimatedTransitions(bus::SignalId id) const {
    return estTransitions_[static_cast<std::size_t>(id)];
  }

  /// Attach an energy-attribution ledger. Every per-phase energy term is
  /// forwarded, so ledger.total_fJ() equals totalEnergy_fJ(). `master`
  /// tags all contributions.
  void attachLedger(obs::EnergyLedger& ledger, int master = 0) {
    ledger_ = &ledger;
    master_ = master;
  }

  /// -- Checkpoint (see ckpt/checkpoint.h): estimated transition
  /// counters, energy accumulators and the attribution context of the
  /// last phase. Version 2: integer counters and accumulators.
  static constexpr std::uint32_t kCkptVersion = 2;

  void saveState(ckpt::StateWriter& w) const {
    for (const std::uint64_t v : estTransitions_) w.u64(v);
    w.i64(total_.quanta);
    w.i64(intervalMarker_.quanta);
    w.u8(static_cast<std::uint8_t>(ctxClass_));
    w.i64(ctxSlave_);
  }

  void loadState(ckpt::StateReader& r) {
    for (std::uint64_t& v : estTransitions_) v = r.u64();
    total_.quanta = r.i64();
    intervalMarker_.quanta = r.i64();
    ctxClass_ = static_cast<obs::TxClass>(r.u8());
    ctxSlave_ = static_cast<int>(r.i64());
  }

 private:
  void addTransitions(bus::SignalId id, std::uint64_t n);

  SignalEnergyTable table_;
  std::array<std::uint64_t, bus::kSignalCount> estTransitions_{};
  bus::Energy total_;
  bus::Energy intervalMarker_;

  // Energy attribution (null = detached). The phase context is stamped
  // at the top of each observer callback before the addTransitions
  // calls it covers.
  obs::EnergyLedger* ledger_ = nullptr;
  int master_ = 0;
  obs::TxClass ctxClass_ = obs::TxClass::DataRead;
  int ctxSlave_ = -1;
};

} // namespace sct::power

#endif // SCT_POWER_TL2_POWER_MODEL_H
