// One pooled card: a TL1 SmartCardSoC with its power model and energy
// ledger, recyclable from a shared golden boot snapshot.
//
// The serve daemon's whole speed story lives here. Booting a card —
// constructing the platform, loading the applet, running the card OS
// cold-boot prelude (RAM zeroization, EEPROM scan, crypto self-test;
// ~25k bus cycles) to its command-wait loop — costs an order of
// magnitude more than the short session it serves. Instead, ONE card
// boots to the wait loop, a
// snapshot is taken at a quiesce point (bootGolden), and every pooled
// instance restores that snapshot before each session (recycle). The
// snapshot deliberately carries TWO sections beyond the SoC's own
// fourteen: the Tl1 power model ("pm") and the energy ledger
// ("ledger"). Restoring them rewinds the signal frame and every energy
// accumulator to the identical boot-end state, so a session's energy
// delta is the same exact integer no matter which worker ran it or how
// many sessions the instance served before — the foundation of the
// threads=1 vs threads=N bit-identity contract.
//
// Thread model: a CardInstance is single-threaded (one per pool
// worker). The golden Snapshot is shared across workers by const
// reference — it is plain immutable data after bootGolden returns.
#ifndef SCT_SERVE_CARD_INSTANCE_H
#define SCT_SERVE_CARD_INSTANCE_H

#include <cstdint>
#include <string>
#include <vector>

#include "bus/tl1_bus.h"
#include "ckpt/checkpoint.h"
#include "obs/ledger.h"
#include "power/coeff_table.h"
#include "power/tl1_power_model.h"
#include "serve/scenario.h"
#include "soc/smartcard.h"

namespace sct::serve {

using Tl1Soc = soc::SmartCardSoC<bus::Tl1Bus>;

/// Everything a session produces. Doubles are exact accumulator
/// values; the JSON layer prints them losslessly.
struct SessionOutcome {
  bool ok = false;           ///< Every exchange completed (no timeout).
  bool expected = false;     ///< ...and every status word matched.
  std::vector<std::uint16_t> sw;  ///< Status word per step.
  std::uint64_t cycles = 0;  ///< Bus-clock cycles the session consumed.
  std::uint64_t instructions = 0;
  obs::LedgerView energy;    ///< Ledger delta over the session window.
  std::string error;         ///< Non-empty on failure.
};

class CardInstance {
 public:
  /// Builds the platform and loads the stock applet (PIN kCardPin).
  /// The instance is at reset — call recycle() with the golden
  /// snapshot before running sessions.
  explicit CardInstance(const power::SignalEnergyTable& table);

  CardInstance(const CardInstance&) = delete;
  CardInstance& operator=(const CardInstance&) = delete;

  /// Boot one card to the applet's command-wait loop and snapshot it
  /// at the first quiesce point (16 platform sections + pm + ledger).
  /// The warmup drives a complete GET CHALLENGE exchange first, which
  /// proves the command loop is live before the snapshot is taken.
  static ckpt::Snapshot bootGolden(const power::SignalEnergyTable& table);

  /// Rewind to the golden boot state: drain any in-flight bus/UART
  /// activity to a quiesce point, then restore every section. Safe on
  /// a freshly constructed instance and after any completed session
  /// (the end-of-session command halts the core). Throws
  /// ckpt::CheckpointError if the platform refuses to quiesce.
  void recycle(const ckpt::Snapshot& golden);

  /// Drive one scenario script against the card. The caller must have
  /// recycle()d since the previous session. Status-word mismatches are
  /// reported, not thrown; a transport timeout marks ok = false and
  /// stops the script.
  SessionOutcome runSession(const std::vector<Step>& steps,
                            std::uint64_t maxCyclesPerStep = 2'000'000);

  Tl1Soc& soc() { return soc_; }
  obs::EnergyLedger& ledger() { return ledger_; }

 private:
  void registerAll();

  Tl1Soc soc_;
  power::Tl1PowerModel pm_;
  obs::EnergyLedger ledger_;
  ckpt::CheckpointRegistry registry_;
};

} // namespace sct::serve

#endif // SCT_SERVE_CARD_INSTANCE_H
