// Phase-pricing engine of the layer-2 energy model.
//
// This is the arithmetic of power::Tl2PowerModel (paper, Section 3.3),
// factored out so the layer-2 bus can drive it through non-virtual
// calls: when an observer offering an engine
// (Tl2Observer::fusedPhaseEnergy) attaches to Tl2Bus, the bus prices
// every finished phase directly from its Tl2Request — no Tl2PhaseInfo
// build, no virtual call — and, because every phase is fixed at accept,
// it does so when it *retires* the phase. An event-driven bus with no
// plain observer therefore keeps its process parked: boundaries are
// priced in batches from the interface entry points and from the
// readers below, which bring the bus current (Tl2Bus::retireDue) before
// they read. Energy is an exact integer (bus::Energy), so a batch
// priced at retirement sums to the same bits as one phase per edge.
// Like Tl1FrameEnergy the engine takes the characterized coefficients
// as a plain array, so bus/ stays independent of power/.
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
#ifndef SCT_BUS_TL2_PHASE_ENERGY_H
#define SCT_BUS_TL2_PHASE_ENERGY_H

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

#include "bus/ec_request.h"
#include "bus/ec_signals.h"
#include "bus/energy.h"
#include "ckpt/state_io.h"
#include "obs/ledger.h"

namespace sct::bus {

class Tl2Bus;

class Tl2PhaseEnergy {
 public:
  explicit Tl2PhaseEnergy(const std::array<Energy, kSignalCount>& coeffs);
  /// Unlinks from the fusing bus, so either may be destroyed first.
  ~Tl2PhaseEnergy();
  Tl2PhaseEnergy(const Tl2PhaseEnergy&) = delete;
  Tl2PhaseEnergy& operator=(const Tl2PhaseEnergy&) = delete;

  // -- Pricing hooks, driven by the fusing Tl2Bus -----------------------
  //
  // Everything about a phase but its address, byte enables and data is
  // fixed by its (phase, kind, error, burst) bucket, priced once at
  // construction; a call adds the bucket's constant, the popcount terms
  // and, for data phases, one strobe pulse per beat. The per-signal
  // counts are derived from the same tallies when read.

  /// Price a finished address phase (a decode miss errors out of it).
  void addressPhase(const Tl2Request& req) {
    const bool error = req.slave < 0;
    const unsigned b = addrBucket(req.kind, error, req.beatCount() > 1);
    const unsigned a = static_cast<unsigned>(
        std::popcount(req.address & signalMask(SignalId::EB_A)));
    const unsigned be = byteEnableCount(req.bytes);
    ++bucketPhases_[b];
    addrBits_ += a;
    byteEnableBits_ += be;
    total_ += buckets_[b].fixed + coeff(SignalId::EB_A) * a +
              coeff(SignalId::EB_BE) * be;
    if constexpr (obs::kEnabled) {
      if (ledger_ != nullptr) attribute(req, b, a, be, 0, 0);
    }
  }

  /// Price a finished data phase; `ok` is the block transfer's result.
  void dataPhase(const Tl2Request& req, bool ok) {
    const unsigned b = dataBucket(req.kind, !ok);
    ++bucketPhases_[b];
    Energy e = buckets_[b].fixed;
    unsigned beats = 0;
    unsigned bits = 0;
    if (ok) {
      const unsigned ch = channel(req.kind);
      beats = req.beatCount();
      bits = dataBits(req);
      beats_[ch] += beats;
      dataBits_[ch] += bits;
      e += beatEnergy_[ch] * beats + coeff(kDataBus[ch]) * bits;
    }
    total_ += e;
    if constexpr (obs::kEnabled) {
      if (ledger_ != nullptr) attribute(req, b, 0, 0, beats, bits);
    }
  }

  // -- Readers: each brings the fusing bus current first ----------------

  double totalEnergy_fJ() const;
  double energySinceLastCall_fJ();

  /// Estimated transition counts per bundle (diagnostics).
  std::uint64_t estimatedTransitions(SignalId id) const;

  /// Attach an energy-attribution ledger. Every per-phase energy term is
  /// forwarded, so ledger.total_fJ() equals totalEnergy_fJ() once the
  /// bus is current — the ledger itself cannot sync, so between cycles
  /// read the model (or query the bus) before the ledger. `master` tags
  /// all contributions.
  void attachLedger(obs::EnergyLedger& ledger, int master = 0);

  /// -- Checkpoint section body (layout owned by Tl2PowerModel):
  /// estimated transition counters, energy accumulators and the
  /// attribution context of the last phase priced with a ledger. The
  /// counters are saved as derived; a load keeps them as the base the
  /// tallies count on from.
  void saveState(ckpt::StateWriter& w) const;
  void loadState(ckpt::StateReader& r);

 private:
  friend class Tl2Bus;  ///< Links and unlinks bus_.

  /// The constant part of one bucket: per-signal transition counts and
  /// their energy in quanta.
  struct Bucket {
    Energy fixed;
    std::array<std::uint8_t, kSignalCount> transitions{};
  };
  /// Address buckets by (kind, error, burst), then data buckets by
  /// (kind, error).
  static constexpr std::size_t kKinds = 3;
  static constexpr std::size_t kAddrBuckets = kKinds * 2 * 2;
  static constexpr std::size_t kBuckets = kAddrBuckets + kKinds * 2;
  /// Data channels: 0 = read (fetches and reads), 1 = write.
  static constexpr std::array<SignalId, 2> kDataBus = {SignalId::EB_RData,
                                                       SignalId::EB_WData};
  static constexpr std::array<SignalId, 2> kStrobe = {SignalId::EB_RdVal,
                                                      SignalId::EB_WDRdy};

  static unsigned addrBucket(Kind k, bool error, bool burst) {
    return (static_cast<unsigned>(k) * 2 + error) * 2 + burst;
  }
  static unsigned dataBucket(Kind k, bool error) {
    return static_cast<unsigned>(kAddrBuckets) + static_cast<unsigned>(k) * 2 +
           error;
  }
  static unsigned channel(Kind k) { return k == Kind::Write ? 1 : 0; }
  /// Driven byte-enable lines of a validated transfer (1, 2 or >= 4
  /// bytes): one per byte lane, all four for word-sized beats.
  static unsigned byteEnableCount(std::size_t bytes) {
    return bytes >= 4 ? 4 : (bytes == 1 ? 1 : 2);
  }
  /// Set bits over the whole payload. Every beat is charged against an
  /// idle (zero) bus, and a sub-word beat is zero-extended, so this is
  /// the data-bus transition count of the phase.
  static unsigned dataBits(const Tl2Request& req) {
    const std::uint8_t* p = req.data;
    const std::size_t n = req.bytes;
    std::size_t off = 0;
    unsigned bits = 0;
    for (; off + 8 <= n; off += 8) {
      std::uint64_t w;
      std::memcpy(&w, p + off, 8);
      bits += static_cast<unsigned>(std::popcount(w));
    }
    if (off + 4 <= n) {
      std::uint32_t w;
      std::memcpy(&w, p + off, 4);
      bits += static_cast<unsigned>(std::popcount(w));
      off += 4;
    }
    for (; off < n; ++off) bits += static_cast<unsigned>(std::popcount(p[off]));
    return bits;
  }

  Energy coeff(SignalId id) const {
    return coeff_[static_cast<std::size_t>(id)];
  }
  /// The derived per-signal transition counts.
  std::array<std::uint64_t, kSignalCount> counts() const;
  /// Forward one phase's terms to the ledger, bucket row by signal.
  SCT_OBS_COLD void attribute(const Tl2Request& req, unsigned bucket,
                              unsigned addrBits, unsigned byteEnables,
                              unsigned beats, unsigned dataBits);
  /// Retire every boundary the fusing bus has passed (no-op unfused).
  void sync() const;

  std::array<Energy, kSignalCount> coeff_;
  std::array<Bucket, kBuckets> buckets_;
  std::array<Energy, 2> beatEnergy_;  ///< One strobe pulse, per channel.

  // Tallies the per-signal counts are derived from.
  std::array<std::uint64_t, kSignalCount> base_{};  ///< Loaded counts.
  std::array<std::uint64_t, kBuckets> bucketPhases_{};
  std::uint64_t addrBits_ = 0;
  std::uint64_t byteEnableBits_ = 0;
  std::array<std::uint64_t, 2> beats_{};     ///< Per channel.
  std::array<std::uint64_t, 2> dataBits_{};  ///< Per channel.

  Energy total_;
  Energy intervalMarker_;
  Tl2Bus* bus_ = nullptr;  ///< The bus this engine is fused into.

  // Energy attribution (null = detached), stamped per phase priced
  // with the ledger attached.
  obs::EnergyLedger* ledger_ = nullptr;
  int master_ = 0;
  obs::TxClass ctxClass_ = obs::TxClass::DataRead;
  int ctxSlave_ = -1;
};

} // namespace sct::bus

#endif // SCT_BUS_TL2_PHASE_ENERGY_H
