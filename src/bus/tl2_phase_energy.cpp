#include "bus/tl2_phase_energy.h"

#include "bus/tl2_bus.h"

namespace sct::bus {

Tl2PhaseEnergy::Tl2PhaseEnergy(const std::array<Energy, kSignalCount>& coeffs)
    : coeff_(coeffs) {
  // The constant terms of every bucket, in transitions per signal:
  const auto add = [this](std::size_t b, SignalId id, std::uint8_t n) {
    buckets_[b].transitions[static_cast<std::size_t>(id)] += n;
    buckets_[b].fixed += coeff_[static_cast<std::size_t>(id)] * n;
  };
  for (const Kind k : {Kind::InstrFetch, Kind::Read, Kind::Write}) {
    const SignalId errLine =
        k == Kind::Write ? SignalId::EB_WBErr : SignalId::EB_RBErr;
    for (const bool error : {false, true}) {
      for (const bool burst : {false, true}) {
        // Address phase. "Each transaction phase on its own": every
        // driven qualifier is charged against an idle (zero) bus, and
        // each handshake strobe makes one full pulse per phase — the
        // model cannot see that back-to-back phases hold these lines
        // ("does not allow an accurate count of transitions for control
        // signals"). The select line pulses once per transaction;
        // whether consecutive transactions hit the same line is
        // invisible at this layer.
        const std::size_t b = addrBucket(k, error, burst);
        if (k == Kind::InstrFetch) add(b, SignalId::EB_Instr, 1);
        if (k == Kind::Write) add(b, SignalId::EB_Write, 1);
        if (burst) add(b, SignalId::EB_Burst, 1);
        add(b, SignalId::EB_AValid, 2);
        if (error) {
          add(b, errLine, 2);
          add(b, SignalId::EB_Last, 2);
        } else {
          add(b, SignalId::EB_ARdy, 2);
          add(b, SignalId::EB_Sel, 2);
        }
      }
      // Data phase: one EB_Last pulse per transaction (the per-beat
      // strobe pulse is beatEnergy_), or the error pulse instead.
      const std::size_t b = dataBucket(k, error);
      if (error) add(b, errLine, 2);
      add(b, SignalId::EB_Last, 2);
    }
  }
  for (std::size_t ch = 0; ch < 2; ++ch) {
    beatEnergy_[ch] = coeff(kStrobe[ch]) * 2;
  }
}

Tl2PhaseEnergy::~Tl2PhaseEnergy() {
  if (bus_ != nullptr) bus_->unfuse(*this);
}

void Tl2PhaseEnergy::sync() const {
  if (bus_ != nullptr) bus_->retireDue();
}

std::array<std::uint64_t, kSignalCount> Tl2PhaseEnergy::counts() const {
  std::array<std::uint64_t, kSignalCount> n = base_;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    for (std::size_t i = 0; i < kSignalCount; ++i) {
      n[i] += bucketPhases_[b] * buckets_[b].transitions[i];
    }
  }
  const auto at = [&n](SignalId id) -> std::uint64_t& {
    return n[static_cast<std::size_t>(id)];
  };
  at(SignalId::EB_A) += addrBits_;
  at(SignalId::EB_BE) += byteEnableBits_;
  for (std::size_t ch = 0; ch < 2; ++ch) {
    at(kDataBus[ch]) += dataBits_[ch];
    at(kStrobe[ch]) += 2 * beats_[ch];
  }
  return n;
}

void Tl2PhaseEnergy::attribute(const Tl2Request& req, unsigned bucket,
                               unsigned addrBits, unsigned byteEnables,
                               unsigned beats, unsigned dataBits) {
  ctxClass_ = obs::txClassOf(req.kind);
  ctxSlave_ = req.slave;
  const auto bill = [this](SignalId id, std::uint64_t n) {
    if (n == 0) return;
    ledger_->add(id, ctxClass_, ctxSlave_, master_, coeff(id) * n);
  };
  const Bucket& row = buckets_[bucket];
  for (std::size_t i = 0; i < kSignalCount; ++i) {
    bill(static_cast<SignalId>(i), row.transitions[i]);
  }
  bill(SignalId::EB_A, addrBits);
  bill(SignalId::EB_BE, byteEnables);
  const unsigned ch = channel(req.kind);
  bill(kDataBus[ch], dataBits);
  bill(kStrobe[ch], 2 * std::uint64_t{beats});
}

double Tl2PhaseEnergy::totalEnergy_fJ() const {
  sync();
  return total_.fJ();
}

double Tl2PhaseEnergy::energySinceLastCall_fJ() {
  sync();
  const Energy delta = total_ - intervalMarker_;
  intervalMarker_ = total_;
  return delta.fJ();
}

std::uint64_t Tl2PhaseEnergy::estimatedTransitions(SignalId id) const {
  sync();
  return counts()[static_cast<std::size_t>(id)];
}

void Tl2PhaseEnergy::attachLedger(obs::EnergyLedger& ledger, int master) {
  // Boundaries the bus has already passed were priced before the
  // attach on the exact-cycle path; price them unattributed here too.
  sync();
  ledger_ = &ledger;
  master_ = master;
}

void Tl2PhaseEnergy::saveState(ckpt::StateWriter& w) const {
  sync();
  for (const std::uint64_t v : counts()) w.u64(v);
  w.i64(total_.quanta);
  w.i64(intervalMarker_.quanta);
  w.u8(static_cast<std::uint8_t>(ctxClass_));
  w.i64(ctxSlave_);
}

void Tl2PhaseEnergy::loadState(ckpt::StateReader& r) {
  sync();  // Nothing due may be priced into the restored state later.
  for (std::uint64_t& v : base_) v = r.u64();
  bucketPhases_ = {};
  addrBits_ = byteEnableBits_ = 0;
  beats_ = {};
  dataBits_ = {};
  total_.quanta = r.i64();
  intervalMarker_.quanta = r.i64();
  ctxClass_ = static_cast<obs::TxClass>(r.u8());
  ctxSlave_ = static_cast<int>(r.i64());
}

} // namespace sct::bus
