#include "power/tl2_power_model.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace sct::power {

using bus::SignalId;

namespace {

std::uint8_t byteEnablesOf(const bus::Tl2PhaseInfo& info) {
  if (info.bytes >= 4) return 0xF;
  const auto size =
      info.bytes == 1 ? bus::AccessSize::Byte : bus::AccessSize::Half;
  return bus::byteEnables(size, info.address);
}

/// Beat `i` of the transfer, zero-extended for sub-word transfers.
std::uint32_t beatWord(const bus::Tl2PhaseInfo& info, unsigned beat) {
  if (info.data == nullptr) return 0;
  const std::size_t off = std::size_t{4} * beat;
  const std::size_t n = std::min<std::size_t>(4, info.bytes - off);
  std::uint32_t w = 0;
  std::memcpy(&w, info.data + off, n);
  return w;
}

} // namespace

void Tl2PowerModel::addTransitions(SignalId id, std::uint64_t n) {
  if (n == 0) return;
  const auto i = static_cast<std::size_t>(id);
  estTransitions_[i] += n;
  const bus::Energy e = table_.coeffs()[i] * n;
  total_ += e;
  if constexpr (obs::kEnabled) {
    if (ledger_ != nullptr) ledger_->add(id, ctxClass_, ctxSlave_, master_, e);
  }
}

void Tl2PowerModel::addressPhaseDone(const bus::Tl2PhaseInfo& info) {
  if constexpr (obs::kEnabled) {
    if (ledger_ != nullptr) {
      ctxClass_ = obs::txClassOf(info.kind);
      ctxSlave_ = info.slave;
    }
  }
  // "Each transaction phase on its own": the model has no knowledge of
  // the wire state left behind by the previous transaction, so every
  // driven bus is charged against an idle (zero) state. Repeated or
  // sequential addresses — which toggle almost nothing at layer 0/1 —
  // are therefore over-counted; this is the paper's "does not consider
  // interactions between following transactions".
  addTransitions(SignalId::EB_A,
                 std::popcount(info.address & bus::signalMask(SignalId::EB_A)));
  if (info.kind == bus::Kind::InstrFetch) {
    addTransitions(SignalId::EB_Instr, 1);
  }
  if (info.kind == bus::Kind::Write) addTransitions(SignalId::EB_Write, 1);
  if (info.beats > 1) addTransitions(SignalId::EB_Burst, 1);
  addTransitions(SignalId::EB_BE, std::popcount(byteEnablesOf(info)));

  // Handshake strobes: one full pulse per phase — the model cannot see
  // that back-to-back phases hold these lines ("does not allow an
  // accurate count of transitions for control signals").
  addTransitions(SignalId::EB_AValid, 2);
  addTransitions(SignalId::EB_ARdy, info.error ? 0 : 2);

  // Select lines: one pulse per transaction; whether consecutive
  // transactions hit the same line is invisible at this layer.
  addTransitions(SignalId::EB_Sel, info.error ? 0 : 2);

  if (info.error) {
    addTransitions(info.kind == bus::Kind::Write ? SignalId::EB_WBErr
                                                 : SignalId::EB_RBErr,
                   2);
    addTransitions(SignalId::EB_Last, 2);
  }
}

void Tl2PowerModel::dataPhaseDone(const bus::Tl2PhaseInfo& info) {
  if constexpr (obs::kEnabled) {
    if (ledger_ != nullptr) {
      ctxClass_ = obs::txClassOf(info.kind);
      ctxSlave_ = info.slave;
    }
  }
  const SignalId dataBus =
      info.kind == bus::Kind::Write ? SignalId::EB_WData : SignalId::EB_RData;
  const SignalId strobe =
      info.kind == bus::Kind::Write ? SignalId::EB_WDRdy : SignalId::EB_RdVal;

  if (info.error) {
    addTransitions(info.kind == bus::Kind::Write ? SignalId::EB_WBErr
                                                 : SignalId::EB_RBErr,
                   2);
    addTransitions(SignalId::EB_Last, 2);
    return;
  }

  // Data bus: every beat is charged against an idle (zero) bus — "each
  // phase on its own", with no memory of the previous beat or the
  // previous transaction. Real instruction streams and array data are
  // strongly word-to-word correlated (small Hamming steps at layer
  // 0/1), so this is the data-bus share of the systematic layer-2
  // over-estimation.
  std::uint64_t dataTransitions = 0;
  for (unsigned b = 0; b < info.beats; ++b) {
    dataTransitions += std::popcount(beatWord(info, b));
  }
  addTransitions(dataBus, dataTransitions);

  // One strobe pulse per beat (layer 0/1 hold the line through a
  // streaming burst — systematic over-count), one EB_Last pulse per
  // transaction.
  addTransitions(strobe, 2 * std::uint64_t{info.beats});
  addTransitions(SignalId::EB_Last, 2);
}

double Tl2PowerModel::energySinceLastCall_fJ() {
  const bus::Energy delta = total_ - intervalMarker_;
  intervalMarker_ = total_;
  return delta.fJ();
}

} // namespace sct::power
