// Energy-attribution ledger.
//
// The power models report energy as flat totals (the paper's Table 2
// interface-level numbers). The ledger splits every contribution four
// ways while it is being accumulated — by signal bundle, by transaction
// class (instruction read / data read / write), by decoded slave, and
// by master — which is the per-component breakdown the AMBA TLM
// validation work (Kim et al.) and the power-emulation instrumentation
// of Coburn et al. report, and the actionable form for power-aware
// firmware decisions ("which interface, talking to which slave, costs
// what").
//
// Reconciliation contract (enforced by tests/obs/ledger_reconcile_test):
// the attached model forwards every energy term it adds to its own
// total, and every accumulator is an exact integer bus::Energy, so each
// dimension — by bundle, by class, by slave, by master — sums to the
// model's total exactly, whatever order the terms arrive in. The ledger
// keeps no total of its own: its total is the sum of the bundles.
#ifndef SCT_OBS_LEDGER_H
#define SCT_OBS_LEDGER_H

#include <array>
#include <cstdint>

#include "bus/ec_signals.h"
#include "bus/ec_types.h"
#include "bus/energy.h"
#include "ckpt/state_io.h"
#include "obs/obs.h"

namespace sct::obs {

/// Transaction classes the ledger attributes to (the paper's workload
/// decomposition: instruction reads, data reads, writes).
enum class TxClass : std::uint8_t { InstrRead, DataRead, Write, kCount };

inline constexpr std::size_t kTxClassCount =
    static_cast<std::size_t>(TxClass::kCount);

constexpr TxClass txClassOf(bus::Kind k) {
  switch (k) {
    case bus::Kind::InstrFetch: return TxClass::InstrRead;
    case bus::Kind::Read: return TxClass::DataRead;
    case bus::Kind::Write: return TxClass::Write;
  }
  return TxClass::DataRead;
}

constexpr const char* txClassName(TxClass c) {
  switch (c) {
    case TxClass::InstrRead: return "instr-read";
    case TxClass::DataRead: return "data-read";
    case TxClass::Write: return "write";
    case TxClass::kCount: break;
  }
  return "?";
}

/// Slave dimension: decoded index -1 (miss) .. 7 (decoder limit),
/// stored shifted by one. Master dimension: platform masters (CPU,
/// DMA, bridge, ...). Shared by the live ledger and LedgerView so the
/// view type exists identically in SCT_OBS=OFF builds.
inline constexpr std::size_t kLedgerSlaveSlots = 9;
inline constexpr std::size_t kLedgerMasterSlots = 4;

/// Value-type copy of every ledger accumulator — the streamable form
/// of the attribution data. A long-running server cannot wait for
/// end-of-run totals: it snapshots the ledger at each session boundary
/// and streams `delta(end, start)` per session while the simulation
/// keeps accumulating. Views also merge (fleet aggregation across
/// workers), mirroring obs::merge for registry snapshots.
struct LedgerView {
  std::array<bus::Energy, bus::kSignalCount> byBundle{};
  std::array<bus::Energy, kTxClassCount> byClass{};
  std::array<bus::Energy, kLedgerSlaveSlots> bySlave{};
  std::array<bus::Energy, kLedgerMasterSlots> byMaster{};

  /// Every contribution lands in exactly one bundle.
  bus::Energy total() const {
    bus::Energy t;
    for (const bus::Energy e : byBundle) t += e;
    return t;
  }

  /// Call `fn(mine, theirs)` on every accumulator of this view and the
  /// matching one of `other`.
  template <typename Fn>
  void zip(const LedgerView& other, Fn fn) {
    const auto each = [&fn](auto& mine, const auto& theirs) {
      for (std::size_t i = 0; i < mine.size(); ++i) fn(mine[i], theirs[i]);
    };
    each(byBundle, other.byBundle);
    each(byClass, other.byClass);
    each(bySlave, other.bySlave);
    each(byMaster, other.byMaster);
  }

  bool operator==(const LedgerView&) const = default;
};

/// Component-wise `end - start`: the attribution accumulated between
/// two snapshots of the SAME ledger.
inline LedgerView delta(LedgerView end, const LedgerView& start) {
  end.zip(start, [](bus::Energy& e, bus::Energy s) { e = e - s; });
  return end;
}

/// Component-wise accumulate: fold `add` into `into` (aggregating
/// per-session deltas into a fleet total).
inline void merge(LedgerView& into, const LedgerView& add) {
  into.zip(add, [](bus::Energy& e, bus::Energy a) { e += a; });
}

#if SCT_OBS_ENABLED

class EnergyLedger {
 public:
  static constexpr std::size_t kSlaveSlots = kLedgerSlaveSlots;
  static constexpr std::size_t kMasterSlots = kLedgerMasterSlots;

  /// Record one energy contribution. Out of line: the caller is the
  /// models' per-signal hot path, which should carry only the
  /// ledger-attached pointer test.
  SCT_OBS_COLD void add(bus::SignalId bundle, TxClass cls, int slave,
                        int master, bus::Energy e) {
    v_.byBundle[static_cast<std::size_t>(bundle)] += e;
    v_.byClass[static_cast<std::size_t>(cls)] += e;
    v_.bySlave[slaveSlot(slave)] += e;
    v_.byMaster[masterSlot(master)] += e;
  }

  /// Equal to the attached model's totalEnergy_fJ().
  double total_fJ() const { return v_.total().fJ(); }

  double byBundle_fJ(bus::SignalId id) const {
    return v_.byBundle[static_cast<std::size_t>(id)].fJ();
  }
  double byClass_fJ(TxClass c) const {
    return v_.byClass[static_cast<std::size_t>(c)].fJ();
  }
  /// `slave` in [-1, kSlaveSlots - 2]; -1 aggregates decode misses.
  double bySlave_fJ(int slave) const {
    return v_.bySlave[slaveSlot(slave)].fJ();
  }
  double byMaster_fJ(int master) const {
    return v_.byMaster[masterSlot(master)].fJ();
  }

  void reset() { v_ = LedgerView{}; }

  /// Every accumulator, as the streamable value type; paired with
  /// delta() for per-session attribution.
  const LedgerView& view() const { return v_; }

  /// -- Checkpoint (see ckpt/checkpoint.h): every split accumulator.
  /// The OBS=OFF stub writes the same-shaped empty section so snapshots
  /// stay loadable across builds with the hooks compiled out. Version
  /// 3: integer accumulators, and no separate total.
  static constexpr std::uint32_t kCkptVersion = 3;

  void saveState(ckpt::StateWriter& w) const {
    w.b(true);  // Accumulators present.
    for (const bus::Energy e : v_.byBundle) w.i64(e.quanta);
    for (const bus::Energy e : v_.byClass) w.i64(e.quanta);
    for (const bus::Energy e : v_.bySlave) w.i64(e.quanta);
    for (const bus::Energy e : v_.byMaster) w.i64(e.quanta);
  }

  void loadState(ckpt::StateReader& r) {
    if (!r.b()) return;  // Saved by an OBS=OFF build: nothing recorded.
    for (bus::Energy& e : v_.byBundle) e.quanta = r.i64();
    for (bus::Energy& e : v_.byClass) e.quanta = r.i64();
    for (bus::Energy& e : v_.bySlave) e.quanta = r.i64();
    for (bus::Energy& e : v_.byMaster) e.quanta = r.i64();
  }

 private:
  static std::size_t slaveSlot(int slave) {
    const std::size_t s = static_cast<std::size_t>(slave + 1);
    return s < kSlaveSlots ? s : kSlaveSlots - 1;
  }
  static std::size_t masterSlot(int master) {
    const std::size_t m = master < 0 ? 0 : static_cast<std::size_t>(master);
    return m < kMasterSlots ? m : kMasterSlots - 1;
  }

  LedgerView v_;
};

#else // !SCT_OBS_ENABLED

class EnergyLedger {
 public:
  static constexpr std::size_t kSlaveSlots = kLedgerSlaveSlots;
  static constexpr std::size_t kMasterSlots = kLedgerMasterSlots;
  void add(bus::SignalId, TxClass, int, int, bus::Energy) {}
  double total_fJ() const { return 0.0; }
  double byBundle_fJ(bus::SignalId) const { return 0.0; }
  double byClass_fJ(TxClass) const { return 0.0; }
  double bySlave_fJ(int) const { return 0.0; }
  double byMaster_fJ(int) const { return 0.0; }
  void reset() {}
  LedgerView view() const { return LedgerView{}; }

  static constexpr std::uint32_t kCkptVersion = 3;
  void saveState(ckpt::StateWriter& w) const { w.b(false); }
  void loadState(ckpt::StateReader& r) {
    if (r.b()) {
      // Section written by an OBS=ON build: skip its accumulators.
      const std::size_t n =
          bus::kSignalCount + kTxClassCount + kSlaveSlots + kMasterSlots;
      for (std::size_t i = 0; i < n; ++i) (void)r.i64();
    }
  }
};

#endif // SCT_OBS_ENABLED

} // namespace sct::obs

#endif // SCT_OBS_LEDGER_H
