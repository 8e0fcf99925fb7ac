// LedgerView: the streamable per-session form of the attribution data.
// snapshot-before / snapshot-after / delta is how the serve daemon
// reports each session's energy split while the ledger keeps
// accumulating, and merge() is the fleet-aggregation fold.
#include <gtest/gtest.h>

#include <cstddef>

#include "bus/ec_signals.h"
#include "obs/ledger.h"

namespace sct {
namespace {

using obs::EnergyLedger;
using obs::LedgerView;
using obs::TxClass;

bus::Energy fJ(double v) { return bus::Energy::fromFj(v); }

TEST(LedgerView, ViewCopiesEveryAccumulator) {
  EnergyLedger led;
  led.add(bus::SignalId::EB_A, TxClass::InstrRead, 0, 0, fJ(1.5));
  led.add(bus::SignalId::EB_WData, TxClass::Write, 2, 1, fJ(2.25));
  led.add(bus::SignalId::EB_RData, TxClass::DataRead, -1, 3, fJ(0.125));

  const LedgerView v = led.view();
  EXPECT_EQ(v.total().fJ(), led.total_fJ());
  EXPECT_EQ(v.byBundle[static_cast<std::size_t>(bus::SignalId::EB_A)].fJ(),
            1.5);
  EXPECT_EQ(v.byClass[static_cast<std::size_t>(TxClass::Write)].fJ(), 2.25);
  // Slave -1 (decode miss) lands in slot 0.
  EXPECT_EQ(v.bySlave[0].fJ(), 0.125);
  EXPECT_EQ(v.byMaster[1].fJ(), 2.25);
}

TEST(LedgerView, DeltaIsolatesTheSessionWindow) {
  EnergyLedger led;
  led.add(bus::SignalId::EB_A, TxClass::InstrRead, 0, 0, fJ(10.0));
  const LedgerView before = led.view();

  led.add(bus::SignalId::EB_A, TxClass::InstrRead, 0, 0, fJ(3.0));
  led.add(bus::SignalId::EB_Write, TxClass::Write, 1, 0, fJ(4.0));
  const LedgerView after = led.view();

  const LedgerView d = obs::delta(after, before);
  EXPECT_EQ(d.total().fJ(), 7.0);
  EXPECT_EQ(d.byBundle[static_cast<std::size_t>(bus::SignalId::EB_A)].fJ(),
            3.0);
  EXPECT_EQ(
      d.byBundle[static_cast<std::size_t>(bus::SignalId::EB_Write)].fJ(), 4.0);
  EXPECT_EQ(d.byClass[static_cast<std::size_t>(TxClass::Write)].fJ(), 4.0);
  EXPECT_EQ(d.bySlave[2].fJ(), 4.0);
}

TEST(LedgerView, DeltaOfIdenticalViewsIsZero) {
  EnergyLedger led;
  led.add(bus::SignalId::EB_WData, TxClass::Write, 0, 0, fJ(5.0));
  const LedgerView v = led.view();
  EXPECT_EQ(obs::delta(v, v), LedgerView{});
}

TEST(LedgerView, MergeAccumulatesComponentWise) {
  EnergyLedger a;
  a.add(bus::SignalId::EB_A, TxClass::InstrRead, 0, 0, fJ(1.0));
  EnergyLedger b;
  b.add(bus::SignalId::EB_A, TxClass::InstrRead, 0, 0, fJ(2.0));
  b.add(bus::SignalId::EB_RData, TxClass::DataRead, 1, 1, fJ(8.0));

  LedgerView sum = a.view();
  obs::merge(sum, b.view());
  EXPECT_EQ(sum.total().fJ(), 11.0);
  EXPECT_EQ(sum.byBundle[static_cast<std::size_t>(bus::SignalId::EB_A)].fJ(),
            3.0);
  EXPECT_EQ(
      sum.byBundle[static_cast<std::size_t>(bus::SignalId::EB_RData)].fJ(),
      8.0);
  EXPECT_EQ(sum.bySlave[2].fJ(), 8.0);
}

TEST(LedgerView, TotalIsTheSumOfTheBundles) {
  // The ledger keeps no total of its own: whatever order contributions
  // arrive in, the total is the exact sum of the per-bundle split.
  EnergyLedger led;
  led.add(bus::SignalId::EB_A, TxClass::InstrRead, 0, 0, fJ(2.0));
  led.add(bus::SignalId::EB_WData, TxClass::Write, 0, 0, fJ(3.0));
  const LedgerView v = led.view();
  EXPECT_EQ(v.total().fJ(), 5.0);
  EXPECT_EQ(led.total_fJ(), 5.0);
  EXPECT_EQ(v.byBundle[static_cast<std::size_t>(bus::SignalId::EB_A)].fJ(),
            2.0);
}

} // namespace
} // namespace sct
