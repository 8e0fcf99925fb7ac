// Energy-attribution ledger reconciliation (the obs subsystem's core
// correctness contract): for both power models, on every workload of
// the equivalence suite plus dense random mixes, and for one hybrid run
// feeding both layers into one ledger, the ledger total must be
// BIT-IDENTICAL to the model's own accumulator — same bits, not
// "close" — and to the sum the interval interface hands out. Every
// dimensional split (by bundle, by transaction class, by slave, by
// master) must sum to that total exactly, in integer quanta.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>

#include "../testbench.h"
#include "bus/ec_signals.h"
#include "bus/energy.h"
#include "hier/fidelity_controller.h"
#include "hier/hybrid_bus.h"
#include "obs/ledger.h"
#include "power/characterizer.h"
#include "power/tl1_power_model.h"
#include "power/tl2_power_model.h"
#include "trace/replay_master.h"
#include "trace/workloads.h"

namespace sct {
namespace {

using power::SignalEnergyTable;
using testbench::Tl1Bench;
using testbench::Tl2Bench;

const SignalEnergyTable& characterizedTable() {
  static const SignalEnergyTable table = [] {
    testbench::RefBench tb;
    power::Characterizer ch(testbench::energyModel());
    tb.bus.addFrameListener(ch);
    tb.run(trace::characterizationTrace(1234, 800, testbench::bothRegions()));
    return ch.buildTable();
  }();
  return table;
}

std::uint64_t bitsOf(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

/// Bit-identical, not approximately equal.
void expectSameBits(double a, double b, const std::string& what) {
  EXPECT_EQ(bitsOf(a), bitsOf(b)) << what << ": " << a << " vs " << b;
}

/// A model total back in integer quanta. Lossless: the models convert
/// an exact integer to double, which is exact below 2^53 quanta.
std::int64_t quantaOf(double fJ) { return bus::Energy::fromFj(fJ).quanta; }

template <std::size_t N>
std::int64_t sum(const std::array<bus::Energy, N>& split) {
  std::int64_t s = 0;
  for (const bus::Energy e : split) s += e.quanta;
  return s;
}

/// Every dimension of the ledger sums to the model total exactly, in
/// integer quanta — no tolerance, whatever order the terms arrived in.
void expectExactSplits(const obs::EnergyLedger& ledger,
                       std::int64_t modelTotal, const std::string& what) {
  const obs::LedgerView& v = ledger.view();
  EXPECT_EQ(sum(v.byBundle), modelTotal) << what << " (by bundle)";
  EXPECT_EQ(sum(v.byClass), modelTotal) << what << " (by class)";
  EXPECT_EQ(sum(v.bySlave), modelTotal) << what << " (by slave)";
  EXPECT_EQ(sum(v.byMaster), modelTotal) << what << " (by master)";
  EXPECT_EQ(v.total().quanta, modelTotal) << what << " (total)";
  EXPECT_EQ(quantaOf(ledger.total_fJ()), modelTotal) << what << " (total_fJ)";
}

template <typename Model>
void expectReconciled(const obs::EnergyLedger& ledger, Model& pm,
                      const std::string& what) {
  expectSameBits(ledger.total_fJ(), pm.totalEnergy_fJ(), what + " (total)");
  expectSameBits(ledger.total_fJ(), pm.energySinceLastCall_fJ(),
                 what + " (interval)");
  expectExactSplits(ledger, quantaOf(pm.totalEnergy_fJ()), what);
}

void checkTl1(const trace::BusTrace& t, const std::string& what) {
  Tl1Bench tb;
  power::Tl1PowerModel pm(characterizedTable());
  tb.bus.addObserver(pm);
  obs::EnergyLedger ledger;
  pm.attachLedger(ledger);
  tb.run(t);
  expectReconciled(ledger, pm, what);
}

void checkTl2(const trace::BusTrace& t, const std::string& what) {
  Tl2Bench tb;
  power::Tl2PowerModel pm(characterizedTable());
  tb.bus.addObserver(pm);
  obs::EnergyLedger ledger;
  pm.attachLedger(ledger);
  tb.run(t);
  expectReconciled(ledger, pm, what);
}

TEST(LedgerReconcileTest, Tl1VerificationSuite) {
  for (const trace::NamedTrace& nt : trace::verificationSuite(
           testbench::fastRegion(), testbench::waitedRegion())) {
    checkTl1(nt.trace, "tl1 " + nt.name);
  }
}

TEST(LedgerReconcileTest, Tl2VerificationSuite) {
  for (const trace::NamedTrace& nt : trace::verificationSuite(
           testbench::fastRegion(), testbench::waitedRegion())) {
    checkTl2(nt.trace, "tl2 " + nt.name);
  }
}

TEST(LedgerReconcileTest, Tl1RandomMixes) {
  for (std::uint64_t seed : {7u, 99u, 4242u}) {
    checkTl1(trace::randomMix(seed, 300, testbench::bothRegions(),
                              trace::MixRatios{2, 2, 1, 1, 1}, 3),
             "tl1 mix seed " + std::to_string(seed));
  }
}

TEST(LedgerReconcileTest, Tl2RandomMixes) {
  for (std::uint64_t seed : {7u, 99u, 4242u}) {
    checkTl2(trace::randomMix(seed, 300, testbench::bothRegions(),
                              trace::MixRatios{2, 2, 1, 1, 1}, 3),
             "tl2 mix seed " + std::to_string(seed));
  }
}

TEST(LedgerReconcileTest, Tl1AttributesClassesAndSlaves) {
  Tl1Bench tb;
  power::Tl1PowerModel pm(characterizedTable());
  tb.bus.addObserver(pm);
  obs::EnergyLedger ledger;
  pm.attachLedger(ledger, /*master=*/1);
  tb.run(trace::randomMix(5, 200, testbench::bothRegions(),
                          trace::MixRatios{1, 1, 1, 1, 1}, 0));
  // All classes active in this mix, both slaves decoded, master 1 only.
  EXPECT_GT(ledger.byClass_fJ(obs::TxClass::InstrRead), 0.0);
  EXPECT_GT(ledger.byClass_fJ(obs::TxClass::DataRead), 0.0);
  EXPECT_GT(ledger.byClass_fJ(obs::TxClass::Write), 0.0);
  EXPECT_GT(ledger.bySlave_fJ(0), 0.0);
  EXPECT_GT(ledger.bySlave_fJ(1), 0.0);
  // A single master carries the whole total.
  EXPECT_EQ(ledger.byMaster_fJ(1), ledger.total_fJ());
  EXPECT_EQ(ledger.byMaster_fJ(0), 0.0);
}

TEST(LedgerReconcileTest, HybridRunSumsBothLayersExactly) {
  // One ledger attached to both layers of a hybrid bus: ROI windows at
  // layer 1, the traffic between them at layer 2. Every term of either
  // model lands in the ledger, so each dimension sums exactly to the
  // two model totals added together.
  sim::Kernel kernel;
  sim::Clock clk{kernel, "clk", 10};
  hier::HybridBus hb{clk, "ecbus"};
  bus::MemorySlave fast{"ram", testbench::fastCtl()};
  bus::MemorySlave waited{"eeprom", testbench::waitedCtl()};
  hb.attach(fast);
  hb.attach(waited);
  power::Tl1PowerModel pm1(characterizedTable());
  power::Tl2PowerModel pm2(characterizedTable());
  obs::EnergyLedger ledger;
  pm1.attachLedger(ledger);
  pm2.attachLedger(ledger);
  hb.tl1().addObserver(pm1);
  hb.tl2().addObserver(pm2);
  hier::FidelityController ctrl(clk, hb);
  ctrl.attachPower(pm1, pm2);

  const trace::MixRatios mix{2, 2, 1, 1, 1};
  for (std::uint64_t s = 0; s < 3; ++s) {
    {
      hier::RoiScope roi(ctrl);
      const auto t = trace::randomMix(11 + s, 80, testbench::bothRegions(),
                                      mix, 3);
      trace::ReplayMaster m(clk, "roi", hb, hb, t);
      m.runToCompletion();
      clk.runCycles(2);  // Settle: trailing strobe deassertion.
    }
    const auto t =
        trace::randomMix(50 + s, 80, testbench::bothRegions(), mix, 3);
    trace::ReplayMaster bg(clk, "bg", hb, hb, t);
    bg.runToCompletion();
  }
  ctrl.finalize();

  ASSERT_GT(pm1.totalEnergy_fJ(), 0.0);
  ASSERT_GT(pm2.totalEnergy_fJ(), 0.0);
  expectExactSplits(ledger,
                    quantaOf(pm1.totalEnergy_fJ()) +
                        quantaOf(pm2.totalEnergy_fJ()),
                    "hybrid");
}

TEST(LedgerReconcileTest, ResetClearsEverything) {
  obs::EnergyLedger ledger;
  ledger.add(bus::SignalId::EB_A, obs::TxClass::Write, 0, 0,
             bus::Energy::fromFj(2.0));
  ledger.reset();
  EXPECT_EQ(ledger.total_fJ(), 0.0);
  EXPECT_EQ(ledger.byClass_fJ(obs::TxClass::Write), 0.0);
}

} // namespace
} // namespace sct
