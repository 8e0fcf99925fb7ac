// The adaptive-fidelity headline invariant: inside ROI windows, the
// hybrid bus is *bit-identical* to a pure layer-1 run over the same
// transactions — elapsed cycles, signal-frame transition counts,
// accumulated energy, per-region attribution, ledger totals and the
// cycle-resolved power profile. Outside the ROIs the hybrid run does
// unrelated event-driven background traffic through the TL2 layer,
// which must not perturb any of the above: the suspended TL1 power
// model sees no callbacks, so the terms it prices are exactly the pure
// run's.
//
// Construction: N random-mix ROI segments over the fast region
// (back-to-back issue), each bracketed by enterRoi()/exitRoi() with two
// idle settle cycles so the trailing strobe deassertion books into the
// region (see fidelity_controller.h). Between segments, background
// traffic targets only the waited region, keeping the ROI-visible
// memory identical to the pure reference.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../testbench.h"
#include "bus/ec_signals.h"
#include "hier/fidelity_controller.h"
#include "hier/hybrid_bus.h"
#include "hier/roi_trigger.h"
#include "obs/ledger.h"
#include "power/budget.h"
#include "power/profile.h"
#include "power/tl1_power_model.h"
#include "power/tl2_power_model.h"
#include "trace/replay_master.h"
#include "trace/workloads.h"

namespace sct::hier {
namespace {

using bus::SignalId;

power::SignalEnergyTable distinctTable() {
  power::SignalEnergyTable t;
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    t.setCoeff_fJ(static_cast<SignalId>(i),
                  7.25 + 1.0 / static_cast<double>(3 * i + 1));
  }
  return t;
}

trace::BusTrace roiSegment(std::uint64_t seed) {
  // Back-to-back issue inside the fast region only: the pure reference
  // replays the same segments with the same in-flight timing.
  return trace::randomMix(seed, 60, std::vector{testbench::fastRegion()},
                          trace::MixRatios{}, /*issueGapMax=*/0);
}

trace::BusTrace backgroundSegment(std::uint64_t seed) {
  return trace::randomMix(seed, 40, std::vector{testbench::waitedRegion()},
                          trace::MixRatios{}, /*issueGapMax=*/2);
}

constexpr std::uint64_t kSegments = 4;

struct SegmentRecord {
  std::uint64_t elapsed = 0;
  double cumulativeEnergy_fJ = 0.0;
  double delta_fJ = 0.0;
  std::vector<bus::Word> readWords;
};

TEST(HybridEquivalence, RoiWindowsAreBitIdenticalToPureTl1) {
  const auto table = distinctTable();

  // ---- Pure layer-1 reference: the ROI segments back to back. ----
  testbench::Tl1Bench pure;
  power::Tl1PowerModel purePm(table);
  obs::EnergyLedger pureLedger;
  purePm.attachLedger(pureLedger);
  pure.bus.addObserver(purePm);
  power::PowerProfile pureProfile(10);
  power::Tl1ProfileRecorder pureRecorder(purePm, pureProfile);
  pure.bus.addObserver(pureRecorder);

  std::vector<SegmentRecord> pureSeg(kSegments);
  for (std::uint64_t s = 0; s < kSegments; ++s) {
    const double before = purePm.totalEnergy_fJ();
    const auto t = roiSegment(101 + s);
    trace::ReplayMaster m(pure.clk, "roi", pure.bus, pure.bus, t);
    pureSeg[s].elapsed = m.runToCompletion();
    EXPECT_TRUE(m.done());
    pure.clk.runCycles(2);  // Settle: trailing strobe deassertion.
    pureSeg[s].cumulativeEnergy_fJ = purePm.totalEnergy_fJ();
    pureSeg[s].delta_fJ = purePm.totalEnergy_fJ() - before;
    for (const auto& r : m.requests()) pureSeg[s].readWords.push_back(r.data[0]);
  }

  // ---- Hybrid run: same segments as ROIs, TL2 background between. ----
  sim::Kernel kernel;
  sim::Clock clk{kernel, "clk", 10};
  HybridBus hb{clk, "ecbus"};
  bus::MemorySlave fast{"ram", testbench::fastCtl()};
  bus::MemorySlave waited{"eeprom", testbench::waitedCtl()};
  hb.attach(fast);
  hb.attach(waited);

  power::Tl1PowerModel pm1(table);
  obs::EnergyLedger ledger1;
  pm1.attachLedger(ledger1);
  hb.tl1().addObserver(pm1);
  power::Tl2PowerModel pm2(table);
  hb.tl2().addObserver(pm2);

  FidelityController ctrl(clk, hb);
  ctrl.attachPower(pm1, pm2);
  power::PowerProfile profile(10);
  ctrl.attachProfile(profile);

  std::vector<SegmentRecord> hybSeg(kSegments);
  for (std::uint64_t s = 0; s < kSegments; ++s) {
    {
      RoiScope roi(ctrl);
      ASSERT_EQ(hb.active(), Fidelity::Tl1)
          << "quiesced entry must switch immediately";
      const auto t = roiSegment(101 + s);
      trace::ReplayMaster m(clk, "roi", hb, hb, t);
      hybSeg[s].elapsed = m.runToCompletion();
      EXPECT_TRUE(m.done());
      clk.runCycles(2);
      hybSeg[s].cumulativeEnergy_fJ = pm1.totalEnergy_fJ();
      for (const auto& r : m.requests())
        hybSeg[s].readWords.push_back(r.data[0]);
    }
    ASSERT_EQ(hb.active(), Fidelity::Tl2);
    const auto bgTrace = backgroundSegment(900 + s);
    trace::ReplayMaster bg(clk, "bg", hb, hb, bgTrace);
    bg.runToCompletion();
    EXPECT_TRUE(bg.done());
  }
  ctrl.finalize();

  // ---- Per-segment timing, payloads, cumulative energy: bitwise. ----
  double prevCumulative = 0.0;
  for (std::uint64_t s = 0; s < kSegments; ++s) {
    SCOPED_TRACE("segment " + std::to_string(s));
    EXPECT_EQ(hybSeg[s].elapsed, pureSeg[s].elapsed);
    EXPECT_EQ(hybSeg[s].readWords, pureSeg[s].readWords);
    EXPECT_EQ(hybSeg[s].cumulativeEnergy_fJ, pureSeg[s].cumulativeEnergy_fJ);
    prevCumulative = hybSeg[s].cumulativeEnergy_fJ;
  }
  EXPECT_EQ(pm1.totalEnergy_fJ(), purePm.totalEnergy_fJ());
  EXPECT_EQ(ledger1.total_fJ(), pureLedger.total_fJ());
  (void)prevCumulative;

  // ---- Signal-level equivalence: transitions and the final frame. ----
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    const auto id = static_cast<SignalId>(i);
    EXPECT_EQ(pm1.transitions(id), purePm.transitions(id))
        << bus::signalName(id);
    EXPECT_EQ(pm1.frame().get(id), purePm.frame().get(id))
        << bus::signalName(id);
  }

  // ---- TL1 bus statistics: the suspended layer counted nothing. ----
  EXPECT_EQ(hb.tl1().stats().cycles, pure.bus.stats().cycles);
  EXPECT_EQ(hb.tl1().stats().busyCycles, pure.bus.stats().busyCycles);
  EXPECT_EQ(hb.tl1().stats().transactions(), pure.bus.stats().transactions());
  EXPECT_EQ(hb.tl1().stats().readBeats, pure.bus.stats().readBeats);
  EXPECT_EQ(hb.tl1().stats().writeBeats, pure.bus.stats().writeBeats);
  EXPECT_EQ(hb.tl1().stats().bytesRead, pure.bus.stats().bytesRead);
  EXPECT_EQ(hb.tl1().stats().bytesWritten, pure.bus.stats().bytesWritten);

  // ---- ROI-visible memory identical (background never writes it). ----
  for (bus::Address a = 0; a < 0x2000; a += 4) {
    ASSERT_EQ(fast.peekWord(a), pure.fast.peekWord(a)) << "addr " << a;
  }

  // ---- Region attribution: TL1 region energies == pure deltas. ----
  std::vector<const FidelityController::Region*> tl1Regions;
  for (const auto& r : ctrl.regions()) {
    if (r.fidelity == Fidelity::Tl1) tl1Regions.push_back(&r);
  }
  ASSERT_EQ(tl1Regions.size(), kSegments);
  for (std::uint64_t s = 0; s < kSegments; ++s) {
    SCOPED_TRACE("region " + std::to_string(s));
    EXPECT_EQ(tl1Regions[s]->energy_fJ, pureSeg[s].delta_fJ);
    EXPECT_EQ(tl1Regions[s]->toCycle - tl1Regions[s]->fromCycle,
              pureSeg[s].elapsed + 2);
  }
  EXPECT_EQ(ctrl.switches(), 2 * kSegments);
  EXPECT_EQ(ctrl.roiCycles(), [&] {
    std::uint64_t sum = 0;
    for (const auto* r : tl1Regions) sum += r->toCycle - r->fromCycle;
    return sum;
  }());

  // ---- Stitched profile: the ROI samples are the pure run's samples,
  // in order; TL2 regions contribute one aggregate sample each at
  // their closing boundary, keeping the series monotone in time.
  // Per-cycle samples are stamped with the cycle number as seen at the
  // rising edge, i.e. (fromCycle, toCycle] of the enclosing region. ----
  auto inTl1Region = [&](std::uint64_t cycle) {
    for (const auto* r : tl1Regions) {
      if (cycle > r->fromCycle && cycle <= r->toCycle) return true;
    }
    return false;
  };
  std::vector<double> hybridRoiSamples;
  double tl2Aggregate_fJ = 0.0;
  std::uint64_t lastCycle = 0;
  for (const auto& smp : profile.samples()) {
    EXPECT_GE(smp.cycle, lastCycle) << "profile must stay monotone";
    lastCycle = smp.cycle;
    if (inTl1Region(smp.cycle)) {
      hybridRoiSamples.push_back(smp.energy_fJ);
    } else {
      tl2Aggregate_fJ += smp.energy_fJ;
    }
  }
  ASSERT_EQ(hybridRoiSamples.size(), pureProfile.samples().size());
  for (std::size_t i = 0; i < hybridRoiSamples.size(); ++i) {
    EXPECT_EQ(hybridRoiSamples[i], pureProfile.samples()[i].energy_fJ)
        << "sample " << i;
  }
  // The aggregates carry (within FP re-association of the region
  // deltas) the whole TL2 model energy.
  EXPECT_NEAR(tl2Aggregate_fJ, pm2.totalEnergy_fJ(),
              1e-9 * (1.0 + pm2.totalEnergy_fJ()));
  EXPECT_GT(pm2.totalEnergy_fJ(), 0.0);
}

/// What an energy-driven switch schedule leaves behind.
struct BudgetRun {
  std::vector<FidelityController::Region> regions;
  std::uint64_t switches = 0;
  std::uint64_t windowsTripped = 0;
  double tl1_fJ = 0.0;
  double tl2_fJ = 0.0;
  std::uint64_t elapsed = 0;
};

BudgetRun budgetRun(bool perCycleTl2) {
  const auto table = distinctTable();
  sim::Kernel kernel;
  sim::Clock clk{kernel, "clk", 10};
  HybridBus hb{clk, "ecbus"};
  bus::MemorySlave fast{"ram", testbench::fastCtl()};
  bus::MemorySlave waited{"eeprom", testbench::waitedCtl()};
  hb.attach(fast);
  hb.attach(waited);
  hb.tl2().setPerCycleProcess(perCycleTl2);
  power::Tl1PowerModel pm1(table);
  hb.tl1().addObserver(pm1);
  power::Tl2PowerModel pm2(table);
  hb.tl2().addObserver(pm2);

  FidelityController ctrl(clk, hb);
  EnergyBudgetTrigger budget(power::gsm5V(), /*clockPeriodPs=*/10,
                             /*chipScale=*/10000.0, /*windowCycles=*/32,
                             /*triggerFraction=*/0.8,
                             /*holdCycles=*/48);
  ctrl.addTrigger(budget);
  ctrl.attachPower(pm1, pm2);

  // Bursty traffic: dense stretches trip the budget window, the gaps
  // between them let the hold expire and the bus fall back to TL2 (16
  // tripped windows and 30 switches at this chip scale).
  const auto t = trace::randomMix(404, 500, testbench::bothRegions(),
                                  trace::MixRatios{2, 2, 1, 1, 1},
                                  /*issueGapMax=*/24);
  trace::ReplayMaster m(clk, "m", hb, hb, t);
  BudgetRun r;
  r.elapsed = m.runToCompletion();
  EXPECT_TRUE(m.done());
  ctrl.finalize();
  r.regions = ctrl.regions();
  r.switches = ctrl.switches();
  r.windowsTripped = budget.windowsTripped();
  r.tl1_fJ = pm1.totalEnergy_fJ();
  r.tl2_fJ = pm2.totalEnergy_fJ();
  return r;
}

TEST(HybridEquivalence, EnergyBudgetSwitchesMatchPerCycleTl2) {
  // The controller feeds the TL2 model's total to the budget trigger
  // on every tick. The fused model prices phases lazily and syncs on
  // that read, so every window sees the energy the per-cycle TL2
  // reference books by then: the same windows trip, the same switch
  // cycles follow.
  const BudgetRun ev = budgetRun(false);
  const BudgetRun pc = budgetRun(true);
  EXPECT_GT(ev.windowsTripped, 0u);
  EXPECT_GT(ev.switches, 10u);
  EXPECT_EQ(ev.windowsTripped, pc.windowsTripped);
  EXPECT_EQ(ev.switches, pc.switches);
  EXPECT_EQ(ev.elapsed, pc.elapsed);
  ASSERT_EQ(ev.regions.size(), pc.regions.size());
  for (std::size_t i = 0; i < pc.regions.size(); ++i) {
    SCOPED_TRACE("region " + std::to_string(i));
    EXPECT_EQ(ev.regions[i].fidelity, pc.regions[i].fidelity);
    EXPECT_EQ(ev.regions[i].fromCycle, pc.regions[i].fromCycle);
    EXPECT_EQ(ev.regions[i].toCycle, pc.regions[i].toCycle);
    EXPECT_EQ(ev.regions[i].energy_fJ, pc.regions[i].energy_fJ);
  }
  EXPECT_EQ(ev.tl1_fJ, pc.tl1_fJ);
  EXPECT_EQ(ev.tl2_fJ, pc.tl2_fJ);
}

} // namespace
} // namespace sct::hier
