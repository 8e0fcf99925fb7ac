// The paper-facing numbers, pinned. Table 1 (cycle counts per model
// layer), Table 2 (energy per layer against the gate-level reference)
// and Figure 6 (the layer-2 interval samples) are recomputed here
// exactly as bench/table1_timing, bench/table2_energy and
// bench/fig6_sampling compute them, and compared as those benches print
// them, so a refactor of the bus, power or ledger layers cannot quietly
// move a published figure.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "power/tl1_power_model.h"
#include "power/tl2_power_model.h"
#include "trace/report.h"

namespace sct {
namespace {

using bench::ReplayPlatform;

TEST(PaperTables, Table1CycleCounts) {
  const trace::BusTrace& workload = bench::evaluationWorkload();
  const auto& firmware = bench::workloadFirmware();

  ReplayPlatform<ref::GlBus> gl(bench::energyModel());
  gl.loadImage(firmware);
  ReplayPlatform<bus::Tl1Bus> tl1;
  tl1.loadImage(firmware);
  ReplayPlatform<bus::Tl2Bus> tl2;
  tl2.loadImage(firmware);

  EXPECT_EQ(gl.replay(workload), 1356u);
  EXPECT_EQ(tl1.replay(workload), 1356u);
  EXPECT_EQ(tl2.replay(workload), 1358u);
}

TEST(PaperTables, Table2EnergyAsPrinted) {
  const power::SignalEnergyTable& table = bench::characterizedTable();
  const trace::BusTrace& workload = bench::evaluationWorkload();
  const auto& firmware = bench::workloadFirmware();

  ReplayPlatform<ref::GlBus> gl(bench::energyModel());
  gl.loadImage(firmware);
  gl.replay(workload);
  const double ref = gl.ecbus.energy().total_fJ;

  ReplayPlatform<bus::Tl1Bus> tl1;
  tl1.loadImage(firmware);
  power::Tl1PowerModel pm1(table);
  tl1.ecbus.addObserver(pm1);
  tl1.replay(workload);

  ReplayPlatform<bus::Tl2Bus> tl2;
  tl2.loadImage(firmware);
  power::Tl2PowerModel pm2(table);
  tl2.ecbus.addObserver(pm2);
  tl2.replay(workload);

  using trace::Table;
  const auto nJ = [](double fJ) { return Table::num(fJ / 1e6, 2); };
  const auto relative = [ref](double e) {
    return Table::num(100.0 * e / ref, 1);
  };
  const auto error = [ref](double e) {
    return Table::pct((e - ref) / ref, 1, true);
  };
  const double e1 = pm1.totalEnergy_fJ();
  const double e2 = pm2.totalEnergy_fJ();

  EXPECT_EQ(nJ(ref), "4.74");
  EXPECT_EQ(nJ(e1), "4.38");
  EXPECT_EQ(nJ(e2), "5.26");
  EXPECT_EQ(relative(e1), "92.4");
  EXPECT_EQ(relative(e2), "110.9");
  EXPECT_EQ(error(e1), "-7.6%");
  EXPECT_EQ(error(e2), "+10.9%");
}

/// Figure 6's scenario (bench/fig6_sampling): three overlapping
/// transactions on the EEPROM window.
trace::BusTrace figureScenario() {
  trace::BusTrace scenario;
  trace::TraceEntry r1;
  r1.kind = bus::Kind::Read;
  r1.address = soc::memmap::kEepromBase + 0x00;
  scenario.append(r1);
  trace::TraceEntry w2;
  w2.kind = bus::Kind::Write;
  w2.address = soc::memmap::kEepromBase + 0x10;
  w2.writeData[0] = 0xA5A5A5A5;
  scenario.append(w2);
  trace::TraceEntry r3;
  r3.kind = bus::Kind::Read;
  r3.address = soc::memmap::kEepromBase + 0x20;
  scenario.append(r3);
  return scenario;
}

TEST(PaperTables, Figure6LayerTwoSamplesAsPrinted) {
  const power::SignalEnergyTable& table = bench::characterizedTable();
  const trace::BusTrace scenario = figureScenario();
  const auto fJ = [](double e) { return trace::Table::num(e, 1); };

  // One interval read after every cycle: the energy arrives in
  // phase-sized lumps at phase-completion cycles. The bench's loop
  // stops once the master is done (cycle 7 here), well before its
  // 30-row cap.
  ReplayPlatform<bus::Tl2Bus> tl2;
  power::Tl2PowerModel pm2(table);
  tl2.ecbus.addObserver(pm2);
  trace::Tl2ReplayMaster m2(tl2.clk, "m2", tl2.ecbus, scenario);
  std::vector<std::string> lumps;
  while (!m2.done() && lumps.size() < 30) {
    tl2.clk.runCycles(1);
    lumps.push_back(fJ(pm2.energySinceLastCall_fJ()));
  }
  const std::vector<std::string> expected = {
      "4255.6", "5205.5", "5787.2", "0.0", "696.9", "12009.5", "0.0"};
  EXPECT_EQ(lumps, expected);
  EXPECT_EQ(fJ(pm2.totalEnergy_fJ()), "27954.7");

  // The paper's coarse t1/t2 sampling.
  ReplayPlatform<bus::Tl2Bus> tl2b;
  power::Tl2PowerModel pm2b(table);
  tl2b.ecbus.addObserver(pm2b);
  trace::Tl2ReplayMaster m2b(tl2b.clk, "m2b", tl2b.ecbus, scenario);
  tl2b.clk.runCycles(2);
  EXPECT_EQ(fJ(pm2b.energySinceLastCall_fJ()), "9461.1");
  tl2b.clk.runCycles(3);
  EXPECT_EQ(fJ(pm2b.energySinceLastCall_fJ()), "6484.1");
  m2b.runToCompletion();
  EXPECT_EQ(fJ(pm2b.energySinceLastCall_fJ()), "12009.5");
}

} // namespace
} // namespace sct
