// The paper-facing numbers, pinned. Table 1 (cycle counts per model
// layer) and Table 2 (energy per layer against the gate-level
// reference) are recomputed here exactly as bench/table1_timing and
// bench/table2_energy compute them, and compared as those benches print
// them, so a refactor of the bus, power or ledger layers cannot quietly
// move a published figure.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

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

} // namespace
} // namespace sct
