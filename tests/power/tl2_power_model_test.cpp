#include "power/tl2_power_model.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "../testbench.h"
#include "power/characterizer.h"
#include "power/tl1_power_model.h"
#include "trace/workloads.h"

namespace sct::power {
namespace {

using bus::SignalId;
using testbench::RefBench;
using testbench::Tl1Bench;
using testbench::Tl2Bench;

const SignalEnergyTable& characterizedTable() {
  static const SignalEnergyTable table = [] {
    RefBench tb;
    Characterizer ch(testbench::energyModel());
    tb.bus.addFrameListener(ch);
    tb.run(trace::characterizationTrace(1234, 800,
                                        testbench::bothRegions()));
    return ch.buildTable();
  }();
  return table;
}

TEST(Tl2PowerModelTest, AccumulatesEnergyPerPhase) {
  Tl2Bench tb;
  Tl2PowerModel pm(characterizedTable());
  tb.bus.addObserver(pm);
  tb.run(trace::randomMix(5, 50, testbench::bothRegions()));
  EXPECT_GT(pm.totalEnergy_fJ(), 0.0);
  EXPECT_GT(pm.estimatedTransitions(SignalId::EB_A), 0u);
  EXPECT_GT(pm.estimatedTransitions(SignalId::EB_AValid), 0u);
}

TEST(Tl2PowerModelTest, IntervalInterfaceOnly) {
  Tl2Bench tb;
  Tl2PowerModel pm(characterizedTable());
  tb.bus.addObserver(pm);
  tb.run(trace::randomMix(6, 30, testbench::bothRegions()));
  const double first = pm.energySinceLastCall_fJ();
  EXPECT_GT(first, 0.0);
  EXPECT_DOUBLE_EQ(pm.energySinceLastCall_fJ(), 0.0);
}

TEST(Tl2PowerModelTest, OverestimatesControlStrobesOnStreamingBursts) {
  // A streaming burst holds RdVal high at layers 0/1 (2 transitions per
  // burst); layer 2 charges one pulse per beat (8 transitions).
  trace::BusTrace t;
  trace::TraceEntry e;
  e.kind = bus::Kind::Read;
  e.address = 0x0;
  e.beats = 4;
  t.append(e);

  Tl2Bench tl2;
  Tl2PowerModel pm2(characterizedTable());
  tl2.bus.addObserver(pm2);
  tl2.run(t);

  Tl1Bench tl1;
  Tl1PowerModel pm1(characterizedTable());
  tl1.bus.addObserver(pm1);
  tl1.run(t);

  EXPECT_EQ(pm2.estimatedTransitions(SignalId::EB_RdVal), 8u);
  EXPECT_EQ(pm1.transitions(SignalId::EB_RdVal), 2u);
}

TEST(Tl2PowerModelTest, OverestimatesReferenceOnMixedWorkload) {
  // Table 2 shape: layer 2 lands above the reference (and above layer
  // 1) because of its per-phase control-signal and correlated-data
  // over-counts. Memories carry realistic (program-like) contents, as
  // in the paper's RTL-traced assembly workload.
  auto workload = trace::verificationTrace(testbench::fastRegion(),
                                           testbench::waitedRegion());
  trace::MixRatios mix;
  mix.instrFetch = 2;
  workload.append(
      trace::randomMixStyled(555, 120, testbench::bothRegions(), mix, 1,
                             trace::DataStyle::Realistic),
      160);
  auto fill = [](auto& bench) {
    trace::fillRealistic(bench.fast.data(), bench.fast.sizeBytes(), 99);
    trace::fillRealistic(bench.waited.data(), bench.waited.sizeBytes(), 77);
  };

  RefBench gl;
  fill(gl);
  gl.run(workload);
  Tl1Bench tl1;
  fill(tl1);
  Tl1PowerModel pm1(characterizedTable());
  tl1.bus.addObserver(pm1);
  tl1.run(workload);
  Tl2Bench tl2;
  fill(tl2);
  Tl2PowerModel pm2(characterizedTable());
  tl2.bus.addObserver(pm2);
  tl2.run(workload);

  const double ref = gl.bus.energy().total_fJ;
  EXPECT_GT(pm2.totalEnergy_fJ(), ref);
  EXPECT_GT(pm2.totalEnergy_fJ(), pm1.totalEnergy_fJ());
  EXPECT_LT(pm2.totalEnergy_fJ(), 2.0 * ref)
      << "error should stay within tens of percent";
}

TEST(Tl2PowerModelTest, ErrorTransactionChargesErrorLines) {
  Tl2Bench tb;
  Tl2PowerModel pm(characterizedTable());
  tb.bus.addObserver(pm);
  trace::BusTrace t;
  trace::TraceEntry e;
  e.kind = bus::Kind::Read;
  e.address = 0x30000;  // Unmapped.
  t.append(e);
  tb.run(t);
  EXPECT_EQ(pm.estimatedTransitions(SignalId::EB_RBErr), 2u);
}

TEST(Tl2PowerModelTest, WriteDataChargedPerBeatAgainstIdleBus) {
  Tl2Bench tb;
  Tl2PowerModel pm(characterizedTable());
  tb.bus.addObserver(pm);
  trace::BusTrace t;
  trace::TraceEntry e;
  e.kind = bus::Kind::Write;
  e.address = 0x0;
  e.beats = 4;
  e.writeData = {0x0000000F, 0x000000FF, 0x000000FF, 0x00000000};
  t.append(e);
  tb.run(t);
  // Per-beat popcounts: 4 + 8 + 8 + 0 — no inter-beat correlation.
  EXPECT_EQ(pm.estimatedTransitions(SignalId::EB_WData), 20u);
}

TEST(Tl2PowerModelTest, PhasesAreChargedWithoutCrossTransactionState) {
  Tl2Bench tb;
  Tl2PowerModel pm(characterizedTable());
  tb.bus.addObserver(pm);
  trace::BusTrace t;
  for (int i = 0; i < 3; ++i) {
    trace::TraceEntry rd;
    rd.kind = bus::Kind::Read;
    rd.address = 0x8010;  // Same address three times.
    t.append(rd);
  }
  tb.run(t);
  // Layer 0/1 would see the address bus toggle only once; the
  // phase-on-its-own model charges popcount(0x8010) = 2 per phase.
  EXPECT_EQ(pm.estimatedTransitions(SignalId::EB_A), 6u);
  // One write qualifier never driven, byte enables 0xF each phase.
  EXPECT_EQ(pm.estimatedTransitions(SignalId::EB_Write), 0u);
  EXPECT_EQ(pm.estimatedTransitions(SignalId::EB_BE), 12u);
}

TEST(Tl2PowerModelTest, OneFusedEnginePerBus) {
  Tl2Bench tb;
  Tl2PowerModel pm(characterizedTable());
  Tl2PowerModel second(characterizedTable());
  tb.bus.addObserver(pm);
  EXPECT_THROW(tb.bus.addObserver(second), std::logic_error);
  // Detaching frees the slot.
  tb.bus.removeObserver(pm);
  tb.bus.addObserver(second);
  tb.run(trace::randomMix(8, 20, testbench::bothRegions()));
  EXPECT_EQ(pm.totalEnergy_fJ(), 0.0);
  EXPECT_GT(second.totalEnergy_fJ(), 0.0);
}

TEST(Tl2PowerModelTest, ModelAndBusMayBeDestroyedInEitherOrder) {
  const trace::BusTrace t = trace::randomMix(9, 20, testbench::bothRegions());
  {
    // The model dies first: the bus keeps running without it.
    Tl2Bench tb;
    {
      Tl2PowerModel pm(characterizedTable());
      tb.bus.addObserver(pm);
    }
    tb.run(t);
    EXPECT_TRUE(tb.bus.idle());
  }
  // The bus dies first: the model's readers stop syncing with it.
  Tl2PowerModel pm(characterizedTable());
  {
    Tl2Bench tb;
    tb.bus.addObserver(pm);
    tb.run(t);
  }
  EXPECT_GT(pm.totalEnergy_fJ(), 0.0);
  EXPECT_GT(pm.estimatedTransitions(SignalId::EB_A), 0u);
}

} // namespace
} // namespace sct::power
