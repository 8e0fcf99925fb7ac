// The no-encoder contract (satellite of ROADMAP item 4): a bus with no
// codec installed and a bus with the IdentityCodec installed are the
// SAME simulation — elapsed cycles, read payloads, bus statistics,
// per-signal transition counts, model energy (exact double equality),
// memory digests, and the serialized checkpoint bytes all match, and
// the EB_Inv sideband never toggles. This is what lets codec-less runs
// keep every existing golden output byte-identical.
//
// The functional half of the contract covers every concrete codec: the
// decode(encode(x)) routing in the bus means payloads, memory images
// and replay statistics must be unchanged by ANY codec — only the wire
// activity (and therefore the energy) may move. Bus-invert must move
// it DOWN on a random-data workload.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "../testbench.h"
#include "bus/bus_codec.h"
#include "bus/ec_signals.h"
#include "bus/memory_slave.h"
#include "bus/tl1_bus.h"
#include "ckpt/checkpoint.h"
#include "enc/codecs.h"
#include "obs/ledger.h"
#include "power/tl1_power_model.h"
#include "sim/random.h"
#include "trace/replay_master.h"
#include "trace/workloads.h"

namespace sct::enc {
namespace {

using trace::BusTrace;

power::SignalEnergyTable distinctTable() {
  power::SignalEnergyTable t;
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    t.setCoeff_fJ(static_cast<bus::SignalId>(i),
                  1.5 + 0.25 * static_cast<double>(i));
  }
  return t;
}

void fillRandom(std::uint8_t* bytes, std::size_t n, std::uint64_t seed) {
  sim::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<std::uint8_t>(rng.next32());
  }
}

// Uniform random write data and uniform random memory images: maximum
// switching activity, the workload bus-invert exists for.
BusTrace randomDataTrace(std::uint64_t seed) {
  trace::MixRatios mix;
  mix.singleRead = 2;
  mix.singleWrite = 2;
  mix.burstRead = 1;
  mix.burstWrite = 1;
  mix.instrFetch = 1;
  return trace::randomMixStyled(seed, 400, testbench::bothRegions(), mix,
                                /*issueGapMax=*/2,
                                trace::DataStyle::Random);
}

struct EncPlatform {
  sim::Kernel kernel;
  sim::Clock clk{kernel, "clk", 10};
  bus::Tl1Bus bus{clk, "ecbus"};
  bus::MemorySlave fast{"ram", testbench::fastCtl()};
  bus::MemorySlave waited{"eeprom", testbench::waitedCtl()};
  power::Tl1PowerModel pm{distinctTable()};
  obs::EnergyLedger ledger;
  trace::ReplayMaster master;

  EncPlatform(const BusTrace& t, bus::BusCodec* codec)
      : master(clk, "master", bus, bus, t) {
    bus.attach(fast);
    bus.attach(waited);
    fillRandom(fast.data(), fast.sizeBytes(), 11);
    fillRandom(waited.data(), waited.sizeBytes(), 22);
    pm.attachLedger(ledger);
    bus.addObserver(pm);
    if (codec != nullptr) bus.setCodec(codec);
  }

  void registerAll(ckpt::CheckpointRegistry& reg) {
    reg.add("kernel", kernel);
    reg.add("clk", clk);
    reg.add("ecbus", bus);
    reg.add("ram", fast);
    reg.add("eeprom", waited);
    reg.add("master", master);
    reg.add("pm", pm);
    reg.add("ledger", ledger);
  }
};

struct RunResult {
  std::uint64_t finalCycle = 0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  std::uint64_t readBeats = 0;
  std::uint64_t writeBeats = 0;
  std::vector<std::array<bus::Word, 4>> payloads;
  std::array<std::uint64_t, bus::kSignalCount> transitions{};
  double pmTotal = 0.0;
  std::uint64_t fastDigest = 0;
  std::uint64_t waitedDigest = 0;
};

RunResult collect(EncPlatform& p) {
  RunResult r;
  r.finalCycle = p.clk.cycle();
  r.completed = p.master.stats().completed;
  r.errors = p.master.stats().errors;
  r.readBeats = p.bus.stats().readBeats;
  r.writeBeats = p.bus.stats().writeBeats;
  for (const bus::Tl1Request& q : p.master.requests()) {
    r.payloads.push_back({q.data[0], q.data[1], q.data[2], q.data[3]});
  }
  for (std::size_t i = 0; i < bus::kSignalCount; ++i) {
    r.transitions[i] = p.pm.transitions(static_cast<bus::SignalId>(i));
  }
  r.pmTotal = p.pm.totalEnergy_fJ();
  r.fastDigest = p.fast.imageDigest();
  r.waitedDigest = p.waited.imageDigest();
  return r;
}

std::uint64_t dataBusTransitions(const RunResult& r) {
  return r.transitions[static_cast<std::size_t>(bus::SignalId::EB_RData)] +
         r.transitions[static_cast<std::size_t>(bus::SignalId::EB_WData)] +
         r.transitions[static_cast<std::size_t>(bus::SignalId::EB_Inv)];
}

void expectFunctionalEqual(const RunResult& codec, const RunResult& plain) {
  EXPECT_EQ(codec.finalCycle, plain.finalCycle);
  EXPECT_EQ(codec.completed, plain.completed);
  EXPECT_EQ(codec.errors, plain.errors);
  EXPECT_EQ(codec.readBeats, plain.readBeats);
  EXPECT_EQ(codec.writeBeats, plain.writeBeats);
  ASSERT_EQ(codec.payloads.size(), plain.payloads.size());
  for (std::size_t i = 0; i < plain.payloads.size(); ++i) {
    EXPECT_EQ(codec.payloads[i], plain.payloads[i]) << "request " << i;
  }
  EXPECT_EQ(codec.fastDigest, plain.fastDigest);
  EXPECT_EQ(codec.waitedDigest, plain.waitedDigest);
}

TEST(NoEncoderFastPath, IdentityCodecIsByteIdenticalToNoCodec) {
  const BusTrace t = randomDataTrace(0x1D);

  EncPlatform plain(t, nullptr);
  plain.master.runToCompletion();
  ASSERT_TRUE(plain.master.done());
  const RunResult want = collect(plain);

  IdentityCodec identity;
  EncPlatform withId(t, &identity);
  withId.master.runToCompletion();
  ASSERT_TRUE(withId.master.done());
  const RunResult got = collect(withId);

  expectFunctionalEqual(got, want);
  // The identity codec is not just functionally equal — the wire-level
  // simulation is the same simulation: every transition counter and
  // every energy double matches exactly.
  EXPECT_EQ(got.transitions, want.transitions);
  EXPECT_EQ(got.pmTotal, want.pmTotal);
  // The EB_Inv sideband never toggles without an inverting codec.
  EXPECT_EQ(
      got.transitions[static_cast<std::size_t>(bus::SignalId::EB_Inv)], 0u);
  EXPECT_EQ(
      want.transitions[static_cast<std::size_t>(bus::SignalId::EB_Inv)], 0u);

  // And the checkpoint bytes agree — the codec leaves no trace in any
  // serialized section.
  ckpt::CheckpointRegistry plainReg;
  plain.registerAll(plainReg);
  ckpt::CheckpointRegistry idReg;
  withId.registerAll(idReg);
  EXPECT_EQ(plainReg.saveAll().serialize(), idReg.saveAll().serialize());
}

TEST(CodecEquivalence, EveryCodecPreservesFunctionalOutputs) {
  const BusTrace t = randomDataTrace(0x2E);

  EncPlatform plain(t, nullptr);
  plain.master.runToCompletion();
  const RunResult want = collect(plain);

  for (const std::string& name : codecNames()) {
    SCOPED_TRACE(name);
    const std::unique_ptr<bus::BusCodec> codec = makeCodec(name);
    EncPlatform p(t, codec.get());
    p.master.runToCompletion();
    ASSERT_TRUE(p.master.done());
    expectFunctionalEqual(collect(p), want);
  }
}

TEST(CodecEquivalence, BusInvertReducesDataBusTransitionsOnRandomData) {
  const BusTrace t = randomDataTrace(0x3F);

  EncPlatform plain(t, nullptr);
  plain.master.runToCompletion();
  const RunResult base = collect(plain);

  BusInvertCodec bi;
  EncPlatform inverted(t, &bi);
  inverted.master.runToCompletion();
  const RunResult got = collect(inverted);

  expectFunctionalEqual(got, base);
  // The sideband is actually exercised...
  EXPECT_GT(
      got.transitions[static_cast<std::size_t>(bus::SignalId::EB_Inv)], 0u);
  // ...and the data-bus activity (INCLUDING the invert-line overhead)
  // drops: on uniform random words the expected per-beat cost falls
  // from 16 toggles to ~13.2.
  EXPECT_LT(dataBusTransitions(got), dataBusTransitions(base));
  // Address activity is untouched by a data-bus codec.
  EXPECT_EQ(got.transitions[static_cast<std::size_t>(bus::SignalId::EB_A)],
            base.transitions[static_cast<std::size_t>(bus::SignalId::EB_A)]);
}

} // namespace
} // namespace sct::enc
