// Workload inputs and the per-run set-up.
//
// Each workload is a traffic shape that drives both the replay paths
// (TL1 / TL2 / Hybrid against the layer-0 reference) and the card-farm /
// fork-sweep session mix, so that each layer dominates one workload and
// is minor in another (README.md gives the map).
//
// The replay trace of each workload is a fixed evaluation corpus, so the
// accuracy figures (energy and cycle error against layer 0) are the same
// in every run. The run seed drives the card sessions: their data for
// dense_mix and spa_gapped, and for card_auth, whose replay trace is
// recorded from its sessions, the order the farm and sweep serve them in.
#include <algorithm>
#include <stdexcept>

#include "bench.h"
#include "ckpt/fork_runner.h"
#include "power/characterizer.h"
#include "ref/gl_bus.h"
#include "serve/card_instance.h"
#include "sim/rng.h"
#include "trace/recorder.h"
#include "trace/replay_master.h"
#include "trace/workloads.h"

namespace perfbench {

namespace {

/// Distinct card sessions a workload serves; farm and sweep cycle
/// through them, and card_auth records its replay trace from them.
constexpr std::size_t kSessionCount = 16;

/// Seed of the fixed evaluation corpus (replay traces and images).
constexpr std::uint64_t kCorpusSeed = 2004;

double secondsSince(std::int64_t startNs) {
  return static_cast<double>(nowNs() - startNs) * 1e-9;
}

std::vector<trace::TargetRegion> platformRegions() {
  using namespace soc::memmap;
  return {
      {kRomBase, kRomSize, true, false, true},
      {kRamBase, kRamSize, true, true, true},
      {kEepromBase, kEepromSize, true, true, true},
      {kFlashBase, kFlashSize, true, false, true},
  };
}

std::vector<std::uint8_t> realistic(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> v(n);
  trace::fillRealistic(v.data(), n, seed);
  return v;
}

/// Program-like ROM/flash, empty RAM/EEPROM/SFR.
Images syntheticImages(std::uint64_t romSeed, std::uint64_t flashSeed) {
  using namespace soc::memmap;
  Images im;
  im.rom = realistic(kRomSize, romSeed);
  im.ram.assign(kRamSize, 0);
  im.eeprom.assign(kEepromSize, 0);
  im.flash = realistic(kFlashSize, flashSeed);
  im.sfr.assign(kSfrWindow * 16, 0);
  return im;
}

std::vector<std::uint8_t> copyImage(const bus::MemorySlave& m) {
  return {m.data(), m.data() + m.sizeBytes()};
}

/// Table 3's traffic (paper Section 4.2): a back-to-back random mix of
/// single/burst reads and writes over ROM/RAM/EEPROM/FLASH.
trace::BusTrace denseMix(std::uint64_t seed) {
  return trace::randomMix(sim::hash64(seed, 1), 4000, platformRegions(),
                          trace::MixRatios{});
}

/// The SPA-acquisition shape: bursts of 8 operand writes and 4 result
/// reads into the crypto SFR window, separated by 600 idle cycles.
trace::BusTrace spaGapped(std::uint64_t seed) {
  trace::BusTrace t;
  constexpr std::size_t kRounds = 240;
  constexpr std::uint64_t kGapCycles = 600;
  std::uint64_t cycle = 10;
  std::uint64_t v = sim::hash64(seed, 4) | 1;
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (bus::Address i = 0; i < 8; ++i) {
      trace::TraceEntry e;
      e.issueCycle = cycle++;
      e.kind = bus::Kind::Write;
      e.address = soc::memmap::kCryptoBase + 4 * i;
      v ^= v << 13;
      v ^= v >> 7;
      v ^= v << 17;
      e.writeData[0] = static_cast<bus::Word>(v);
      t.append(e);
    }
    for (bus::Address i = 0; i < 4; ++i) {
      trace::TraceEntry e;
      e.issueCycle = cycle++;
      e.kind = bus::Kind::Read;
      e.address = soc::memmap::kCryptoBase + 0x20 + 4 * i;
      t.append(e);
    }
    cycle += kGapCycles;
  }
  return t;
}

SessionSet buildSessions(const std::string& scenario, std::uint64_t seed) {
  // Session ids name the seed they were built from, so a reordered set
  // keeps each session's reference line.
  SessionSet set;
  for (std::size_t i = 0; i < kSessionCount; ++i) {
    serve::Job j;
    j.scenario = scenario;
    j.seed = sim::hash64(seed, 0x5e55, i) >> 16;
    j.id = "s" + std::to_string(j.seed);
    set.steps.push_back(serve::buildScenario(j.scenario, j.seed));
    set.jobs.push_back(std::move(j));
  }
  return set;
}

/// Real card traffic: every session of the set, recorded on the full
/// TL1 SoC from the golden snapshot (fetch bursts, UART polling,
/// crypto operands) and concatenated. The replay platform starts from
/// the card's memory images at the golden state.
void recordCardTraffic(Setup& s) {
  const ckpt::Snapshot& golden = s.golden();
  std::uint64_t offset = 0;
  for (std::size_t i = 0; i < s.sessions.jobs.size(); ++i) {
    serve::CardInstance card(s.table);
    card.recycle(golden);
    if (i == 0) {
      s.images.rom = copyImage(card.soc().rom());
      s.images.ram = copyImage(card.soc().ram());
      s.images.eeprom = copyImage(card.soc().eeprom());
      s.images.flash = copyImage(card.soc().flash());
      s.images.sfr.assign(soc::memmap::kSfrWindow * 16, 0);
    }
    trace::TraceRecorder recorder;
    card.soc().bus().addObserver(recorder);
    const serve::SessionOutcome o = card.runSession(s.sessions.steps[i]);
    if (!o.ok) throw std::runtime_error("card_auth: recording session failed");
    const trace::BusTrace& t = recorder.trace();
    s.trace.append(t, offset);
    offset += (t.empty() ? 0 : t.entries().back().issueCycle) + 64;
  }
}

/// Seeded Fisher-Yates reorder of a session set (before its reference
/// lines are computed).
void shuffle(SessionSet& set, std::uint64_t seed) {
  sim::SplitMix64 rng(seed);
  for (std::size_t i = set.jobs.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.next() % i);
    std::swap(set.jobs[i - 1], set.jobs[j]);
    std::swap(set.steps[i - 1], set.steps[j]);
  }
}

ReplayResult layer0Replay(const Setup& s) {
  Platform<ref::GlBus> p(s.images, *s.energyModel);
  trace::ReplayMaster master(p.clk, "master", p.ecbus, p.ecbus, s.trace);
  ReplayResult r;
  r.cycles = master.runToCompletion();
  r.completed = master.stats().completed;
  r.errors = master.stats().errors;
  r.energy_fJ = p.ecbus.energy().total_fJ;
  return r;
}

} // namespace

bool knownWorkload(const std::string& name) {
  return std::find(std::begin(kWorkloads), std::end(kWorkloads), name) !=
         std::end(kWorkloads);
}

std::unique_ptr<Setup> runSetup(const std::string& workload,
                                std::uint64_t seed) {
  const std::int64_t start = nowNs();
  auto s = std::make_unique<Setup>();
  if (!knownWorkload(workload)) {
    throw std::invalid_argument("unknown workload " + workload);
  }
  const std::string scenario = workload == "dense_mix"    ? "mixed"
                               : workload == "spa_gapped" ? "wrong_pin"
                                                          : "auth";

  // Coefficients characterized on layer 0 with the dense training mix,
  // disjoint from every workload (the paper's abstraction step).
  std::int64_t t = nowNs();
  s->parasitics =
      std::make_unique<ref::ParasiticDb>(ref::ParasiticDb::makeDefault());
  s->energyModel = std::make_unique<ref::TransitionEnergyModel>(
      *s->parasitics, ref::ProcessParams{});
  {
    const Images training = syntheticImages(11, 13);
    Platform<ref::GlBus> p(training, *s->energyModel);
    power::Characterizer ch(*s->energyModel);
    p.ecbus.addFrameListener(ch);
    const trace::BusTrace tr =
        trace::characterizationTrace(1234, 1500, platformRegions());
    trace::ReplayMaster master(p.clk, "master", p.ecbus, p.ecbus, tr);
    master.runToCompletion();
    s->table = ch.buildTable();
  }
  s->times.characterize = secondsSince(t);

  t = nowNs();
  s->forks = std::make_unique<ckpt::ForkRunner>(
      serve::CardInstance::bootGolden(s->table));
  s->times.goldenBoot = secondsSince(t);

  t = nowNs();
  if (workload == "card_auth") {
    s->sessions = buildSessions(scenario, kCorpusSeed);
    recordCardTraffic(*s);
    shuffle(s->sessions, seed);
  } else {
    s->sessions = buildSessions(scenario, seed);
    s->trace = workload == "dense_mix" ? denseMix(kCorpusSeed)
                                       : spaGapped(kCorpusSeed);
    s->images = syntheticImages(sim::hash64(kCorpusSeed, 2),
                                sim::hash64(kCorpusSeed, 3));
  }
  s->times.generate = secondsSince(t);

  t = nowNs();
  s->layer0 = layer0Replay(*s);
  if (s->layer0.errors != 0 || s->layer0.completed != s->trace.size()) {
    throw std::runtime_error(workload + ": layer-0 replay reported bus errors");
  }
  s->times.reference = secondsSince(t);

  // Pins: the first replay of every rung and the threads=1 result line
  // of every session. Every later repetition must reproduce them
  // exactly.
  t = nowNs();
  for (int r = 0; r < kRungCount; ++r) {
    s->pinned[r] = replay(*s, static_cast<Rung>(r), nullptr);
    if (s->pinned[r].errors != 0) {
      throw std::runtime_error(workload + ": " +
                               rungName(static_cast<Rung>(r)) +
                               " replay reported bus errors");
    }
  }
  {
    serve::CardInstance card(s->table);
    for (std::size_t i = 0; i < s->sessions.jobs.size(); ++i) {
      card.recycle(s->golden());
      const serve::SessionOutcome o = card.runSession(s->sessions.steps[i]);
      if (!o.ok || !o.expected) {
        throw std::runtime_error(workload + ": reference session " +
                                 s->sessions.jobs[i].id + " failed");
      }
      s->sessions.expected.push_back(
          serve::ServeEngine::resultLine(s->sessions.jobs[i], o));
    }
  }
  s->times.pin = secondsSince(t);

  t = nowNs();
  s->engine = std::make_unique<serve::ServeEngine>(s->table, kFarmWorkers);
  s->times.engineStart = secondsSince(t);

  s->times.total = secondsSince(start);
  return s;
}

} // namespace perfbench
