// The measured paths: one replay per rung of the layer ladder, the
// closed-loop card farm, and the fork sweep. Each call is one
// repetition; main.cpp times it and checks its output.
#include <algorithm>
#include <optional>

#include "bench.h"
#include "bus/tl1_bus.h"
#include "bus/tl2_bus.h"
#include "hier/fidelity_controller.h"
#include "hier/hybrid_bus.h"
#include "hier/roi_trigger.h"
#include "obs/ledger.h"
#include "obs/stats.h"
#include "power/tl1_power_model.h"
#include "power/tl2_power_model.h"
#include "serve/card_instance.h"
#include "trace/replay_master.h"

namespace perfbench {

namespace {

void open(SpanLog* spans, const char* name) {
  if (spans != nullptr) spans->begin(name);
}
void close(SpanLog* spans) {
  if (spans != nullptr) spans->end();
}

template <typename Master>
void collect(ReplayResult& r, const Master& master) {
  r.completed = master.stats().completed;
  r.errors = master.stats().errors;
}

ReplayResult replayTl1(const Setup& s, Rung rung, SpanLog* spans) {
  ReplayResult r;
  open(spans, "trace.platform_build");
  Platform<bus::Tl1Bus> p(s.images);
  obs::EnergyLedger ledger;
  std::optional<power::Tl1PowerModel> pm;
  if (rung == Rung::Tl1Est || rung == Rung::Tl1Ledger) {
    pm.emplace(s.table);
    if (rung == Rung::Tl1Ledger) pm->attachLedger(ledger);
    p.ecbus.addObserver(*pm);
  }
  trace::ReplayMaster master(p.clk, "master", p.ecbus, p.ecbus, s.trace);
  close(spans);
  if (rung == Rung::Tl1Build) return r;

  open(spans, "sim.run");
  r.cycles = master.runToCompletion();
  close(spans);
  collect(r, master);
  if (rung == Rung::Tl1Est) r.energy_fJ = pm->totalEnergy_fJ();
  // The ledger's total is bit-identical to the model's by contract, so
  // the ledger rung is pinned on the ledger's own figure.
  if (rung == Rung::Tl1Ledger) r.energy_fJ = ledger.total_fJ();
  return r;
}

ReplayResult replayTl2(const Setup& s, Rung rung, SpanLog* spans) {
  ReplayResult r;
  open(spans, "trace.platform_build");
  Platform<bus::Tl2Bus> p(s.images);
  std::optional<power::Tl2PowerModel> pm;
  if (rung == Rung::Tl2Est) {
    pm.emplace(s.table);
    p.ecbus.addObserver(*pm);
  }
  trace::Tl2ReplayMaster master(p.clk, "master", p.ecbus, s.trace);
  close(spans);
  if (rung == Rung::Tl2Build) return r;

  open(spans, "sim.run");
  r.cycles = master.runToCompletion();
  close(spans);
  collect(r, master);
  if (pm) r.energy_fJ = pm->totalEnergy_fJ();
  return r;
}

/// The hybrid platform of the Hybrid rung; `reg` (may be null)
/// receives the clock's and the controller's counters.
ReplayResult replayHybrid(const Setup& s, SpanLog* spans,
                          obs::StatsRegistry* reg) {
  ReplayResult r;
  open(spans, "trace.platform_build");
  Platform<hier::HybridBus> p(s.images);
  power::Tl1PowerModel pm1(s.table);
  p.ecbus.tl1().addObserver(pm1);
  power::Tl2PowerModel pm2(s.table);
  p.ecbus.tl2().addObserver(pm2);
  hier::AddressWatchTrigger watch(
      {{soc::memmap::kCryptoBase, soc::memmap::kSfrWindow}},
      /*holdCycles=*/48);
  hier::FidelityController ctrl(p.clk, p.ecbus);
  ctrl.addTrigger(watch);
  ctrl.attachPower(pm1, pm2);
  if (reg != nullptr) {
    p.clk.attachObs(*reg);
    ctrl.attachObs(*reg);
  }
  trace::ReplayMaster master(p.clk, "master", p.ecbus, p.ecbus, s.trace);
  close(spans);

  open(spans, "sim.run");
  r.cycles = master.runToCompletion();
  ctrl.finalize();
  close(spans);
  collect(r, master);
  r.energy_fJ = pm1.totalEnergy_fJ() + pm2.totalEnergy_fJ();
  return r;
}

LayerCounts countsFrom(const obs::StatsRegistry& reg, std::uint64_t cycles) {
  // Counters are read back through a snapshot: the registry is the
  // layers' own reporting path.
  const obs::Snapshot snap = reg.snapshot();
  auto count = [&](const char* name) -> std::uint64_t {
    const obs::SnapshotEntry* e = snap.find(name);
    if (e == nullptr) return 0;
    // Histogram entries keep their sample sum in `value`.
    return e->type == obs::SnapshotEntry::Type::Histogram
               ? static_cast<std::uint64_t>(e->value)
               : e->count;
  };
  LayerCounts c;
  c.cycles = cycles;
  c.warps = count("clk.warps");
  c.warpedCycles = count("clk.warp_cycles");
  c.parks = count("clk.parks");
  c.switches = count("hier.switches");
  c.roiCycles = count("hier.roi_cycles");
  return c;
}

} // namespace

const char* rungName(Rung r) {
  switch (r) {
    case Rung::Tl1Build: return "tl1_build";
    case Rung::Tl1Bus: return "tl1_bus";
    case Rung::Tl1Est: return "tl1_est";
    case Rung::Tl1Ledger: return "tl1_ledger";
    case Rung::Tl2Build: return "tl2_build";
    case Rung::Tl2Bus: return "tl2_bus";
    case Rung::Tl2Est: return "tl2_est";
    case Rung::Hybrid: return "hybrid";
    case Rung::Count: break;
  }
  return "?";
}

ReplayResult replay(const Setup& s, Rung rung, SpanLog* spans) {
  switch (rung) {
    case Rung::Tl1Build:
    case Rung::Tl1Bus:
    case Rung::Tl1Est:
    case Rung::Tl1Ledger: return replayTl1(s, rung, spans);
    case Rung::Tl2Build:
    case Rung::Tl2Bus:
    case Rung::Tl2Est: return replayTl2(s, rung, spans);
    case Rung::Hybrid: return replayHybrid(s, spans, nullptr);
    case Rung::Count: break;
  }
  return {};
}

LayerCounts countTl2(const Setup& s) {
  Platform<bus::Tl2Bus> p(s.images);
  power::Tl2PowerModel pm(s.table);
  p.ecbus.addObserver(pm);
  obs::StatsRegistry reg;
  p.clk.attachObs(reg);
  trace::Tl2ReplayMaster master(p.clk, "master", p.ecbus, s.trace);
  const std::uint64_t cycles = master.runToCompletion();
  return countsFrom(reg, cycles);
}

LayerCounts countHybrid(const Setup& s) {
  obs::StatsRegistry reg;
  const ReplayResult r = replayHybrid(s, nullptr, &reg);
  return countsFrom(reg, r.cycles);
}

FarmSlice farmSlice(Setup& s, std::size_t firstJob, std::size_t sessions,
                    unsigned clients, std::vector<double>& latencies) {
  FarmClients& farm = s.farm;
  farm.slots.assign(clients, FarmClients::Slot{});
  const std::size_t jobCount = s.sessions.jobs.size();
  std::size_t submitted = 0;
  std::size_t finished = 0;
  FarmSlice out;

  auto submit = [&](unsigned c) {
    FarmClients::Slot& slot = farm.slots[c];
    slot.job = (firstJob + submitted) % jobCount;
    ++submitted;
    slot.submitNs = nowNs();
    s.engine->submitJob(
        s.sessions.jobs[slot.job], [&farm, &slot](const std::string& line) {
          const std::int64_t t = nowNs();
          // Notify under the lock: the waiting client may return (and
          // reuse the slot) as soon as it can take the lock.
          std::lock_guard<std::mutex> lock(farm.mutex);
          slot.line = line;
          slot.doneNs = t;
          slot.done = true;
          farm.resultReady.notify_one();
        });
  };

  const std::int64_t start = nowNs();
  for (unsigned c = 0; c < clients && submitted < sessions; ++c) submit(c);
  std::vector<unsigned> ready;
  while (finished < sessions) {
    ready.clear();
    {
      std::unique_lock<std::mutex> lock(farm.mutex);
      farm.resultReady.wait(lock, [&] {
        return std::any_of(farm.slots.begin(), farm.slots.end(),
                           [](const FarmClients::Slot& sl) { return sl.done; });
      });
      for (unsigned c = 0; c < clients; ++c) {
        FarmClients::Slot& slot = farm.slots[c];
        if (!slot.done) continue;
        slot.done = false;
        ready.push_back(c);
        latencies.push_back(static_cast<double>(slot.doneNs - slot.submitNs));
        if (slot.line != s.sessions.expected[slot.job]) ++out.mismatches;
      }
    }
    finished += ready.size();
    for (unsigned c : ready) {
      if (submitted < sessions) submit(c);
    }
  }
  out.wallNs = nowNs() - start;
  return out;
}

std::uint64_t sweepBatch(const Setup& s, std::size_t firstJob,
                         std::size_t variants, SpanLog* spans) {
  std::uint64_t mismatches = 0;
  const std::size_t jobCount = s.sessions.jobs.size();
  s.forks->runForks(
      variants, /*threads=*/1, [&](const ckpt::Snapshot& snap, std::size_t i) {
        const std::size_t job = (firstJob + i) % jobCount;
        open(spans, "ckpt.fork");
        serve::CardInstance card(s.table);
        card.recycle(snap);
        close(spans);
        open(spans, "soc.fork_session");
        const serve::SessionOutcome o = card.runSession(s.sessions.steps[job]);
        close(spans);
        open(spans, "serve.result_line");
        const std::string line =
            serve::ServeEngine::resultLine(s.sessions.jobs[job], o);
        close(spans);
        if (line != s.sessions.expected[job]) ++mismatches;
      });
  return mismatches;
}

DirectSession directSession(serve::CardInstance& card, const Setup& s,
                            std::size_t job, SpanLog* spans) {
  DirectSession d;
  std::int64_t t = nowNs();
  open(spans, "ckpt.recycle");
  card.recycle(s.golden());
  close(spans);
  d.recycleNs = nowNs() - t;

  t = nowNs();
  open(spans, "soc.session");
  const serve::SessionOutcome o = card.runSession(s.sessions.steps[job]);
  close(spans);
  d.sessionNs = nowNs() - t;

  t = nowNs();
  open(spans, "serve.result_line");
  const std::string line =
      serve::ServeEngine::resultLine(s.sessions.jobs[job], o);
  close(spans);
  d.lineNs = nowNs() - t;

  d.instructions = o.instructions;
  d.cycles = o.cycles;
  d.mismatch = line != s.sessions.expected[job];
  return d;
}

} // namespace perfbench
