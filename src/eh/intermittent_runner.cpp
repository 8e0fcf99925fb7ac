#include "eh/intermittent_runner.h"

#include <algorithm>
#include <string>
#include <string_view>

#include "eh/workload.h"

namespace sct::eh {

namespace {

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Tags of the bookkeeping sections: the simulator's power-model and
/// ledger state, which a real card does not persist.
constexpr std::string_view kPmTag = "pm";
constexpr std::string_view kLedgerTag = "ledger";

} // namespace

std::size_t cardStateBytes(const ckpt::Snapshot& snap) {
  std::size_t n = 0;
  for (const ckpt::Snapshot::Section& s : snap.sections()) {
    if (s.tag != kPmTag && s.tag != kLedgerTag) n += s.payload.size();
  }
  return n;
}

IntermittentRunner::IntermittentRunner(const power::SignalEnergyTable& table,
                                       const soc::AssembledProgram& program)
    : soc_(soc::SocConfig{}), pm_(table) {
  pm_.attachLedger(ledger_);
  soc_.bus().addObserver(pm_);
  // Restoring re-establishes each memory's baseline image first, so
  // the program must be loaded before any restore — identically to how
  // the snapshot's parent was prepared (serve::CardInstance contract).
  soc_.loadProgram(program);
  soc_.registerCheckpoint(registry_);
  registry_.add(std::string(kPmTag), pm_);
  registry_.add(std::string(kLedgerTag), ledger_);
  // The supply hook runs AFTER the bus process (registered at default
  // priority 0 by Tl1Bus) so it reads the cycle's committed energy.
  // Registered unconditionally at construction: the clock's handler
  // table is part of the snapshot layout, and it must look the same in
  // the parent that produced a snapshot and in the variant restoring
  // it. engaged_ gates the actual work.
  soc_.clock().onFalling([this] { hookCycle(); }, /*priority=*/100);
}

IntermittentRunner::~IntermittentRunner() = default;

bool IntermittentRunner::quiesced() {
  // The serve-style platform quiesce predicate (the cheap pre-filter;
  // saveAll still validates the full platform state).
  return soc_.cpu().busQuiesced() && soc_.bus().outstandingTotal() == 0 &&
         !soc_.uart().txBusy();
}

ckpt::Snapshot IntermittentRunner::bootToMarker(std::uint32_t marker,
                                                std::uint64_t maxCycles) {
  const bus::Address markerAddr =
      soc::memmap::kRamBase + kPreludeOffset;
  std::string lastRefusal;
  for (std::uint64_t i = 0; i < maxCycles; ++i) {
    soc_.clock().runCycles(1);
    if (soc_.ram().peekWord(markerAddr) != marker || !quiesced()) continue;
    try {
      return registry_.saveAll();
    } catch (const ckpt::CheckpointError& e) {
      lastRefusal = e.what();
    }
  }
  throw ckpt::CheckpointError(
      "IntermittentRunner::bootToMarker: marker not reached at a quiesce "
      "point" +
      (lastRefusal.empty() ? std::string()
                           : "; last refusal: " + lastRefusal));
}

void IntermittentRunner::hookCycle() {
  if (!engaged_) return;
  sim::Clock& clock = soc_.clock();
  // Total-energy delta, not energySinceLastCall_fJ(): the latter is a
  // shared interval marker other consumers may own.
  const double total = pm_.totalEnergy_fJ();
  const double chip_fJ = supply_->chipDrain_fJ(total - pmMark_);
  pmMark_ = total;
  supply_->stepOnChip(wall_, chip_fJ);
  rolling_->addCycle(chip_fJ);
  ++wall_;
  if (died_ || supply_->dead()) {
    died_ = true;
    clock.requestBreak();
    return;
  }
  if (soc_.cpu().halted()) {
    // Workload finished — hand control back every cycle so the outer
    // loop can settle the platform and close the books.
    clock.requestBreak();
    return;
  }
  if (!saveRequested_ && detector_.onCycle(*supply_, *rolling_)) {
    saveRequested_ = true;
  }
  if (saveRequested_) {
    clock.requestBreak();
    return;
  }
  if (periodicInterval_ != 0 &&
      clock.cycle() - backupSimCycle_ >= periodicInterval_ && quiesced()) {
    periodicDue_ = true;
    clock.requestBreak();
  }
}

RunResult IntermittentRunner::run(const FieldProfile& field,
                                  const BackupScheme& scheme,
                                  const RunnerConfig& cfg) {
  RunResult res;
  sim::Clock& clock = soc_.clock();
  SupplyModel supply(cfg.supply, field, clock.period());
  // Fed chip-level energies (chipScale 1.0): the exact per-cycle drain
  // the supply integrates, so detector and integrator agree.
  power::RollingCurrent rolling(power::contactless(), clock.period(),
                                /*chipScale=*/1.0,
                                cfg.currentWindowCycles);
  supply_ = &supply;
  rolling_ = &rolling;
  detector_ = BrownoutDetector(cfg.brownout);
  periodicInterval_ = scheme.periodicInterval();
  wall_ = 0;
  died_ = false;
  saveRequested_ = false;
  periodicDue_ = false;
  pmMark_ = pm_.totalEnergy_fJ();

  // Backup #0 is free: the state the card entered the field with is
  // already in NVM (it is the personalized card image). A backup saves
  // and restores the whole registry, but the NVM engine is priced by
  // the card's own state only.
  ckpt::Snapshot snap = registry_.saveAll();
  std::vector<std::uint8_t> backupBytes = snap.saveToBuffer();
  std::size_t cardBytes = cardStateBytes(snap);
  backupSimCycle_ = clock.cycle();
  res.checkpointBytes = cardBytes;
  res.checkpointDigest = fnv1a(backupBytes);

  // Restart headroom: recharging exactly to vOn and then paying the
  // restore must not land back below the brownout threshold, or the
  // card would livelock in a trip/restore loop.
  const BackupCosts restoreEstimate = scheme.restoreCosts(cardBytes);
  supply.setRestartLevel_fJ(
      std::max(supply.restartLevel_fJ(),
               supply.brownoutLevel_fJ() + 2.0 * restoreEstimate.energy_fJ));

  obs::LedgerView segLedger = ledger_.view();
  std::uint64_t segWallStart = wall_;
  std::uint64_t segSimStart = clock.cycle();

  const auto pushSegment = [&] {
    Segment s;
    s.wallStart = segWallStart;
    s.wallEnd = wall_;
    s.simStart = segSimStart;
    s.simEnd = clock.cycle();
    s.energy = obs::delta(ledger_.view(), segLedger);
    res.segments.push_back(s);
  };

  const auto takeBackup = [&] {
    snap = registry_.saveAll();
    backupBytes = snap.saveToBuffer();
    cardBytes = cardStateBytes(snap);
    const BackupCosts sc = scheme.saveCosts(cardBytes);
    // The core stalls while the NVM engine streams the image out; the
    // field keeps charging, the lump sum models the write energy.
    for (std::uint64_t i = 0;
         i < sc.cycles && wall_ < cfg.maxWallCycles; ++i) {
      supply.stepOff(wall_);
      ++wall_;
      ++res.overheadCycles;
    }
    supply.drain(sc.energy_fJ);
    res.backupEnergy_fJ += sc.energy_fJ;
    ++res.backups;
    backupSimCycle_ = clock.cycle();
    res.checkpointBytes = cardBytes;
    res.checkpointDigest = fnv1a(backupBytes);
  };

  // Run a powered stretch; wall_ advances inside the hook.
  const auto runPowered = [&](std::uint64_t cycles) {
    const std::uint64_t before = wall_;
    clock.runCycles(cycles);
    res.activeCycles += wall_ - before;
  };

  bool powered = supply.aboveRestart();
  engaged_ = true;
  while (wall_ < cfg.maxWallCycles) {
    if (!powered) {
      // Dark: the card is off, only the field charges the capacitor.
      while (wall_ < cfg.maxWallCycles && !supply.aboveRestart()) {
        supply.stepOff(wall_);
        ++wall_;
        ++res.deadCycles;
      }
      if (wall_ >= cfg.maxWallCycles) break;
      // Recharged: pay the restore and rewind to the last backup.
      const BackupCosts rc = scheme.restoreCosts(cardBytes);
      for (std::uint64_t i = 0;
           i < rc.cycles && wall_ < cfg.maxWallCycles; ++i) {
        supply.stepOff(wall_);
        ++wall_;
        ++res.overheadCycles;
      }
      supply.drain(rc.energy_fJ);
      res.restoreEnergy_fJ += rc.energy_fJ;
      ++res.restores;
      const std::uint64_t simAtOff = clock.cycle();
      registry_.loadAll(ckpt::Snapshot::loadFromBuffer(backupBytes));
      const std::uint64_t lost = simAtOff - clock.cycle();
      res.replayedCycles += lost;
      if (periodicInterval_ != 0 && lost > 0) {
        // Checkpoint-on-resume: the last power-down lost progress, so
        // the periodic scheme re-checkpoints at the FIRST quiesce point
        // of the new segment instead of waiting a full interval.
        // Without this a segment shorter than the interval never
        // persists anything and the run livelocks, replaying the same
        // stretch forever (the sweep exposed exactly that); with it a
        // mis-sized interval degrades to slow-but-monotonic progress.
        backupSimCycle_ = clock.cycle() >= periodicInterval_
                              ? clock.cycle() - periodicInterval_
                              : 0;
      }
      pmMark_ = pm_.totalEnergy_fJ();  // Rewound with the platform.
      // The card was dark: the drain samples from before the outage
      // are not "recent" draw, and leaving them in the window lets the
      // predictive guard trip on the first post-restore cycle (stored
      // sits near the restart level, well below brownout + guard x the
      // pre-outage mean), re-browning the card before it can reach a
      // quiesce point — a restore/trip livelock for schemes that do
      // not save on brownout.
      rolling.resetWindow();
      detector_.rearm();
      saveRequested_ = false;
      periodicDue_ = false;
      died_ = false;
      powered = true;
      segLedger = ledger_.view();
      segWallStart = wall_;
      segSimStart = clock.cycle();
      continue;
    }

    runPowered(std::min<std::uint64_t>(cfg.chunkCycles,
                                       cfg.maxWallCycles - wall_));

    if (soc_.cpu().halted() && quiesced()) {
      res.completed = true;
      pushSegment();
      break;
    }
    if (died_) {
      // The supply collapsed before a save could happen: everything
      // since the last backup is lost.
      ++res.hardDeaths;
      pushSegment();
      powered = false;
      continue;
    }
    if (saveRequested_) {
      res.brownoutWallCycles.push_back(wall_);
      // Step to the next quiesce point — snapshots are only legal
      // there. The supply keeps draining; the field may collapse first.
      std::uint64_t hunt = 0;
      while (!quiesced() && !died_ && hunt < cfg.quiesceHuntLimit &&
             wall_ < cfg.maxWallCycles) {
        runPowered(1);
        ++hunt;
      }
      if (died_ || !quiesced()) {
        ++res.hardDeaths;
        pushSegment();
        powered = false;
        saveRequested_ = false;
        continue;
      }
      if (scheme.backupOnBrownout()) takeBackup();
      pushSegment();
      powered = false;
      saveRequested_ = false;
      continue;
    }
    if (periodicDue_) {
      // The hook only raises this at a quiesce point, but the cycle
      // that completed the break may have started new work.
      if (quiesced()) takeBackup();
      periodicDue_ = false;
      continue;
    }
  }

  engaged_ = false;
  supply_ = nullptr;
  rolling_ = nullptr;

  res.wallCycles = wall_;
  res.simCycles = clock.cycle();
  res.instructions = soc_.cpu().stats().instructions;
  res.brownouts = detector_.trips();
  res.harvested_fJ = supply.harvested_fJ();
  res.consumed_fJ = supply.consumed_fJ();
  res.finalStored_fJ = supply.stored_fJ();
  res.progressWord =
      soc_.ram().peekWord(soc::memmap::kRamBase + kProgressOffset);
  res.digestWord =
      soc_.ram().peekWord(soc::memmap::kRamBase + kDigestOffset);
  return res;
}

void publishRunObs(const RunResult& r, obs::StatsRegistry& reg) {
  reg.counter("eh.brownouts").add(r.brownouts);
  reg.counter("eh.backups").add(r.backups);
  reg.counter("eh.restores").add(r.restores);
  reg.counter("eh.hard_deaths").add(r.hardDeaths);
  reg.counter("eh.active_cycles").add(r.activeCycles);
  reg.counter("eh.dead_cycles").add(r.deadCycles);
  reg.counter("eh.overhead_cycles").add(r.overheadCycles);
  reg.counter("eh.replayed_cycles").add(r.replayedCycles);
  reg.counter("eh.wall_cycles").add(r.wallCycles);
  reg.counter("eh.completions").add(r.completed ? 1 : 0);
  reg.gauge("eh.backup_energy_fJ").add(r.backupEnergy_fJ);
  reg.gauge("eh.restore_energy_fJ").add(r.restoreEnergy_fJ);
  reg.gauge("eh.harvested_fJ").add(r.harvested_fJ);
  reg.gauge("eh.consumed_fJ").add(r.consumed_fJ);
  obs::Histogram& seg = reg.histogram(
      "eh.segment_cycles",
      {256, 1024, 4096, 16384, 65536, 262144});
  for (const Segment& s : r.segments) seg.record(s.wallEnd - s.wallStart);
  if (r.completed) {
    reg.histogram("eh.time_to_completion_kcycles",
                  {64, 256, 1024, 4096, 16384})
        .record(r.wallCycles / 1000);
  }
}

} // namespace sct::eh
