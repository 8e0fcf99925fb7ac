// Shared pieces of the benchmark driver: host timing, the quantile
// estimator, the span log of the traced run, the replay platform and
// the per-workload set-up (inputs plus the references every run is
// checked against).
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bus/memory_slave.h"
#include "ckpt/checkpoint.h"
#include "ckpt/fork_runner.h"
#include "obs/trace_json.h"
#include "power/coeff_table.h"
#include "ref/energy.h"
#include "ref/parasitics.h"
#include "serve/card_instance.h"
#include "serve/daemon.h"
#include "serve/scenario.h"
#include "sim/clock.h"
#include "sim/kernel.h"
#include "soc/smartcard.h"
#include "trace/bus_trace.h"

namespace perfbench {

using namespace sct;

// ---------------------------------------------------------------------
// Host time

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolation quantile (numpy's default): q = 0 is the
/// minimum, q = 1 the maximum. Returns 0 for an empty sample.
double quantile(std::vector<double> v, double q);

/// Every host-time throughput and per-layer time is derived from this
/// quantile of its per-repetition times. The host shows multi-second
/// slow phases (see README.md); a low quantile of many interleaved
/// repetitions reads the same fast phase in every run, where a mean or
/// median moves with the share of the run that sat in a slow phase.
inline constexpr double kLowQuantile = 0.005;

// ---------------------------------------------------------------------
// Spans of the traced run

/// Host-time spans around the driver's calls into the simulator's
/// layers. Spans nest on one thread; a span's self time is its
/// duration minus the time its child spans cover. Events go to an
/// obs::TraceRecorder (timestamps in host nanoseconds since the log
/// was created) and are written once, at exit, in the same Chrome
/// trace_event JSON the simulator's own recorder emits.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity);

  void begin(const char* name);
  void end();

  /// Self time (ns) of every closed span, by span name.
  const std::map<std::string, std::vector<double>>& selfNs() const {
    return selfNs_;
  }

  std::uint64_t dropped() const { return recorder_.dropped(); }
  void writeJson(std::ostream& os) const { recorder_.writeJson(os); }

 private:
  struct Open {
    const char* name;
    std::int64_t start;
    std::int64_t childNs;
  };
  std::int64_t origin_;
  std::vector<Open> stack_;
  obs::TraceRecorder recorder_;
  std::map<std::string, std::vector<double>> selfNs_;
};

/// RAII span; a null log makes it free (the untraced runs).
class Span {
 public:
  Span(SpanLog* log, const char* name) : log_(log) {
    if (log_ != nullptr) log_->begin(name);
  }
  ~Span() {
    if (log_ != nullptr) log_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
};

// ---------------------------------------------------------------------
// Replay platform

/// Initial memory contents of a replay platform. The slaves read
/// through these images copy-on-write, so building a platform per
/// repetition copies nothing until a write lands.
struct Images {
  std::vector<std::uint8_t> rom;
  std::vector<std::uint8_t> ram;
  std::vector<std::uint8_t> eeprom;
  std::vector<std::uint8_t> flash;
  std::vector<std::uint8_t> sfr;
};

/// The smart-card memory map without the core: the target every layer
/// replays a bus trace into. The SFR window is plain memory so replays
/// are deterministic across layers.
template <typename BusT>
struct Platform {
  sim::Kernel kernel;
  sim::Clock clk{kernel, "clk", 10};
  BusT ecbus;
  bus::MemorySlave rom;
  bus::MemorySlave ram;
  bus::MemorySlave eeprom;
  bus::MemorySlave flash;
  bus::MemorySlave sfr;

  template <typename... BusArgs>
  explicit Platform(const Images& im, BusArgs&&... busArgs)
      : ecbus(clk, "ecbus", std::forward<BusArgs>(busArgs)...),
        rom("rom", ctl(soc::memmap::kRomBase, im.rom, 0, 0, false),
            im.rom.data()),
        ram("ram", ctl(soc::memmap::kRamBase, im.ram, 0, 0, true),
            im.ram.data()),
        eeprom("eeprom", ctl(soc::memmap::kEepromBase, im.eeprom, 1, 3, true),
               im.eeprom.data()),
        flash("flash", ctl(soc::memmap::kFlashBase, im.flash, 1, 0, false),
              im.flash.data()),
        sfr("sfr", ctl(soc::memmap::kSfrBase, im.sfr, 0, 0, true),
            im.sfr.data()) {
    ecbus.attach(rom);
    ecbus.attach(ram);
    ecbus.attach(eeprom);
    ecbus.attach(flash);
    ecbus.attach(sfr);
  }

 private:
  static bus::SlaveControl ctl(bus::Address base,
                               const std::vector<std::uint8_t>& image,
                               unsigned readWait, unsigned writeWait,
                               bool canWrite) {
    bus::SlaveControl c;
    c.base = base;
    c.size = static_cast<bus::Address>(image.size());
    c.readWait = readWait;
    c.writeWait = writeWait;
    c.canWrite = canWrite;
    c.canExec = base != soc::memmap::kSfrBase;
    return c;
  }
};

// ---------------------------------------------------------------------
// Workloads and set-up

/// The replay paths and the rungs of the layer ladder. The end-to-end
/// paths are Tl1Est, Tl2Est and Hybrid; the other rungs add or remove
/// one layer against them.
enum class Rung : int {
  Tl1Build,   ///< Platform + master construction only.
  Tl1Bus,     ///< Tl1Bus replay, no observer.
  Tl1Est,     ///< + Tl1PowerModel (the fused frame-energy engine).
  Tl1Ledger,  ///< + obs::EnergyLedger attached to the model.
  Tl2Build,
  Tl2Bus,     ///< Tl2Bus replay, no observer.
  Tl2Est,     ///< + Tl2PowerModel.
  Hybrid,     ///< HybridBus + FidelityController + crypto-window watch,
              ///  both models attached.
  Count
};
inline constexpr int kRungCount = static_cast<int>(Rung::Count);
const char* rungName(Rung r);

/// Simulated statistics of one replay; what every repetition is
/// checked against.
struct ReplayResult {
  double energy_fJ = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  bool operator==(const ReplayResult&) const = default;
};

/// The card sessions a workload serves: one job per distinct seed, the
/// expanded scenario script, and the threads=1 reference result line.
struct SessionSet {
  std::vector<serve::Job> jobs;
  std::vector<std::vector<serve::Step>> steps;
  std::vector<std::string> expected;
};

/// Wall time of each set-up stage, in seconds.
struct SetupTimes {
  double characterize = 0.0;
  double goldenBoot = 0.0;
  double generate = 0.0;
  double reference = 0.0;
  double pin = 0.0;
  double engineStart = 0.0;
  double total = 0.0;
};

/// Worker threads of the serving engine every run starts.
inline constexpr unsigned kFarmWorkers = 2;

/// Closed-loop client state of the farm: one slot per terminal. The
/// engine's workers fill a slot from the result-line sink; it lives as
/// long as the engine so no sink can outlive what it writes to.
struct FarmClients {
  struct Slot {
    std::size_t job = 0;
    std::int64_t submitNs = 0;
    std::int64_t doneNs = 0;
    std::string line;
    bool done = false;
  };
  std::mutex mutex;
  std::condition_variable resultReady;
  std::vector<Slot> slots;
};

/// Everything a run needs before its first timed repetition.
struct Setup {
  std::unique_ptr<ref::ParasiticDb> parasitics;
  std::unique_ptr<ref::TransitionEnergyModel> energyModel;
  power::SignalEnergyTable table;

  trace::BusTrace trace;
  Images images;

  ReplayResult layer0;                   ///< Gate-level reference replay.
  ReplayResult pinned[kRungCount];       ///< First replay of each rung.

  /// The sweep engine; it holds the golden card snapshot every farm
  /// recycle and every sweep variant restores.
  std::unique_ptr<ckpt::ForkRunner> forks;
  const ckpt::Snapshot& golden() const { return forks->snapshot(); }
  SessionSet sessions;
  FarmClients farm;  ///< Declared before the engine: outlives its sinks.
  std::unique_ptr<serve::ServeEngine> engine;

  SetupTimes times;
};

inline const char* const kWorkloads[] = {"dense_mix", "spa_gapped",
                                         "card_auth"};
bool knownWorkload(const std::string& name);

/// Build a workload's inputs (the fixed replay corpus and the card
/// sessions `seed` selects) and compute its references (layer-0 replay,
/// first replay of every rung, threads=1 session results), then start
/// the serving engine. Throws on a replay that reports bus errors.
std::unique_ptr<Setup> runSetup(const std::string& workload,
                                std::uint64_t seed);

// ---------------------------------------------------------------------
// Paths (paths.cpp)

/// One replay of the set-up's trace at `rung`. `spans` may be null.
ReplayResult replay(const Setup& s, Rung rung, SpanLog* spans);

/// Layer counts of one replay, read from the obs registry of an
/// instrumented (untimed) replay.
struct LayerCounts {
  std::uint64_t cycles = 0;
  std::uint64_t warps = 0;
  std::uint64_t warpedCycles = 0;
  std::uint64_t parks = 0;
  std::uint64_t switches = 0;
  std::uint64_t roiCycles = 0;
};
LayerCounts countTl2(const Setup& s);
LayerCounts countHybrid(const Setup& s);

/// One closed-loop farm slice: `clients` terminals each submit a job,
/// wait for its result line and submit the next, until `sessions`
/// results are back. Appends each session's submit→result-line latency
/// (ns) to `latencies`; returns the number of result lines that did not
/// match the threads=1 reference.
struct FarmSlice {
  std::uint64_t mismatches = 0;
  std::int64_t wallNs = 0;
};
FarmSlice farmSlice(Setup& s, std::size_t firstJob, std::size_t sessions,
                    unsigned clients, std::vector<double>& latencies);

/// One fork-sweep batch over ckpt::ForkRunner at threads=1: each
/// variant builds a fresh CardInstance, restores the golden snapshot
/// and runs one session. Returns the mismatches against the reference.
std::uint64_t sweepBatch(const Setup& s, std::size_t firstJob,
                      std::size_t variants, SpanLog* spans);

/// One session on a warm, recycled instance (the farm's per-job work
/// without dispatch), each part timed directly: golden restore, the
/// session itself, and the result line.
struct DirectSession {
  std::int64_t recycleNs = 0;
  std::int64_t sessionNs = 0;
  std::int64_t lineNs = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  bool mismatch = false;
};
DirectSession directSession(serve::CardInstance& card, const Setup& s,
                            std::size_t job, SpanLog* spans);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
