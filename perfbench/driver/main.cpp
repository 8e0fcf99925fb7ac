// Repository benchmark driver: one process per (workload, seed) run.
//
//   perfbench_driver --workload <dense_mix|spa_gapped|card_auth>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <file>] [--git-sha <sha>]
//                    [--corrupt <replay|session>]
//
// Set-up (repeated, see below) builds the workload's inputs from the
// seed and pins its references. The measured loop then runs every
// path round-robin, so that every metric samples the same host
// phases: the TL1 / TL2 / Hybrid replays of the workload trace, one
// closed-loop slice of the 2-worker card farm and one fork-sweep
// batch. With --trace 1 the loop also climbs the layer ladder, times
// each card session's parts directly and records host-time spans; the
// end-to-end figures come only from --trace 0 runs. Every repetition
// is checked against the pinned references. The last stdout line is
// the result object; with --corrupt the named pin is falsified first,
// which must make the run report failures (the self-check's probe).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/stats.h"

namespace perfbench {

namespace {

// ---------------------------------------------------------------------
// Command line and host context

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string traceOut;
  std::string gitSha = "unknown";
  std::string corrupt;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload <dense_mix|spa_gapped|"
               "card_auth> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>] [--git-sha <sha>] "
               "[--corrupt <replay|session>]\n";
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") a.workload = val;
      else if (key == "--seed") a.seed = std::stoull(val);
      else if (key == "--seconds") a.seconds = std::stod(val);
      else if (key == "--trace") a.trace = std::stoi(val);
      else if (key == "--trace-out") a.traceOut = val;
      else if (key == "--git-sha") a.gitSha = val;
      else if (key == "--corrupt") a.corrupt = val;
      else usage("unknown option " + key);
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (!knownWorkload(a.workload)) usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0.0 && a.seconds <= 120.0)) usage("--seconds out of range");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!a.corrupt.empty() && a.corrupt != "replay" && a.corrupt != "session") {
    usage("--corrupt must be replay or session");
  }
  return a;
}

/// The driver's own build type, baked in at compile time (the same
/// test the repository's bench binaries self-report).
const char* buildType() {
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  return "release";
#else
  return "debug";
#endif
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

double peakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// ---------------------------------------------------------------------
// Per-workload run shape

/// Sessions per farm slice and variants per sweep batch. A slice runs
/// for ≈10 ms of host time, so the workers' wake-up at its start and the
/// drain at its end are a small share of it; a batch takes ≈1 ms, the
/// order of one replay.
struct Shape {
  std::size_t farmSessions;
  std::size_t sweepVariants;
};
Shape shapeFor(const std::string& workload) {
  if (workload == "dense_mix") return {64, 2};
  if (workload == "spa_gapped") return {128, 4};
  return {96, 3};
}

/// Closed-loop terminals: two per worker, so a worker that finishes a
/// session always finds the next one queued. With one client per
/// worker, every session's latency would include waking an idle vCPU,
/// which on a virtualized host ranges from microseconds to
/// milliseconds with the neighbours' load (README.md).
constexpr unsigned kFarmClients = 2 * kFarmWorkers;

/// Fresh set-ups per second of measurement, spread evenly over the
/// measured period (the first one runs before it). On a virtualized
/// host a single cold set-up does not repeat within a tenth; a low
/// quantile of many, taken across the run's host phases, does.
constexpr double kSetupsPerSecond = 3.0;

/// Share of repetitions more than 1.3x slower than their own path's
/// low quantile: the repetitions that ran in a slow host phase
/// (bench.slow_rep_share).
struct SlowShare {
  std::size_t slow = 0;
  std::size_t reps = 0;
  void add(const std::vector<double>& repNs) {
    const double lowQ = quantile(repNs, kLowQuantile);
    for (double t : repNs) slow += t > 1.3 * lowQ ? 1 : 0;
    reps += repNs.size();
  }
  double share() const {
    return reps == 0 ? 0.0 : static_cast<double>(slow) / static_cast<double>(reps);
  }
};

const Rung kEndToEnd[] = {Rung::Tl1Est, Rung::Tl2Est, Rung::Hybrid};

// ---------------------------------------------------------------------
// Metric output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string formatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------
// The run

class Run {
 public:
  explicit Run(const Args& a) : args_(a), shape_(shapeFor(a.workload)) {
    if (a.trace == 1) spans_ = std::make_unique<SpanLog>(std::size_t{1} << 19);
  }

  int execute();

 private:
  double txns() const { return static_cast<double>(s_->trace.size()); }
  SpanLog* spans() { return spans_.get(); }

  void fail(std::uint64_t n = 1) { failed_ += n; }

  void timeReplay(Rung r, bool traced);
  void farmRound();
  void sweepRound();
  void directRound();
  void freshSetup();
  void round(std::size_t n);

  std::vector<Metric> endToEnd() const;
  std::vector<Metric> perLayer();
  void printHost(std::size_t rounds, double measuredS) const;

  Args args_;
  Shape shape_;
  std::unique_ptr<Setup> s_;
  std::unique_ptr<SpanLog> spans_;

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t sessionsAttempted_ = 0;
  std::uint64_t sessionsFailed_ = 0;

  std::vector<double> repNs_[kRungCount];      ///< Untraced repetitions.
  std::vector<double> tracedNs_[kRungCount];   ///< Ladder (traced).
  std::vector<double> setupS_;
  std::vector<SetupTimes> setupStages_;
  std::vector<double> farmSliceNs_;
  std::vector<double> farmLatencyNs_;
  std::vector<double> sweepBatchNs_;
  std::size_t nextFarmJob_ = 0;
  std::size_t nextSweepJob_ = 0;

  // Traced-run only.
  std::unique_ptr<serve::CardInstance> probe_;
  std::size_t nextDirectJob_ = 0;
  std::vector<double> directServiceNs_;
  std::vector<double> directNsPerInstr_;
  std::uint64_t farmSessionsDone_ = 0;
  double farmWallNs_ = 0.0;
};

void Run::timeReplay(Rung r, bool traced) {
  SpanLog* log = traced ? spans() : nullptr;
  const std::int64_t t0 = nowNs();
  ReplayResult res;
  {
    Span rep(log, rungName(r));
    res = replay(*s_, r, log);
  }
  const std::int64_t t1 = nowNs();
  (traced ? tracedNs_ : repNs_)[static_cast<int>(r)].push_back(
      static_cast<double>(t1 - t0));
  ++attempted_;
  if (!(res == s_->pinned[static_cast<int>(r)])) fail();
}

void Run::farmRound() {
  Span span(spans(), "serve.farm_slice");
  const FarmSlice f = farmSlice(*s_, nextFarmJob_, shape_.farmSessions,
                                kFarmClients, farmLatencyNs_);
  nextFarmJob_ += shape_.farmSessions;
  farmSliceNs_.push_back(static_cast<double>(f.wallNs));
  farmSessionsDone_ += shape_.farmSessions;
  farmWallNs_ += static_cast<double>(f.wallNs);
  attempted_ += shape_.farmSessions;
  sessionsAttempted_ += shape_.farmSessions;
  fail(f.mismatches);
  sessionsFailed_ += f.mismatches;
}

void Run::sweepRound() {
  const std::int64_t t0 = nowNs();
  std::uint64_t mismatches = 0;
  {
    Span span(spans(), "ckpt.sweep_batch");
    mismatches = sweepBatch(*s_, nextSweepJob_, shape_.sweepVariants, spans());
  }
  sweepBatchNs_.push_back(static_cast<double>(nowNs() - t0));
  nextSweepJob_ += shape_.sweepVariants;
  attempted_ += shape_.sweepVariants;
  sessionsAttempted_ += shape_.sweepVariants;
  fail(mismatches);
  sessionsFailed_ += mismatches;
}

void Run::directRound() {
  // The farm's per-job work on one warm instance, timed part by part.
  constexpr std::size_t kDirectSessions = 8;
  for (std::size_t i = 0; i < kDirectSessions; ++i) {
    const std::size_t job = nextDirectJob_++ % s_->sessions.jobs.size();
    const DirectSession d = directSession(*probe_, *s_, job, spans());
    directServiceNs_.push_back(
        static_cast<double>(d.recycleNs + d.sessionNs + d.lineNs));
    if (d.instructions != 0) {
      directNsPerInstr_.push_back(static_cast<double>(d.sessionNs) /
                                  static_cast<double>(d.instructions));
    }
    ++attempted_;
    ++sessionsAttempted_;
    if (d.mismatch) {
      fail();
      ++sessionsFailed_;
    }
  }
}

void Run::freshSetup() {
  // A complete set-up from scratch; its references must equal the
  // first set-up's (the pins are a deterministic function of the seed).
  std::unique_ptr<Setup> fresh;
  {
    Span span(spans(), "bench.setup");
    fresh = runSetup(args_.workload, args_.seed);
  }
  setupS_.push_back(fresh->times.total);
  setupStages_.push_back(fresh->times);
  ++attempted_;
  bool same = fresh->layer0 == s_->layer0 &&
              fresh->sessions.expected == s_->sessions.expected &&
              fresh->golden().serialize() == s_->golden().serialize();
  for (int r = 0; r < kRungCount; ++r) {
    same = same && fresh->pinned[r] == s_->pinned[r];
  }
  if (!same) fail();
}

void Run::round(std::size_t n) {
  // (rung, traced) repetitions of this round. In a traced run each
  // end-to-end path runs untraced right next to its traced ladder rung,
  // so bench.tracing_overhead_pct compares neighbours. Odd rounds run
  // the list backwards: no repetition always follows the same one.
  std::vector<std::pair<Rung, bool>> reps;
  for (int i = 0; i < kRungCount; ++i) {
    const Rung r = static_cast<Rung>(i);
    const bool endToEnd =
        std::find(std::begin(kEndToEnd), std::end(kEndToEnd), r) !=
        std::end(kEndToEnd);
    if (endToEnd) reps.emplace_back(r, false);
    if (args_.trace == 1) reps.emplace_back(r, true);
  }
  if (n % 2 == 1) std::reverse(reps.begin(), reps.end());
  for (const auto& [r, traced] : reps) timeReplay(r, traced);
  if (args_.trace == 1) directRound();
  farmRound();
  sweepRound();
}

int Run::execute() {
  if (std::string(buildType()) != "release") {
    std::cerr << "perfbench_driver: refusing to measure a " << buildType()
              << " build; configure with CMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  try {
    s_ = runSetup(args_.workload, args_.seed);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: set-up failed: " << e.what() << "\n";
    return 1;
  }
  setupS_.push_back(s_->times.total);
  setupStages_.push_back(s_->times);
  ++attempted_;

  if (args_.corrupt == "replay") {
    double& e = s_->pinned[static_cast<int>(Rung::Tl1Est)].energy_fJ;
    e = std::nextafter(e, INFINITY);
  } else if (args_.corrupt == "session") {
    s_->sessions.expected[0] += " ";
  }
  if (args_.trace == 1) probe_ = std::make_unique<serve::CardInstance>(s_->table);

  const std::int64_t start = nowNs();
  const auto budgetNs = static_cast<std::int64_t>(args_.seconds * 1e9);
  const int setups =
      std::max(5, static_cast<int>(kSetupsPerSecond * args_.seconds) + 1);
  int setupsDone = 1;
  std::size_t rounds = 0;
  try {
    while (nowNs() - start < budgetNs) {
      round(rounds++);
      // Fresh set-ups at evenly spaced points of the measured period.
      const double elapsed =
          static_cast<double>(nowNs() - start) / static_cast<double>(budgetNs);
      if (setupsDone < setups &&
          elapsed >= (setupsDone - 0.5) / (setups - 1)) {
        freshSetup();
        ++setupsDone;
      }
    }
    while (setupsDone < setups) {
      freshSetup();
      ++setupsDone;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    fail();
  }
  const double measuredS = static_cast<double>(nowNs() - start) * 1e-9;

  std::vector<Metric> metrics;
  if (failed_ == 0) metrics = args_.trace == 1 ? perLayer() : endToEnd();
  if (failed_ != 0) metrics.clear();  // perLayer() runs checks of its own.
  printHost(rounds, measuredS);

  if (spans_ && !args_.traceOut.empty()) {
    std::ofstream out(args_.traceOut);
    spans_->writeJson(out);
    if (!out) std::cerr << "perfbench_driver: cannot write " << args_.traceOut << "\n";
  }

  std::ostringstream os;
  os << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) os << ", ";
    os << jsonString(metrics[i].name) << ": {\"value\": "
       << formatNumber(metrics[i].value)
       << ", \"unit\": " << jsonString(metrics[i].unit) << "}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
  return 0;
}

double pctErr(double estimate, double reference) {
  return 100.0 * std::fabs(estimate - reference) / reference;
}

std::vector<Metric> Run::endToEnd() const {
  auto ktps = [&](Rung r) {
    return txns() * 1e6 / quantile(repNs_[static_cast<int>(r)], kLowQuantile);
  };
  const ReplayResult& l0 = s_->layer0;
  auto pinned = [&](Rung r) { return s_->pinned[static_cast<int>(r)]; };
  return {
      {"setup_s", quantile(setupS_, kLowQuantile), "s"},
      {"tl1_ktps", ktps(Rung::Tl1Est), "kT/s"},
      {"tl2_ktps", ktps(Rung::Tl2Est), "kT/s"},
      {"hybrid_ktps", ktps(Rung::Hybrid), "kT/s"},
      {"tl1_energy_err_pct", pctErr(pinned(Rung::Tl1Est).energy_fJ, l0.energy_fJ), "%"},
      {"tl2_energy_err_pct", pctErr(pinned(Rung::Tl2Est).energy_fJ, l0.energy_fJ), "%"},
      {"hybrid_energy_err_pct", pctErr(pinned(Rung::Hybrid).energy_fJ, l0.energy_fJ), "%"},
      {"tl2_cycle_err_pct",
       pctErr(static_cast<double>(pinned(Rung::Tl2Est).cycles),
              static_cast<double>(l0.cycles)),
       "%"},
      {"farm_sessions_per_s",
       static_cast<double>(shape_.farmSessions) * 1e9 /
           quantile(farmSliceNs_, kLowQuantile),
       "1/s"},
      {"farm_p50_ms", quantile(farmLatencyNs_, 0.50) * 1e-6, "ms"},
      {"sweep_variants_per_s",
       static_cast<double>(shape_.sweepVariants) * 1e9 /
           quantile(sweepBatchNs_, kLowQuantile),
       "1/s"},
      {"peak_rss_mb", peakRssMb(), "MB"},
  };
}

std::vector<Metric> Run::perLayer() {
  auto q = [&](Rung r) {
    return quantile(tracedNs_[static_cast<int>(r)], kLowQuantile);
  };
  auto qUntraced = [&](Rung r) {
    return quantile(repNs_[static_cast<int>(r)], kLowQuantile);
  };
  auto spanQ = [&](const char* name) {
    const auto& m = spans_->selfNs();
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : quantile(it->second, kLowQuantile);
  };
  auto stageQ = [&](double SetupTimes::*stage) {
    std::vector<double> v;
    for (const SetupTimes& t : setupStages_) v.push_back(t.*stage);
    return quantile(v, kLowQuantile) * 1e3;
  };

  const double n = txns();
  const double tl1Cycles =
      static_cast<double>(s_->pinned[static_cast<int>(Rung::Tl1Bus)].cycles);
  const LayerCounts tl2 = countTl2(*s_);
  const LayerCounts hyb = countHybrid(*s_);

  // Session counts through the obs registry: one pass over the whole
  // session set on the warm probe instance.
  obs::StatsRegistry reg;
  for (std::size_t j = 0; j < s_->sessions.jobs.size(); ++j) {
    const DirectSession d = directSession(*probe_, *s_, j, nullptr);
    reg.counter("soc.instructions").add(d.instructions);
    reg.counter("soc.cycles").add(d.cycles);
    reg.counter("soc.sessions").add();
    if (d.mismatch) fail();
  }
  probe_->soc().cpu().publishObs(reg);
  const obs::Snapshot snap = reg.snapshot();
  auto count = [&](const char* name) {
    const obs::SnapshotEntry* e = snap.find(name);
    return e == nullptr ? 0.0 : static_cast<double>(e->count);
  };
  const double hits = count("iss.block_hits");
  const double misses = count("iss.block_misses");

  SlowShare slow;
  for (int r = 0; r < kRungCount; ++r) {
    slow.add(repNs_[r]);
    slow.add(tracedNs_[r]);
  }
  double traced = 0.0;
  double untraced = 0.0;
  for (Rung r : kEndToEnd) {
    traced += q(r);
    untraced += qUntraced(r);
  }

  const double directServiceP50 = quantile(directServiceNs_, 0.50);
  return {
      {"trace.txns", n, "count"},
      {"trace.generate_ms", stageQ(&SetupTimes::generate), "ms"},
      {"trace.platform_build_us", q(Rung::Tl1Build) * 1e-3, "us"},
      {"bus.tl1_ns_per_txn", (q(Rung::Tl1Bus) - q(Rung::Tl1Build)) / n, "ns"},
      {"bus.tl1_frame_energy_ns_per_txn", (q(Rung::Tl1Est) - q(Rung::Tl1Bus)) / n, "ns"},
      {"obs.ledger_ns_per_txn", (q(Rung::Tl1Ledger) - q(Rung::Tl1Est)) / n, "ns"},
      {"sim.tl1_ns_per_cycle", (q(Rung::Tl1Bus) - q(Rung::Tl1Build)) / tl1Cycles, "ns"},
      {"sim.tl2_warp_share",
       static_cast<double>(tl2.warpedCycles) / static_cast<double>(tl2.cycles),
       "ratio"},
      {"sim.tl2_warps", static_cast<double>(tl2.warps), "count"},
      {"sim.tl2_parks", static_cast<double>(tl2.parks), "count"},
      {"bus.tl2_ns_per_txn", (q(Rung::Tl2Bus) - q(Rung::Tl2Build)) / n, "ns"},
      {"power.tl2_model_ns_per_txn", (q(Rung::Tl2Est) - q(Rung::Tl2Bus)) / n, "ns"},
      {"hier.ns_per_txn_outside_roi", (q(Rung::Hybrid) - q(Rung::Tl2Est)) / n, "ns"},
      {"hier.switches", static_cast<double>(hyb.switches), "count"},
      {"hier.roi_cycle_share",
       static_cast<double>(hyb.roiCycles) / static_cast<double>(hyb.cycles),
       "ratio"},
      {"ladder.tl1_ktps", n * 1e6 / q(Rung::Tl1Est), "kT/s"},
      {"ladder.tl2_ktps", n * 1e6 / q(Rung::Tl2Est), "kT/s"},
      {"ladder.hybrid_ktps", n * 1e6 / q(Rung::Hybrid), "kT/s"},
      {"soc.ns_per_instr", quantile(directNsPerInstr_, kLowQuantile), "ns"},
      {"soc.iss_block_hit_rate", hits / (hits + misses), "ratio"},
      {"soc.instr_per_session", count("soc.instructions") / count("soc.sessions"), "count"},
      {"soc.cycles_per_session", count("soc.cycles") / count("soc.sessions"), "count"},
      {"ckpt.recycle_us", spanQ("ckpt.recycle") * 1e-3, "us"},
      {"ckpt.fork_us", spanQ("ckpt.fork") * 1e-3, "us"},
      {"serve.dispatch_us",
       (quantile(farmLatencyNs_, 0.50) - directServiceP50) * 1e-3, "us"},
      {"serve.result_line_us", spanQ("serve.result_line") * 1e-3, "us"},
      {"serve.latency_p99_ms", quantile(farmLatencyNs_, 0.99) * 1e-6, "ms"},
      {"serve.worker_busy_share",
       static_cast<double>(farmSessionsDone_) * directServiceP50 /
           (kFarmWorkers * farmWallNs_),
       "ratio"},
      {"power.characterize_ms", stageQ(&SetupTimes::characterize), "ms"},
      {"ref.reference_ms", stageQ(&SetupTimes::reference), "ms"},
      {"serve.golden_boot_ms", stageQ(&SetupTimes::goldenBoot), "ms"},
      {"serve.engine_start_ms", stageQ(&SetupTimes::engineStart), "ms"},
      {"bench.pin_ms", stageQ(&SetupTimes::pin), "ms"},
      {"serve.sessions", static_cast<double>(sessionsAttempted_), "count"},
      {"serve.failed_sessions", static_cast<double>(sessionsFailed_), "count"},
      {"bench.slow_rep_share", slow.share(), "ratio"},
      {"bench.tracing_overhead_pct", 100.0 * (traced - untraced) / untraced, "%"},
  };
}

void Run::printHost(std::size_t rounds, double measuredS) const {
  SlowShare slow;
  for (Rung r : kEndToEnd) slow.add(repNs_[static_cast<int>(r)]);
  std::ostringstream os;
  os << "{\"host\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"cpu_model\": " << jsonString(cpuModel())
     << ", \"build_type\": " << jsonString(buildType())
     << ", \"git_sha\": " << jsonString(args_.gitSha) << "}, \"run\": {"
     << "\"workload\": " << jsonString(args_.workload)
     << ", \"seed\": " << args_.seed << ", \"trace\": " << args_.trace
     << ", \"measured_s\": " << formatNumber(measuredS)
     << ", \"rounds\": " << rounds
     << ", \"reps_per_path\": " << repNs_[static_cast<int>(Rung::Tl1Est)].size()
     << ", \"throughput_estimator\": \"q" << kLowQuantile * 100
     << " of per-repetition host wall time\""
     << ", \"setups\": " << setupS_.size()
     << ", \"farm_latency_samples\": " << farmLatencyNs_.size()
     << ", \"farm_workers\": " << kFarmWorkers
     << ", \"farm_clients\": " << kFarmClients
     << ", \"slow_rep_share\": " << formatNumber(slow.share())
     << ", \"span_drops\": " << (spans_ ? spans_->dropped() : 0) << "}}";
  std::cout << os.str() << std::endl;
}

} // namespace

// ---------------------------------------------------------------------
// Shared helpers declared in bench.h

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

SpanLog::SpanLog(std::size_t capacity)
    : origin_(nowNs()), recorder_(capacity) {}

void SpanLog::begin(const char* name) {
  stack_.push_back(Open{name, nowNs(), 0});
}

void SpanLog::end() {
  const std::int64_t t = nowNs();
  const Open o = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = t - o.start;
  if (!stack_.empty()) stack_.back().childNs += dur;
  selfNs_[o.name].push_back(static_cast<double>(dur - o.childNs));
  recorder_.span("bench", o.name, static_cast<std::uint64_t>(o.start - origin_),
                 static_cast<std::uint64_t>(t - origin_), obs::Track::Master);
}

} // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parseArgs(argc, argv);
  perfbench::Run run(args);
  return run.execute();
}
