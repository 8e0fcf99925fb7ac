// sct_serve — the card-farm daemon.
//
// Boots the smart-card platform ONCE to a golden quiesce-point
// snapshot, then serves APDU session jobs from a pool of card
// instances recycled from that snapshot, dispatched in arrival order
// over a shared worker pool. Jobs are newline-delimited JSON on stdin
// (or a unix socket); each finished session streams one result line
// with its energy totals and per-bundle/per-class attribution.
//
//   sct_serve [--workers N] [--socket PATH] [--table fixed] < jobs.ndjson
//
//   --workers N   pool threads (default: hardware / SCT_THREADS)
//   --socket P    listen on unix socket P instead of stdin
//   --table T     "characterized" (default): coefficients from the
//                 layer-0 characterization run, the table the bench
//                 harness uses; "fixed": a deterministic synthetic
//                 table (fast startup — used by the regression tests)
//
// Job:    {"id":"s1","scenario":"auth","seed":7,"fidelity":"tl1"}
// Result: {"event":"result","id":"s1","energy_fJ":...,"by_class":...}
// On SIGINT/SIGTERM: pending jobs are dropped, in-flight sessions
// drain, a {"event":"done",...} summary flushes, exit code 0.
//
// Scenarios: auth, wrong_pin, challenge, mixed (serve/scenario.h).
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "power/coeff_table.h"
#include "serve/daemon.h"

namespace {

volatile std::sig_atomic_t gStop = 0;

void onSignal(int) { gStop = 1; }

sct::power::SignalEnergyTable fixedTable() {
  sct::power::SignalEnergyTable t;
  for (std::size_t i = 0; i < sct::bus::kSignalCount; ++i) {
    t.setCoeff_fJ(static_cast<sct::bus::SignalId>(i),
                  1.5 + 0.25 * static_cast<double>(i));
  }
  return t;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workers N] [--socket PATH] "
               "[--table fixed|characterized] < jobs.ndjson\n",
               argv0);
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  sct::serve::DaemonOptions options;
  bool fixed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workers" && i + 1 < argc) {
      options.workers = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (arg == "--socket" && i + 1 < argc) {
      options.socketPath = argv[++i];
    } else if (arg == "--table" && i + 1 < argc) {
      const std::string t = argv[++i];
      if (t == "fixed") fixed = true;
      else if (t != "characterized") return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = onSignal;
  // No SA_RESTART: the read/poll loop must wake to see the stop flag.
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);

  const sct::power::SignalEnergyTable table =
      fixed ? fixedTable() : sct::bench::characterizedTable();
  return sct::serve::runDaemon(options, table, stdin, stdout, &gStop);
}
