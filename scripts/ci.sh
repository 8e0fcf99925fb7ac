#!/bin/sh
# Full CI gate, runnable locally and on any runner with cmake + ninja:
#
#   scripts/ci.sh
#
# Pass 1 — the shipping configuration: Release (LTO) configure with
# warnings-as-errors, build everything (libraries, tests, benches), run
# the whole test suite.
# Pass 2 — the same suite under AddressSanitizer + UndefinedBehavior-
# Sanitizer incl. float-cast-overflow (the SCT_SANITIZE option; it
# disables LTO itself and makes every UB report fatal), built without
# -march=native so the portable popcount path of the frame-energy
# engine is the one tested.
# Pass 3 — the same suite with SCT_OBS=OFF, the one remaining build
# switch, so the compiled-out observability stubs keep building.
# Pass 4 — ThreadSanitizer over the suites whose threads=1 vs threads=N
# determinism claims rest on real worker threads: the card farm, the
# sca/eh/enc fork sweeps, checkpoint forks, and sim::ParallelRunner.
# Finally every bench runs once through scripts/bench.sh on the pass-1
# build (tiny workload, minimal timing, JSON into a temp dir — proves
# the binaries and the script's ratio tables stay alive, measures
# nothing).
#
# All passes use the presets in CMakePresets.json, so what CI checks
# is exactly what `cmake --preset release` gives a developer.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)

run() {
  echo "==> $*"
  "$@"
}

for preset in release asan-ubsan obs-off; do
  run cmake --preset "$preset" -DSCT_WERROR=ON
  run cmake --build --preset "$preset" --parallel "$jobs"
  run ctest --preset "$preset" --parallel "$jobs"
  # The gating suites also run by label, so a filter or preset change
  # can never silently drop one from a pass (tests/CMakeLists.txt says
  # what each label covers): hybrid TL1/TL2 equivalence (hier),
  # restore-equivalence (ckpt), decoded-block dispatch (iss), the
  # card-farm daemon incl. its SIGTERM drain (serve), the eh, sca and
  # enc threads=1 vs threads=N bit-identity headlines, the Table 1
  # Table 2 and Figure 6 pins (paper), and the cross-layer oracles
  # (equivalence): the power, layer and TL2-event equivalence suites
  # against their reference paths, and the ledger reconcile suite.
  # ctest -L takes a regex, so each label is anchored: a bare "enc"
  # would also select every "equivalence" test.
  for label in hier ckpt iss serve eh sca enc paper equivalence; do
    run ctest --preset "$preset" -L "^${label}\$" --parallel "$jobs"
  done
done

run cmake --preset tsan -DSCT_WERROR=ON
run cmake --build --preset tsan --parallel "$jobs"
for label in serve sca eh enc ckpt; do
  run ctest --preset tsan -L "^${label}\$" --parallel "$jobs"
done
run ctest --preset tsan -R ParallelRunner --parallel "$jobs"

echo "==> bench smoke (tiny workload)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for name in table3 serve eh sca enc; do
  run env SCT_BENCH_TINY=1 SCT_BENCH_ARGS=--benchmark_min_time=0.01 \
    scripts/bench.sh "$name" build "$tmp/$name.json"
done

echo "CI: all passes green"
