#!/usr/bin/env bash
# Repo hygiene checks, runnable standalone or as the `repo_check` ctest:
#
#   1. clang-format --dry-run -Werror over src/ tests/ bench/ examples/
#      tools/ (skipped with a notice when clang-format is not installed —
#      the build container does not ship it);
#   2. documentation lint (scripts/doclint.sh, also the `repo_doclint`
#      ctest): every relative link and #anchor in the repo's markdown must
#      resolve, and every docs/*.md must be reachable from README.md by
#      following links (needs python3, also gated);
#   3. sanitizer leg: with GW_CHECK_SANITIZE=1 in the environment, builds
#      the whole tree in a separate build-asan/ dir with
#      -DGW_SANITIZE=address (ASan+UBSan) and runs every test binary
#      under it through ctest, except the repo_* tests (repo_check would
#      run this script again from inside itself). UBSAN_OPTIONS=
#      halt_on_error=1 makes a UBSan report fail its test instead of only
#      printing. A new test binary joins the leg by being registered with
#      ctest. Off by default — it is a full extra build — and gated on
#      cmake being available;
#   4. thread-sanitizer leg: with GW_CHECK_TSAN=1, builds runner_test and
#      sim_test in a separate build-tsan/ dir with -DGW_SANITIZE=thread and
#      runs the Monte Carlo runner tests (pool handoff + determinism) plus
#      the sharded-kernel tests (window barriers, cross-shard messages)
#      under TSan. Off by default for the same reason as the ASan leg;
#   5. performance bench export: when build/bench/bench_throughput and
#      build/bench/bench_microbench exist (i.e. the default build has run),
#      runs them and leaves machine-readable results in the repo root as
#      BENCH_throughput.json (schema glacsweb.bench.v1) and
#      BENCH_microbench_raw.json (google-benchmark JSON; BM_KernelPeriodic
#      in it is the delay lanes' dispatch cost, BM_CfAge one day's bit-rot
#      aging of a 2500-file CF card, BM_TraceAppend a season of
#      the paper preset's 13 trace series appended by handle, and
#      BM_SnapshotSave and BM_SnapshotRestore the save and restore of the
#      whatif_fork workload's day-180 seal). Skipped when the binaries are
#      absent; disable explicitly with GW_CHECK_BENCH=0;
#   6. fleet determinism gate: when build/bench/bench_fleet_scale exists,
#      runs the sweep three times — GW_BENCH_THREADS=1, one shard
#      (GW_BENCH_FLEET_SHARDS=1), and the defaults — and byte-diffs the
#      three BENCH_fleet_scale.json exports. Any difference means thread
#      count or partition leaked into the results and fails the check.
#      Leaves the export in the repo root; disabled together with leg 5
#      via GW_CHECK_BENCH=0;
#   7. server load determinism gate: when build/bench/bench_server_load
#      exists, runs the ingest + >1M-query service-core bench twice —
#      GW_BENCH_THREADS=1 and the defaults — and byte-diffs the two
#      BENCH_server_load.json exports. Leaves the export in the repo root;
#      disabled together with leg 5 via GW_CHECK_BENCH=0;
#   8. fork warm-prefix byte-identity gate: when build/bench/
#      bench_fork_warmup exists, runs the branched faulted season four
#      ways — forked from the day-20 snapshot and replayed cold
#      (GW_BENCH_FORK_MODE=cold), each at GW_BENCH_THREADS=1 and the
#      default pool — and byte-diffs the four BENCH_fork_warmup.json
#      exports. Any difference means the snapshot/restore path changed an
#      observable byte and fails the check (docs/SNAPSHOT.md). Leaves the
#      export and the BENCH_fork_warmup.gwsnap container in the repo root;
#      disabled together with leg 5 via GW_CHECK_BENCH=0;
#   9. energy breakdown determinism gate: when build/bench/
#      bench_energy_breakdown exists, runs the threshold × frequency-plan
#      sweep twice — GW_BENCH_THREADS=1 and the defaults — and byte-diffs
#      the two BENCH_energy_breakdown.json exports (docs/ENERGY.md).
#      Leaves the export in the repo root; disabled together with leg 5
#      via GW_CHECK_BENCH=0;
#  10. gwlint (always-on once built — it compiles with the repo): the
#      project's own analyzer (tools/gwlint) over src/ bench/ tests/
#      examples/ tools/ — determinism bans (wall clocks, ambient entropy,
#      getenv), layer-DAG enforcement against tools/gwlint/layers.toml,
#      unordered-container iteration, header hygiene. Rule catalog and
#      suppression policy: docs/STATIC_ANALYSIS.md;
#  11. clang-tidy over the compilation database exported by CMake
#      (build/compile_commands.json, curated checks in .clang-tidy) —
#      gated on clang-tidy being installed, like the clang-format leg;
#  12. native-build leg: with GW_CHECK_NATIVE=1, builds system_test with
#      -O3 -march=native in a separate build-native/ dir and runs the
#      golden whole-world snapshots (trace off and on), the
#      trace-invariance season, the pinned log bytes and the pinned
#      daily-run step times and event counts (GoldenStateTest.*,
#      TraceInvariance.*, LogBytes.*,
#      DailyRun.*), so the pinned constants are shown to hold on a build
#      that may use FMA (the root CMakeLists.txt compiles with
#      -ffp-contract=off). Off by default for the same reason as the
#      sanitizer legs.
#
# Exits non-zero on any real failure; missing tools skip their check.
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

failures=0

# --- 1. formatting --------------------------------------------------------
if command -v clang-format >/dev/null 2>&1; then
  echo "== clang-format --dry-run -Werror (src tests bench examples tools)"
  files=$(find src tests bench examples tools \
            -name '*.h' -o -name '*.cpp' | sort)
  if ! clang-format --dry-run -Werror $files; then
    echo "FAIL: formatting (run clang-format -i on the files above)"
    failures=$((failures + 1))
  else
    echo "ok: $(echo "$files" | wc -l) files formatted"
  fi
else
  echo "skip: clang-format not installed"
fi

# --- 2. doclint (links, anchors, reachability) ----------------------------
echo "== doclint (scripts/doclint.sh: links, anchors, README reachability)"
if ! scripts/doclint.sh; then
  echo "FAIL: documentation lint"
  failures=$((failures + 1))
fi

# --- 3. sanitizer soak (opt-in: GW_CHECK_SANITIZE=1) ----------------------
if [ "${GW_CHECK_SANITIZE:-0}" = "1" ]; then
  if command -v cmake >/dev/null 2>&1; then
    echo "== ASan+UBSan: every test binary (build-asan/)"
    if cmake -B build-asan -S . -DGW_SANITIZE=address >/dev/null &&
       cmake --build build-asan -j4 >/dev/null &&
       UBSAN_OPTIONS=halt_on_error=1 ctest --test-dir build-asan \
         -E '^repo_' -j4 --output-on-failure; then
      echo "ok: every test clean under ASan+UBSan"
    else
      echo "FAIL: a test failed or reported under ASan+UBSan"
      failures=$((failures + 1))
    fi
  else
    echo "skip: cmake not installed"
  fi
else
  echo "skip: sanitizer soak (set GW_CHECK_SANITIZE=1 to enable)"
fi

# --- 4. TSan runner leg (opt-in: GW_CHECK_TSAN=1) -------------------------
if [ "${GW_CHECK_TSAN:-0}" = "1" ]; then
  if command -v cmake >/dev/null 2>&1; then
    echo "== TSan runner + sharded kernel tests (build-tsan/)"
    if cmake -B build-tsan -S . -DGW_SANITIZE=thread >/dev/null &&
       cmake --build build-tsan --target runner_test sim_test -j4 \
         >/dev/null &&
       ./build-tsan/tests/runner_test &&
       ./build-tsan/tests/sim_test --gtest_filter='Sharded*'; then
      echo "ok: runner pool + sharded kernel clean under TSan"
    else
      echo "FAIL: TSan runner/sharded tests"
      failures=$((failures + 1))
    fi
  else
    echo "skip: cmake not installed"
  fi
else
  echo "skip: TSan runner tests (set GW_CHECK_TSAN=1 to enable)"
fi

# --- 5. performance bench export ------------------------------------------
if [ "${GW_CHECK_BENCH:-1}" = "1" ]; then
  if [ -x build/bench/bench_throughput ] &&
     [ -x build/bench/bench_microbench ]; then
    echo "== throughput + microbench export (BENCH_*.json in repo root)"
    if ./build/bench/bench_throughput >/dev/null &&
       ./build/bench/bench_microbench \
         --benchmark_format=json >BENCH_microbench_raw.json; then
      echo "ok: wrote BENCH_throughput.json and BENCH_microbench_raw.json"
    else
      echo "FAIL: bench export"
      failures=$((failures + 1))
    fi
  else
    echo "skip: bench binaries not built (build the default tree first)"
  fi
else
  echo "skip: bench export (GW_CHECK_BENCH=0)"
fi

# --- 6. fleet determinism gate --------------------------------------------
if [ "${GW_CHECK_BENCH:-1}" = "1" ]; then
  if [ -x build/bench/bench_fleet_scale ]; then
    echo "== fleet scale sweep: 1 thread / 1 shard / defaults (byte-diff gate)"
    if GW_BENCH_THREADS=1 ./build/bench/bench_fleet_scale >/dev/null &&
       mv BENCH_fleet_scale.json BENCH_fleet_scale.1thread.json &&
       GW_BENCH_FLEET_SHARDS=1 ./build/bench/bench_fleet_scale >/dev/null &&
       mv BENCH_fleet_scale.json BENCH_fleet_scale.1shard.json &&
       ./build/bench/bench_fleet_scale >/dev/null &&
       cmp -s BENCH_fleet_scale.json BENCH_fleet_scale.1thread.json &&
       cmp -s BENCH_fleet_scale.json BENCH_fleet_scale.1shard.json; then
      rm -f BENCH_fleet_scale.1thread.json BENCH_fleet_scale.1shard.json
      echo "ok: BENCH_fleet_scale.json byte-identical at 1 vs N threads" \
           "and 1 vs N shards"
    else
      echo "FAIL: fleet sweep exports differ across thread or shard counts" \
           "(compare BENCH_fleet_scale.json vs BENCH_fleet_scale.1thread.json" \
           "/ BENCH_fleet_scale.1shard.json)"
      failures=$((failures + 1))
    fi
  else
    echo "skip: bench_fleet_scale not built (build the default tree first)"
  fi
else
  echo "skip: fleet determinism gate (GW_CHECK_BENCH=0)"
fi

# --- 7. server load determinism gate ---------------------------------------
if [ "${GW_CHECK_BENCH:-1}" = "1" ]; then
  if [ -x build/bench/bench_server_load ]; then
    echo "== server load bench: 1 thread vs defaults (byte-diff gate)"
    if GW_BENCH_THREADS=1 ./build/bench/bench_server_load >/dev/null &&
       mv BENCH_server_load.json BENCH_server_load.1thread.json &&
       ./build/bench/bench_server_load >/dev/null &&
       cmp -s BENCH_server_load.json BENCH_server_load.1thread.json; then
      rm -f BENCH_server_load.1thread.json
      echo "ok: BENCH_server_load.json byte-identical at 1 vs N threads"
    else
      echo "FAIL: server load export differs across thread counts" \
           "(compare BENCH_server_load.json vs BENCH_server_load.1thread.json)"
      failures=$((failures + 1))
    fi
  else
    echo "skip: bench_server_load not built (build the default tree first)"
  fi
else
  echo "skip: server load determinism gate (GW_CHECK_BENCH=0)"
fi

# --- 8. fork warm-prefix byte-identity gate --------------------------------
if [ "${GW_CHECK_BENCH:-1}" = "1" ]; then
  if [ -x build/bench/bench_fork_warmup ]; then
    echo "== fork warmup: fork vs cold replay, 1 thread vs defaults (byte-diff gate)"
    if GW_BENCH_FORK_MODE=cold GW_BENCH_THREADS=1 \
         ./build/bench/bench_fork_warmup >/dev/null &&
       mv BENCH_fork_warmup.json BENCH_fork_warmup.cold1.json &&
       GW_BENCH_FORK_MODE=cold ./build/bench/bench_fork_warmup >/dev/null &&
       mv BENCH_fork_warmup.json BENCH_fork_warmup.cold.json &&
       GW_BENCH_THREADS=1 ./build/bench/bench_fork_warmup >/dev/null &&
       mv BENCH_fork_warmup.json BENCH_fork_warmup.fork1.json &&
       ./build/bench/bench_fork_warmup >/dev/null &&
       cmp -s BENCH_fork_warmup.json BENCH_fork_warmup.cold1.json &&
       cmp -s BENCH_fork_warmup.json BENCH_fork_warmup.cold.json &&
       cmp -s BENCH_fork_warmup.json BENCH_fork_warmup.fork1.json; then
      rm -f BENCH_fork_warmup.cold1.json BENCH_fork_warmup.cold.json \
            BENCH_fork_warmup.fork1.json
      echo "ok: BENCH_fork_warmup.json byte-identical forked vs cold," \
           "1 vs N threads"
    else
      echo "FAIL: fork-resumed season differs from cold replay (compare" \
           "BENCH_fork_warmup.json vs BENCH_fork_warmup.cold.json /" \
           "BENCH_fork_warmup.cold1.json / BENCH_fork_warmup.fork1.json;" \
           "docs/SNAPSHOT.md)"
      failures=$((failures + 1))
    fi
  else
    echo "skip: bench_fork_warmup not built (build the default tree first)"
  fi
else
  echo "skip: fork warm-prefix gate (GW_CHECK_BENCH=0)"
fi

# --- 9. energy breakdown determinism gate ----------------------------------
if [ "${GW_CHECK_BENCH:-1}" = "1" ]; then
  if [ -x build/bench/bench_energy_breakdown ]; then
    echo "== energy breakdown sweep: 1 thread vs defaults (byte-diff gate)"
    if GW_BENCH_THREADS=1 ./build/bench/bench_energy_breakdown >/dev/null &&
       mv BENCH_energy_breakdown.json BENCH_energy_breakdown.1thread.json &&
       ./build/bench/bench_energy_breakdown >/dev/null &&
       cmp -s BENCH_energy_breakdown.json BENCH_energy_breakdown.1thread.json; then
      rm -f BENCH_energy_breakdown.1thread.json
      echo "ok: BENCH_energy_breakdown.json byte-identical at 1 vs N threads"
    else
      echo "FAIL: energy breakdown export differs across thread counts" \
           "(compare BENCH_energy_breakdown.json vs" \
           "BENCH_energy_breakdown.1thread.json; docs/ENERGY.md)"
      failures=$((failures + 1))
    fi
  else
    echo "skip: bench_energy_breakdown not built (build the default tree first)"
  fi
else
  echo "skip: energy breakdown gate (GW_CHECK_BENCH=0)"
fi

# --- 10. gwlint ------------------------------------------------------------
if [ -x build/tools/gwlint ]; then
  echo "== gwlint (determinism + layering + hygiene + semantic passes)"
  # Baselined run: fails on fresh findings AND on stale baseline entries,
  # so tools/gwlint/baseline.txt can only ever shrink.
  if ./build/tools/gwlint --root . --config tools/gwlint/layers.toml \
       --baseline tools/gwlint/baseline.txt \
       src bench tests examples tools; then
    echo "ok: gwlint clean"
  else
    echo "FAIL: gwlint (see diagnostics above; docs/STATIC_ANALYSIS.md" \
         "for the rule catalog, baseline workflow and suppression policy)"
    failures=$((failures + 1))
  fi
  # Determinism gate: two JSON runs must be byte-identical — the analyzer
  # is held to the same contract as the exports it polices.
  ./build/tools/gwlint --root . --config tools/gwlint/layers.toml \
    --baseline tools/gwlint/baseline.txt --format=json \
    src bench tests examples tools > build/gwlint_run_a.json || true
  ./build/tools/gwlint --root . --config tools/gwlint/layers.toml \
    --baseline tools/gwlint/baseline.txt --format=json \
    src bench tests examples tools > build/gwlint_run_b.json || true
  if cmp -s build/gwlint_run_a.json build/gwlint_run_b.json; then
    echo "ok: gwlint JSON byte-identical across runs"
  else
    echo "FAIL: gwlint JSON output differs between two identical runs"
    failures=$((failures + 1))
  fi
else
  echo "skip: gwlint not built (build the default tree first)"
fi

# --- 11. clang-tidy --------------------------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
  if [ -f build/compile_commands.json ]; then
    echo "== clang-tidy (curated checks from .clang-tidy, src/ TUs)"
    tidy_files=$(find src -name '*.cpp' | sort)
    if clang-tidy -p build --quiet $tidy_files; then
      echo "ok: clang-tidy clean"
    else
      echo "FAIL: clang-tidy"
      failures=$((failures + 1))
    fi
  else
    echo "skip: build/compile_commands.json missing (configure the build)"
  fi
else
  echo "skip: clang-tidy not installed"
fi

# --- 12. native build (opt-in: GW_CHECK_NATIVE=1) ---------------------------
if [ "${GW_CHECK_NATIVE:-0}" = "1" ]; then
  if command -v cmake >/dev/null 2>&1; then
    echo "== -O3 -march=native golden snapshot, trace invariance," \
      "log bytes, daily run (build-native/)"
    pinned='GoldenStateTest.*:TraceInvariance.*:LogBytes.*:DailyRun.*'
    if cmake -B build-native -S . -DCMAKE_BUILD_TYPE=Release \
         -DCMAKE_CXX_FLAGS="-O3 -march=native" >/dev/null &&
       cmake --build build-native --target system_test -j4 >/dev/null &&
       ./build-native/tests/system_test --gtest_filter="$pinned"; then
      echo "ok: pinned constants hold on a -march=native build"
    else
      echo "FAIL: native build pinned constants (see the failing test)"
      failures=$((failures + 1))
    fi
  else
    echo "skip: cmake not installed"
  fi
else
  echo "skip: native build (set GW_CHECK_NATIVE=1 to enable)"
fi

if [ "$failures" -ne 0 ]; then
  echo "check.sh: $failures check(s) failed"
  exit 1
fi
echo "check.sh: all checks passed"
