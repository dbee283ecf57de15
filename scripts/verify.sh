#!/usr/bin/env sh
# Local verification gate: everything compiles (benches, examples, both
# binaries), the full test suite passes, the harness binary actually
# *executes* (quick sweep grid, seconds), the perf smoke confirms
# wall-clock instrumentation and the simulator-core micro-bench run, and
# clippy is clean at warnings-as-errors. Run from anywhere; operates on
# the repo root.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace --all-targets"
cargo build --release --workspace --all-targets

echo "==> cargo test -q"
cargo test -q

echo "==> benchmark package: compiles against these crates, names/units match BENCHMARK.json"
# benchmark/ is a detached workspace the two steps above never build, so
# an API change in crates/* could break it silently. Its tests run one
# smoke pass per workload and check every metric name and unit against
# BENCHMARK.json. (target/bench-package keeps its artifacts under the
# ignored target/ tree.)
CARGO_TARGET_DIR=target/bench-package \
  cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> harness quick (smoke-runs the binary; emits BENCH_sweep.json)"
# (Re)writes the quick-grid perf-trajectory artifact in the repo root;
# the bytes are deterministic, so a dirty BENCH_sweep.json after this
# step means the perf profile changed. To see how (from bash):
#   cargo run --release -p overlap-bench --bin harness -- diff \
#     <(git show HEAD:BENCH_sweep.json) BENCH_sweep.json
# (A full `harness sweep` also writes BENCH_sweep.json by default — pass
# --out, or let this step regenerate the quick baseline afterwards.)
# The one-shot regression gate against the committed baseline is:
#   cargo run --release -p overlap-bench --bin harness -- quick \
#     --out /tmp/q.json --baseline BENCH_sweep.json
cargo run --release -q -p overlap-bench --bin harness -- quick \
  --wall-out target/BENCH_sweep_wall.json
# One --wall-out timing artifact is committed per PR under perf/ — the
# ROADMAP's tracked perf trajectory. Refresh the current PR's file with:
#   cp target/BENCH_sweep_wall.json perf/PR<N>_quick_wall.json

echo "==> compile-cache smoke: quick grid twice, warm run must hit and match bytes"
# The second run exercises the in-process compilation cache (shared
# original programs across models guarantee hits even within one run) and
# must reproduce the cold artifact byte-for-byte — the "reuse without
# divergence" invariant of DESIGN.md §5.
warm_out=$(cargo run --release -q -p overlap-bench --bin harness -- quick \
  --out target/BENCH_quick_warm.json)
echo "$warm_out"
hits=$(echo "$warm_out" | sed -n 's/^compile cache: \([0-9][0-9]*\) hit(s).*/\1/p')
if [ -z "$hits" ] || [ "$hits" -eq 0 ]; then
  echo "compile-cache smoke FAILED: expected >0 compilation-cache hits, got [${hits:-none}]"
  exit 1
fi
cmp BENCH_sweep.json target/BENCH_quick_warm.json || {
  echo "compile-cache smoke FAILED: warm-cache artifact differs from the cold run"
  exit 1
}

echo "==> incremental smoke: --incremental vs the committed artifact reuses rows"
# With no input changes, every baseline row's input_hash matches, nothing
# re-simulates, and the merged artifact is byte-identical to the cold one.
incr_out=$(cargo run --release -q -p overlap-bench --bin harness -- quick \
  --incremental --baseline BENCH_sweep.json --out target/BENCH_quick_incr.json)
echo "$incr_out"
reused=$(echo "$incr_out" | sed -n 's/^incremental vs .*: reused \([0-9][0-9]*\) row(s).*/\1/p')
if [ -z "$reused" ] || [ "$reused" -eq 0 ]; then
  echo "incremental smoke FAILED: expected >0 reused rows against the committed artifact, got [${reused:-none}]"
  exit 1
fi
cmp BENCH_sweep.json target/BENCH_quick_incr.json || {
  echo "incremental smoke FAILED: incremental artifact differs from the committed baseline"
  exit 1
}

echo "==> harness analyze: registry x {orig,prepush} x models must verify clean"
# Static communication-safety verification + type inference over every
# program the pipeline ships or emits. Any diagnostic (unwaited isend,
# in-flight buffer touched, rank-divergent collective, ...) exits 1 here.
cargo run --release -q -p overlap-bench --bin harness -- analyze

echo "==> determinism lints: no wall-clock or unordered iteration in sim paths"
# The simulator's virtual times are byte-reproducible across hosts and
# runs. Two classes of bug quietly break that: reading the host clock
# inside simulation code, and iterating a HashMap (arbitrary order) where
# the order can reach scheduling or output. Keyed HashMap *lookups* are
# fine — files on the allowlist below are audited to only do lookups.
if grep -rn "std::time::Instant\|std::time::SystemTime" \
    crates/clustersim/src crates/interp/src; then
  echo "determinism lint FAILED: host clock read inside simulator/interpreter code"
  exit 1
fi
hashmap_hits=$(grep -rln "HashMap" crates/clustersim/src crates/interp/src \
  | grep -v -e '^crates/clustersim/src/state.rs$' -e '^crates/interp/src/lower.rs$' \
  || true)
if [ -n "$hashmap_hits" ]; then
  echo "determinism lint FAILED: HashMap outside the audited allowlist:"
  echo "$hashmap_hits"
  echo "(use BTreeMap/Vec, or audit the file for lookup-only use and extend the allowlist)"
  exit 1
fi
# Rank execution must never spawn OS threads outside the audited worker
# pool (clustersim/src/pool.rs): both engines — thread-per-rank and the
# resumable state machines — draw every thread from there, which is what
# keeps admission control and the byte-identity argument airtight. Test
# modules (from the first `#[cfg(test)]` down) spawn freely.
spawn_hits=$(find crates/clustersim/src crates/interp/src -name '*.rs' \
    ! -path 'crates/clustersim/src/pool.rs' -print0 \
  | xargs -0 awk '
      FNR == 1 { in_tests = 0 }
      /#\[cfg\(test\)\]/ { in_tests = 1 }
      !in_tests && (/thread::spawn/ || /\.spawn\(/) { print FILENAME ":" FNR ": " $0 }
    ')
if [ -n "$spawn_hits" ]; then
  echo "determinism lint FAILED: thread spawn outside the audited worker pool:"
  echo "$spawn_hits"
  echo "(route the work through clustersim::pool, or audit and extend the allowlist)"
  exit 1
fi

echo "==> scenario-file smoke: quick grid from scenarios/quick.toml"
# The declarative grid must drive the harness to the *byte-identical*
# artifact the compiled-in quick grid produces — the committed
# scenarios/*.toml files are the source of truth for what each preset
# sweeps, so any drift between file and code fails here.
cargo run --release -q -p overlap-bench --bin harness -- quick \
  --grid scenarios/quick.toml --out target/BENCH_quick_from_toml.json
cmp BENCH_sweep.json target/BENCH_quick_from_toml.json || {
  echo "scenario-file smoke FAILED: scenarios/quick.toml artifact differs from the compiled-in quick grid"
  exit 1
}

echo "==> perf smoke: wall-clock fields populated in the timing section"
# The non-normalized artifact must carry the v2 `timing` section with a
# real (nonzero) total — catching a broken stopwatch before it silently
# zeroes the tracked perf trajectory.
grep -q '"timing"' target/BENCH_sweep_wall.json
grep -q '"wall_ms_total"' target/BENCH_sweep_wall.json
if grep -q '"wall_ms_total": 0,' target/BENCH_sweep_wall.json; then
  echo "perf smoke FAILED: wall_ms_total is zero in the --wall-out artifact"
  exit 1
fi

echo "==> wall-clock trajectory: diff consecutive perf/ artifacts"
# The ROADMAP tracks one --wall-out artifact per PR under perf/. Diff the
# two most recent so per-scenario host wall-clock movements are *seen* in
# CI output (informational only — wall clock varies across machines, so
# this step never fails on a slowdown, only on missing/corrupt artifacts).
# "Most recent" = highest PR *number*: extract it and sort numerically,
# because lexicographic filename order breaks at PR 10 (PR10 < PR5).
latest_two_by_pr() {
  sed 's|.*/PR\([0-9][0-9]*\)_quick_wall\.json$|\1 &|' | sort -k 1 -n \
    | awk '{print $2}' | tail -2
}
# Self-check: the selection must survive the PR 10 rollover.
sel=$(printf 'perf/PR2_quick_wall.json\nperf/PR10_quick_wall.json\nperf/PR9_quick_wall.json\n' \
  | latest_two_by_pr | tr '\n' ' ')
if [ "$sel" != "perf/PR9_quick_wall.json perf/PR10_quick_wall.json " ]; then
  echo "perf-trajectory selection FAILED its self-check: picked [$sel]"
  exit 1
fi
latest_two=$(ls perf/PR*_quick_wall.json | latest_two_by_pr)
if [ "$(echo "$latest_two" | wc -l)" -eq 2 ]; then
  # shellcheck disable=SC2086
  cargo run --release -q -p overlap-bench --bin harness -- diff --wall $latest_two
else
  echo "(fewer than two perf/PR*_quick_wall.json artifacts; skipping)"
fi

echo "==> resumable-engine smoke: one np=256 row (scenarios/smoke256.toml)"
# Twice the largest historical rank count, driven by the fixed worker
# pool — seconds at small size. Completing with 0 errors is the gate for
# "np no longer bounded by how many OS threads the host tolerates".
cargo run --release -q -p overlap-bench --bin harness -- sweep \
  --grid scenarios/smoke256.toml --out target/BENCH_smoke256.json

echo "==> model-family smoke: congested + hetero columns (scenarios/smoke-models.toml)"
# One congested and one heterogeneous column at small size, run *twice*:
# the new model families must complete with 0 error rows and — like every
# other column — produce byte-identical artifacts across runs (their link
# and per-rank accounting is per-rank-deterministic, DESIGN.md §2).
cargo run --release -q -p overlap-bench --bin harness -- sweep \
  --grid scenarios/smoke-models.toml --out target/BENCH_smoke_models_a.json
cargo run --release -q -p overlap-bench --bin harness -- sweep \
  --grid scenarios/smoke-models.toml --out target/BENCH_smoke_models_b.json
cmp target/BENCH_smoke_models_a.json target/BENCH_smoke_models_b.json || {
  echo "model-family smoke FAILED: congested/hetero artifact not byte-identical across runs"
  exit 1
}

echo "==> sweep-service smoke: sweepd end-to-end + SIGTERM drain"
# Start the daemon on an ephemeral port, drive it with curl: submit the
# quick grid, poll to done, fetch the artifact, and cmp against the
# committed BENCH_sweep.json — the service invariant is that serving may
# change wall-clock, never a simulated byte. Then pin the worker with a
# multi-second job, SIGTERM mid-queue, and assert the drain: new
# submissions get 503 while the running job finishes, and the process
# exits 0. Before all that, an idle daemon is SIGTERMed on its own.

# Start sweepd in the background with its output in $1 (further arguments
# are passed on); sets sweepd_pid and addr, the address scraped from its
# `listening on` line.
start_sweepd() {
  local log=$1
  shift
  ./target/release/sweepd --addr 127.0.0.1:0 "$@" > "$log" 2>&1 &
  sweepd_pid=$!
  addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's|^listening on http://||p' "$log")
    [ -n "$addr" ] && return 0
    sleep 0.1
  done
  echo "sweep-service smoke FAILED: sweepd never reported its address"
  kill "$sweepd_pid" 2>/dev/null || true
  exit 1
}

# An idle daemon — no job, no connection, its listener blocked in accept —
# must notice SIGTERM and be gone within 2 s.
start_sweepd target/sweepd_idle.log
kill -TERM "$sweepd_pid"
for _ in $(seq 1 20); do
  kill -0 "$sweepd_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$sweepd_pid" 2>/dev/null; then
  echo "sweep-service smoke FAILED: idle sweepd still running 2 s after SIGTERM"
  kill -KILL "$sweepd_pid" 2>/dev/null || true
  exit 1
fi
wait "$sweepd_pid" || {
  echo "sweep-service smoke FAILED: idle sweepd exited nonzero after SIGTERM"
  exit 1
}
grep -q "drained; exiting" target/sweepd_idle.log || {
  echo "sweep-service smoke FAILED: idle sweepd never printed the drain epitaph"
  exit 1
}

start_sweepd target/sweepd.log --queue 4
curl -sf -X POST "http://$addr/jobs" \
  -d '{"grid_file": "scenarios/quick.toml"}' > /dev/null
state=""
for _ in $(seq 1 600); do
  state=$(curl -sf "http://$addr/jobs/1" \
    | sed -n 's/.*"state": "\([a-z]*\)".*/\1/p')
  [ "$state" = "done" ] && break
  sleep 0.1
done
if [ "$state" != "done" ]; then
  echo "sweep-service smoke FAILED: job 1 ended in state [${state:-unknown}]"
  kill "$sweepd_pid" 2>/dev/null || true
  exit 1
fi
curl -sf "http://$addr/jobs/1/artifact" > target/BENCH_served.json
cmp BENCH_sweep.json target/BENCH_served.json || {
  echo "sweep-service smoke FAILED: served artifact differs from the committed BENCH_sweep.json"
  kill "$sweepd_pid" 2>/dev/null || true
  exit 1
}
curl -sf -X POST "http://$addr/jobs" \
  -d '{"grid_file": "scenarios/smoke256.toml"}' > /dev/null
kill -TERM "$sweepd_pid"
sleep 0.3
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/jobs" \
  -d '{"grid_file": "scenarios/quick.toml"}')
if [ "$code" != "503" ]; then
  echo "sweep-service smoke FAILED: expected 503 during drain, got [$code]"
  kill "$sweepd_pid" 2>/dev/null || true
  exit 1
fi
wait "$sweepd_pid" || {
  echo "sweep-service smoke FAILED: sweepd exited nonzero after SIGTERM"
  exit 1
}
grep -q "drained; exiting" target/sweepd.log || {
  echo "sweep-service smoke FAILED: sweepd never printed the drain epitaph"
  exit 1
}

echo "==> perf smoke: simulator-core micro-bench (isend/recv + alltoall)"
cargo bench -p clustersim --bench core_comm

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "verify: OK"
