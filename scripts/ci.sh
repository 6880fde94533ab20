#!/usr/bin/env bash
# Offline CI for the ODR workspace: build, test, lint, model-check.
# Everything here runs with no network access and no external tools
# beyond the pinned Rust toolchain.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, full workspace) =="
cargo build --release --workspace

echo "== tests (full workspace) =="
cargo test -q --workspace

echo "== odr-check: lint + swap-protocol model checker =="
cargo run --release -q -p odr-check -- --deny-warnings --verbose

echo "== odr-check: own test suite (lexer, items, locks, api, fixtures) =="
cargo test -q -p odr-check

echo "== odr-check: API-surface snapshot =="
# Every public item in the workspace must match the committed
# api-surface.txt byte-for-byte; regenerate deliberately with
# UPDATE_GOLDEN=1 cargo run -p odr-check -- api.
cargo run --release -q -p odr-check -- api --check

echo "== odr-check: call-graph snapshot =="
# The intra-workspace call graph (the base layer for the taint and
# transitive-lock passes) must match the committed callgraph.txt;
# regenerate deliberately with UPDATE_GOLDEN=1 cargo run -p odr-check
# -- callgraph.
cargo run --release -q -p odr-check -- callgraph --check

echo "== odr-check: effect-surface snapshot =="
# The transitive effect surface (allocates/blocks/panics per workspace
# fn, DESIGN.md §15) must match the committed effect-surface.txt;
# regenerate deliberately with UPDATE_GOLDEN=1 cargo run -p odr-check
# -- effects.
cargo run --release -q -p odr-check -- effects --check

echo "== odr-check: hot paths stay effect-free =="
# The hot-root manifest (hotpaths.txt) is enforced by the lint pass
# above; here we pin the stronger contract that no effect/* rule is
# ever suppressed — the hot paths are genuinely clean, not allowlisted.
if grep -E '^[[:space:]]*effect/' odr-check.allow >/dev/null 2>&1; then
    echo "effect/* rules must never be allowlisted (fix the code)" >&2
    exit 1
fi
echo "no effect/* allowlist entries"

echo "== odr-check: byte-determinism differential =="
# The analyzer itself must be deterministic: two runs of the lint pass
# (which now spans the atomics, taint, and graph rule families) and two
# renderings of the API surface, the call graph, and the effect surface
# must be byte-identical.
lint_a="$(mktemp)"; lint_b="$(mktemp)"
api_a="$(mktemp)"; api_b="$(mktemp)"
graph_a="$(mktemp)"; graph_b="$(mktemp)"
eff_a="$(mktemp)"; eff_b="$(mktemp)"
cargo run --release -q -p odr-check -- --lint-only >"$lint_a"
cargo run --release -q -p odr-check -- --lint-only >"$lint_b"
cargo run --release -q -p odr-check -- api >"$api_a"
cargo run --release -q -p odr-check -- api >"$api_b"
cargo run --release -q -p odr-check -- callgraph >"$graph_a"
cargo run --release -q -p odr-check -- callgraph >"$graph_b"
cargo run --release -q -p odr-check -- effects >"$eff_a"
cargo run --release -q -p odr-check -- effects >"$eff_b"
cmp "$lint_a" "$lint_b" || { echo "lint pass is nondeterministic" >&2; exit 1; }
cmp "$api_a" "$api_b" || { echo "api surface is nondeterministic" >&2; exit 1; }
cmp "$graph_a" "$graph_b" || { echo "call graph is nondeterministic" >&2; exit 1; }
cmp "$eff_a" "$eff_b" || { echo "effect surface is nondeterministic" >&2; exit 1; }
rm -f "$lint_a" "$lint_b" "$api_a" "$api_b" "$graph_a" "$graph_b" "$eff_a" "$eff_b"
echo "lint + api + callgraph + effects output byte-identical across runs"

echo "== fleet determinism differential (1 thread vs all cores) =="
# The fleet engine promises byte-identical reports regardless of worker
# count. Exercise that promise end-to-end through the odrsim CLI: same
# fleet, one thread vs every core, outputs must be bit-for-bit equal.
threads="$(nproc 2>/dev/null || echo 8)"
out_serial="$(mktemp)"
out_parallel="$(mktemp)"
trap 'rm -f "$out_serial" "$out_parallel"' EXIT
cargo run --release -q -p odr-bench --bin odrsim -- \
    --benchmark IM --regulation odr --target 60 --duration 5 --seed 42 \
    --sessions 12 --threads 1 >"$out_serial" 2>/dev/null
cargo run --release -q -p odr-bench --bin odrsim -- \
    --benchmark IM --regulation odr --target 60 --duration 5 --seed 42 \
    --sessions 12 --threads "$threads" >"$out_parallel" 2>/dev/null
if ! cmp -s "$out_serial" "$out_parallel"; then
    echo "fleet determinism differential FAILED: 1 thread vs $threads threads differ" >&2
    diff "$out_serial" "$out_parallel" | head -20 >&2
    exit 1
fi
echo "fleet report identical on 1 vs $threads thread(s)"

echo "== fleet tracing differential (capture on vs off) =="
# Enabling observability capture must not change a single byte of the
# rendered fleet report: the counters live in a side field the text
# renderer never touches.
out_traced="$(mktemp)"
trace_file="$(mktemp)"
trap 'rm -f "$out_serial" "$out_parallel" "$out_traced" "$trace_file"' EXIT
cargo run --release -q -p odr-bench --bin odrsim -- \
    --benchmark IM --regulation odr --target 60 --duration 5 --seed 42 \
    --sessions 12 --threads "$threads" \
    --trace-out "$trace_file" --trace-format jsonl >"$out_traced" 2>/dev/null
if ! cmp -s "$out_serial" "$out_traced"; then
    echo "fleet tracing differential FAILED: capture on vs off differ" >&2
    diff "$out_serial" "$out_traced" | head -20 >&2
    exit 1
fi
test -s "$trace_file" || { echo "tracing produced no output" >&2; exit 1; }
echo "fleet report identical with tracing on vs off"

echo "== fleet scaling (64 sessions, 1 thread vs available cores) =="
cargo run --release -q -p odr-bench --bin fleet_scaling

echo "== analytic fidelity differential (full vs analytic, small fleet) =="
# The analytic fast path must track the DES it replaces within the
# tolerances DESIGN.md §14 documents. The aggregate comparison itself
# is pinned by unit/property tests; here we assert the CLI wiring
# end-to-end: same fleet, both fidelities, and the analytic report must
# carry the same session count while agreeing on total power to 5%.
out_full="$(mktemp)"
out_analytic="$(mktemp)"
trap 'rm -f "$out_serial" "$out_parallel" "$out_traced" "$trace_file" "$out_full" "$out_analytic"' EXIT
cargo run --release -q -p odr-bench --bin odrsim -- \
    --benchmark IM --regulation odr --target 60 --duration 5 --seed 42 \
    --sessions 32 --threads "$threads" >"$out_full" 2>/dev/null
cargo run --release -q -p odr-bench --bin odrsim -- \
    --benchmark IM --regulation odr --target 60 --duration 5 --seed 42 \
    --sessions 32 --threads "$threads" --fidelity analytic \
    >"$out_analytic" 2>/dev/null
head -1 "$out_full" | grep -q "sessions=32" || { echo "full fleet header wrong" >&2; exit 1; }
head -1 "$out_analytic" | grep -q "sessions=32" || { echo "analytic fleet header wrong" >&2; exit 1; }
power_full="$(grep -o 'power_w=[0-9.]*' "$out_full" | cut -d= -f2)"
power_analytic="$(grep -o 'power_w=[0-9.]*' "$out_analytic" | cut -d= -f2)"
awk -v a="$power_analytic" -v f="$power_full" 'BEGIN {
    rel = (a - f) / f; if (rel < 0) rel = -rel;
    if (rel >= 0.05) { exit 1 }
}' || {
    echo "analytic differential FAILED: power $power_analytic vs $power_full (>5%)" >&2
    exit 1
}
echo "analytic fleet tracks full DES (power within 5%)"

echo "== analytic smoke (100k sessions through the CLI) =="
# The class-memoized analytic path must push 100k sessions through the
# CLI in one short run — this is the million-session fast path at a
# CI-friendly size (fleet_scaling --fidelity analytic runs the full
# 10^6 with the >= 100x floor).
out_smoke="$(mktemp)"
trap 'rm -f "$out_serial" "$out_parallel" "$out_traced" "$trace_file" "$out_full" "$out_analytic" "$out_smoke"' EXIT
cargo run --release -q -p odr-bench --bin odrsim -- \
    --benchmark IM --regulation odr --target 60 --duration 5 --seed 42 \
    --sessions 100000 --fidelity analytic >"$out_smoke" 2>/dev/null
head -1 "$out_smoke" | grep -q "sessions=100000" || {
    echo "analytic smoke FAILED: wrong session count" >&2
    head -3 "$out_smoke" >&2
    exit 1
}
echo "100k-session analytic fleet ran clean"

echo "== fleet scaling, analytic fidelity (10^6 sessions, >= 100x floor) =="
cargo run --release -q -p odr-bench --bin fleet_scaling -- --fidelity analytic

echo "== cluster determinism differential (1 thread vs all cores) =="
# The cluster scheduler extends the fleet promise: control plane,
# calibration and measured sub-fleets must produce byte-identical
# reports regardless of worker count. Includes a node kill so the
# displacement path is covered too.
out_cluster_serial="$(mktemp)"
out_cluster_parallel="$(mktemp)"
trap 'rm -f "$out_serial" "$out_parallel" "$out_traced" "$trace_file" "$out_cluster_serial" "$out_cluster_parallel"' EXIT
cargo run --release -q -p odr-bench --bin odrsim -- \
    --cluster --nodes 4 --arrival-rate 1.0 --duration 60 --seed 42 \
    --regulation odr --target 60 --kill-node 30:1 \
    --threads 1 >"$out_cluster_serial" 2>/dev/null
cargo run --release -q -p odr-bench --bin odrsim -- \
    --cluster --nodes 4 --arrival-rate 1.0 --duration 60 --seed 42 \
    --regulation odr --target 60 --kill-node 30:1 \
    --threads "$threads" >"$out_cluster_parallel" 2>/dev/null
if ! cmp -s "$out_cluster_serial" "$out_cluster_parallel"; then
    echo "cluster determinism differential FAILED: 1 thread vs $threads threads differ" >&2
    diff "$out_cluster_serial" "$out_cluster_parallel" | head -20 >&2
    exit 1
fi
echo "cluster report identical on 1 vs $threads thread(s)"

echo "== cluster scaling (ODR vs NoReg capacity at equal SLO) =="
cargo run --release -q -p odr-bench --bin cluster_scaling

echo "== serving surface: wire property suite + loopback tests =="
# The wire-format property suite (round-trips, truncation, corruption,
# hostile length prefixes) and the loopback client tests.
cargo test -q -p odr-serve
cargo test -q -p odr-client

echo "== serving surface: loopback smoke (server + 4 clients over TCP) =="
# End-to-end through the odrsim CLI: a real server on 127.0.0.1 serves
# four concurrent replay clients and drains; every process must exit 0
# within a bounded wall time and the server must account for exactly
# the four sessions.
cargo build --release -q -p odr-bench --bin odrsim
serve_addr="127.0.0.1:7411"
serve_log="$(mktemp)"
timeout 120 target/release/odrsim --serve --listen "$serve_addr" \
    --max-sessions 8 --exit-after 4 >"$serve_log" 2>&1 &
serve_pid=$!
sleep 1
client_pids=()
client_logs=()
for i in 1 2 3 4; do
    client_log="$(mktemp)"
    client_logs+=("$client_log")
    timeout 60 target/release/odrsim --connect "$serve_addr" \
        --regulation odr --target 30 --duration 2 --rate 3 --seed "$i" \
        >"$client_log" 2>&1 &
    client_pids+=($!)
done
for pid in "${client_pids[@]}"; do
    wait "$pid" || {
        echo "loopback smoke FAILED: a client exited non-zero" >&2
        cat "${client_logs[@]}" >&2
        exit 1
    }
done
wait "$serve_pid" || {
    echo "loopback smoke FAILED: the server exited non-zero" >&2
    cat "$serve_log" >&2
    exit 1
}
grep -q "admitted 4, rejected 0, departures 4" "$serve_log" || {
    echo "loopback smoke FAILED: wrong admission accounting" >&2
    cat "$serve_log" >&2
    exit 1
}
rm -f "$serve_log" "${client_logs[@]}"
echo "4 loopback clients served and drained clean"

echo "== serving latency (real sockets, 4 concurrent sessions) =="
cargo run --release -q -p odr-bench --bin serve_latency

echo "ci: all green"
