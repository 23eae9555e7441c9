#!/usr/bin/env bash
# Hermetic CI: format, build, test — all offline — plus a dependency
# hygiene gate that fails if any non-workspace (non rce-*) dependency
# reappears in a Cargo.toml.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo build --workspace --release --offline =="
cargo build --workspace --release --offline

echo "== cargo test --workspace -q --offline =="
cargo test --workspace -q --offline

echo "== dependency hygiene =="
# Collect every dependency name declared in any Cargo.toml. Anything
# that is not an in-tree rce-* path crate breaks hermeticity.
bad=0
for toml in Cargo.toml crates/*/Cargo.toml; do
    deps=$(awk '
        /^\[(workspace\.)?(dev-|build-)?dependencies\]/ { in_deps = 1; next }
        /^\[/ { in_deps = 0 }
        in_deps && /^[A-Za-z0-9_-]+[ \t]*=/ { split($0, kv, /[ \t=]/); print kv[1] }
    ' "$toml")
    for dep in $deps; do
        case "$dep" in
        rce-*) ;;
        *)
            echo "FAIL: $toml declares non-workspace dependency '$dep'" >&2
            bad=1
            ;;
        esac
    done
done
if [ "$bad" -ne 0 ]; then
    exit 1
fi
echo "ok: all dependencies are in-tree rce-* crates"

echo "== observability smoke (paper trace) =="
# One fully-observed run: must emit a parseable Chrome trace + NDJSON
# log and pass its built-in zero-perturbation check (the binary exits
# nonzero if the obs-on report differs from the obs-off report).
obs_out=$(mktemp -d)
trap 'rm -rf "$obs_out"' EXIT
cargo run -q --release --offline -p rce-bench --bin paper -- \
    trace ping_pong CE+ --cores 4 --scale 1 --out "$obs_out"
for f in trace-ping_pong-ceplus.json trace-ping_pong-ceplus.ndjson; do
    if [ ! -s "$obs_out/$f" ]; then
        echo "FAIL: paper trace did not write $f" >&2
        exit 1
    fi
done
echo "ok: trace artifacts written and zero-perturbation check passed"

echo "== golden reports (paper report vs tests/goldens) =="
# The four seed engine configurations must emit SimReport JSON that is
# byte-identical to the pinned goldens. This is the refactor gate: the
# coherence/detection/metadata layering must never drift the
# simulation. (The small-AIM spill-path goldens are covered by
# tests/golden_reports.rs.)
for engine in MESI CE CE+ ARC; do
    slug=$(printf '%s' "$engine" | sed 's/+/plus/' | tr '[:upper:]' '[:lower:]')
    if ! cargo run -q --release --offline -p rce-bench --bin paper -- \
        report canneal "$engine" --cores 4 --scale 3 --seed 42 |
        diff -q - "tests/goldens/canneal-4c-$slug.json" >/dev/null; then
        echo "FAIL: $engine report drifted from tests/goldens/canneal-4c-$slug.json" >&2
        exit 1
    fi
    echo "ok: $engine report is byte-identical to its golden"
done

echo "== fast-path-disabled goldens (RCE_DISABLE_FASTPATH=1) =="
# The repeat fast path is a pure acceleration: with it forced off,
# the same four configurations must still match the same
# goldens byte for byte, and the forensics pipeline must still attach
# provenance. This is the knob the equivalence property tests exercise
# in-process; here it is checked through the real env-var switch.
for engine in MESI CE CE+ ARC; do
    slug=$(printf '%s' "$engine" | sed 's/+/plus/' | tr '[:upper:]' '[:lower:]')
    if ! RCE_DISABLE_FASTPATH=1 cargo run -q --release --offline -p rce-bench --bin paper -- \
        report canneal "$engine" --cores 4 --scale 3 --seed 42 |
        diff -q - "tests/goldens/canneal-4c-$slug.json" >/dev/null; then
        echo "FAIL: $engine report drifted with the fast path disabled" >&2
        exit 1
    fi
    echo "ok: $engine report is byte-identical with the fast path disabled"
done
out=$(RCE_DISABLE_FASTPATH=1 cargo run -q --release --offline -p rce-bench --bin paper -- \
    explain racy_pair CE+ --cores 4 --scale 1 --seed 42)
if ! printf '%s' "$out" | grep -q "found via:"; then
    echo "FAIL: paper explain printed no provenance record with the fast path disabled" >&2
    exit 1
fi
echo "ok: forensics smoke passes with the fast path disabled"

echo "== simbench replay agreement (cargo test, simbench/) =="
# simbench's replay of the machine loop observes every access in the
# oracle; Machine::run skips the observe loop for fast-path accesses.
# Its test checks the two agree for every REGISTRY variant.
cargo test --release --offline --manifest-path simbench/Cargo.toml
echo "ok: simbench replay agrees with Machine::run"

echo "== bad CLI input (paper report) =="
# Out-of-range --cores and --scale must print usage and exit 2, not
# panic in a workload builder or the directory.
for args in "--cores 0" "--cores 65" "--scale 0"; do
    code=0
    # shellcheck disable=SC2086 # $args is two words on purpose
    cargo run -q --release --offline -p rce-bench --bin paper -- \
        report canneal CE+ $args >/dev/null 2>"$obs_out/stderr.txt" || code=$?
    if [ "$code" -ne 2 ] || grep -q panicked "$obs_out/stderr.txt"; then
        echo "FAIL: paper report canneal CE+ $args exited $code (want 2, no panic)" >&2
        exit 1
    fi
done
echo "ok: bad --cores / --scale print usage and exit 2"

echo "== ablation smoke (paper ablate-aim) =="
# The AIM sensitivity study must run end to end and write R-A7.json
# with both AIM-backed designs in it.
cargo run -q --release --offline -p rce-bench --bin paper -- \
    ablate-aim --cores 4 --scale 1 --out "$obs_out" >/dev/null
if [ ! -s "$obs_out/R-A7.json" ]; then
    echo "FAIL: ablate-aim did not write R-A7.json" >&2
    exit 1
fi
for design in "CE+" "ARC"; do
    if ! grep -q "\"$design\"" "$obs_out/R-A7.json"; then
        echo "FAIL: R-A7.json has no rows for $design" >&2
        exit 1
    fi
done
echo "ok: ablate-aim wrote R-A7.json with CE+ and ARC curves"

echo "== forensics smoke (paper explain) =="
# A conflict-bearing workload must produce at least one provenance
# record naming both endpoints and the detecting metadata path.
for engine in CE CE+ ARC; do
    out=$(cargo run -q --release --offline -p rce-bench --bin paper -- \
        explain racy_pair "$engine" --cores 4 --scale 1 --seed 42)
    if ! printf '%s' "$out" | grep -q "found via:"; then
        echo "FAIL: paper explain racy_pair $engine printed no provenance record" >&2
        exit 1
    fi
    if ! printf '%s' "$out" | grep -q "hottest conflict lines:"; then
        echo "FAIL: paper explain racy_pair $engine printed no heatmap" >&2
        exit 1
    fi
done
echo "ok: paper explain names both endpoints and the detection path"

echo "== report diffing (paper diff) =="
# Self-diff of a pinned golden must be empty and exit 0; an injected
# counter drift must be caught with exit 1.
cargo run -q --release --offline -p rce-bench --bin paper -- \
    diff tests/goldens/canneal-4c-ce.json tests/goldens/canneal-4c-ce.json 2>/dev/null
sed 's/"mem_ops": [0-9]*/"mem_ops": 1/' tests/goldens/canneal-4c-ce.json \
    >"$obs_out/drifted.json"
if cargo run -q --release --offline -p rce-bench --bin paper -- \
    diff tests/goldens/canneal-4c-ce.json "$obs_out/drifted.json" >/dev/null 2>&1; then
    echo "FAIL: paper diff did not flag an injected counter drift" >&2
    exit 1
fi
echo "ok: self-diff is clean, injected drift exits nonzero"

echo "== hot-path gate (paper bench-hot --smoke) =="
# Time the flat hot-path storage against std::collections references
# doing identical work, plus the repeat fast path end to end.
# The binary exits nonzero if the flat raw-access path drops below its
# pinned speedup floor (MIN_SPEEDUP_X) or the fast path drops below
# MIN_FASTPATH_SPEEDUP_X — a throughput regression fails CI even when
# reports stay byte-identical.
if ! cargo run -q --release --offline -p rce-bench --bin paper -- \
    bench-hot --smoke; then
    echo "FAIL: hot-path throughput regressed below the pinned speedup floor" >&2
    exit 1
fi
echo "ok: hot-path storage clears its speedup floor"

echo "== perf trajectory gate (paper trajectory + diff) =="
# Re-run the pinned micro-sweep and compare against the committed
# baseline. The sweep is deterministic; the tolerance only leaves room
# for deliberate, reviewed model changes (which must regenerate
# results/bench_trajectory.json). The hot_path.measured section is wall
# time — machine-dependent — so it is excluded here; its floor is
# enforced by the bench-hot gate above and the exactly-diffed
# hot_path.pinned section.
cargo run -q --release --offline -p rce-bench --bin paper -- \
    trajectory --out "$obs_out"
if ! cargo run -q --release --offline -p rce-bench --bin paper -- \
    diff results/bench_trajectory.json "$obs_out/bench_trajectory.json" \
    --tolerance 2 --ignore hot_path.measured; then
    echo "FAIL: bench trajectory drifted beyond 2% of the committed baseline" >&2
    echo "      (regenerate results/bench_trajectory.json if the change is intended)" >&2
    exit 1
fi
echo "ok: bench trajectory matches the committed baseline"

echo "== ci passed =="
