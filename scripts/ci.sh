#!/usr/bin/env bash
# Hermetic CI: format, lint, build, test — all offline — plus a
# dependency hygiene gate that fails if any non-workspace (non rce-*)
# dependency reappears in a Cargo.toml. The fast-path-off checks run
# in-process under `cargo test`: tests/fastpath_equiv.rs renders the
# conformance matrix's fast-path cells both ways with forensics on
# (the matrix is tests/common/conformance.rs), tests/golden_reports.rs
# renders every golden both ways, and crates/core/src/machine.rs checks
# forensics provenance both ways.
set -euo pipefail
cd "$(dirname "$0")/.."

# The paper command line, built from this tree in release.
paper=(cargo run -q --release --offline -p rce-bench --bin paper --)

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo clippy --release (warnings are errors) =="
# Release builds compile out code gated on debug_assertions, so an item
# only those paths use is dead there; lint that profile too.
cargo clippy --workspace --all-targets --release --offline -- -D warnings

echo "== cargo doc (warnings are errors) =="
# A doc link to a deleted or private item is a warning; fail on it.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

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

echo "== one random-program generator (tests/common/mod.rs) =="
# The root tests draw random programs from tests/common/mod.rs only, so
# the conformance matrix stays the one place that says which program
# runs where. Any other root test file that seeds a SplitMix64 fails.
own_rngs=$(grep -rln 'SplitMix64' tests --include='*.rs' | grep -vx 'tests/common/mod.rs' || true)
if [ -n "$own_rngs" ]; then
    echo "FAIL: root test files seed their own SplitMix64 program stream:" >&2
    echo "$own_rngs" >&2
    exit 1
fi
echo "ok: tests/common/mod.rs is the only root test file with a SplitMix64"

echo "== pure timing models (crates/noc, crates/dram) =="
# The substrate in rce-core owns the run's one event ring and emits the
# NoC and DRAM events itself. Any file of the two timing models that
# names the observability module fails.
obs_users=$(grep -rl 'rce_common::obs' crates/noc/src crates/dram/src || true)
if [ -n "$obs_users" ]; then
    echo "FAIL: timing-model files name rce_common::obs:" >&2
    echo "$obs_users" >&2
    exit 1
fi
echo "ok: crates/noc and crates/dram do not name rce_common::obs"

echo "== library size (information only) =="
# Non-test lines and pub item declarations per crate, and root test
# lines; never fails.
scripts/loc.sh

echo "== observability smoke (paper trace) =="
# One fully-observed run: must emit a parseable Chrome trace + NDJSON
# log and pass its built-in zero-perturbation check (the binary exits
# nonzero if the obs-on report differs from the obs-off report).
obs_out=$(mktemp -d)
trap 'rm -rf "$obs_out"' EXIT
"${paper[@]}" trace ping_pong CE+ --cores 4 --scale 1 --out "$obs_out"
for f in trace-ping_pong-ceplus.json trace-ping_pong-ceplus.ndjson; do
    if [ ! -s "$obs_out/$f" ]; then
        echo "FAIL: paper trace did not write $f" >&2
        exit 1
    fi
done
echo "ok: trace artifacts written and zero-perturbation check passed"

echo "== golden reports (paper report on the workload and on its dumped trace vs tests/goldens) =="
# The four seed engine configurations must emit SimReport JSON that is
# byte-identical to the pinned goldens. This is the refactor gate: the
# coherence/detection/metadata layering must never drift the
# simulation. A dumped program replayed from its file must simulate
# exactly like the workload it was dumped from, so each engine's report
# on the dumped trace matches the same golden. (The small-AIM
# spill-path goldens are covered by tests/golden_reports.rs.)
"${paper[@]}" dump canneal --cores 4 --scale 3 --seed 42 --out "$obs_out/canneal.json" 2>/dev/null
for engine in MESI CE CE+ ARC; do
    slug=$(printf '%s' "$engine" | sed 's/+/plus/' | tr '[:upper:]' '[:lower:]')
    golden="tests/goldens/canneal-4c-$slug.json"
    if ! "${paper[@]}" report canneal "$engine" --cores 4 --scale 3 --seed 42 |
        diff -q - "$golden" >/dev/null; then
        echo "FAIL: $engine report drifted from $golden" >&2
        exit 1
    fi
    if ! "${paper[@]}" report "$obs_out/canneal.json" "$engine" | diff -q - "$golden" >/dev/null; then
        echo "FAIL: $engine replay of a dumped canneal trace drifted from $golden" >&2
        exit 1
    fi
    echo "ok: $engine report and its replay of the dumped trace are byte-identical to $golden"
done

echo "== simbench replay agreement (cargo test, simbench/) =="
# simbench's replay of the machine loop observes every access in the
# oracle; Machine::run skips the observe loop for fast-path accesses.
# Its test checks the two agree for every REGISTRY variant.
cargo test --release --offline --manifest-path simbench/Cargo.toml
echo "ok: simbench replay agrees with Machine::run"

echo "== 32-core byte identity (simbench canneal-ceplus digests) =="
# The goldens are 4-core. At the default seed, simbench's warm-up
# digests four 32-core canneal CE+ reports (~190k exceptions each,
# both lists entry by entry) against simbench/digests.txt; a mismatch
# makes the run incorrect. Its last line must report "correct":true.
sb_last=$(cargo run -q --release --offline --manifest-path simbench/Cargo.toml -- \
    --workload canneal-ceplus --seconds 1 | tail -n 1)
if ! printf '%s' "$sb_last" | grep -q '"correct":true'; then
    echo "FAIL: 32-core canneal CE+ reports drifted from simbench/digests.txt" >&2
    echo "      $sb_last" >&2
    exit 1
fi
echo "ok: four 32-core canneal CE+ reports match their digests"

echo "== bad CLI input (paper) =="
# Out-of-range --cores and --scale, a meaningless diff tolerance, a
# flag paper does not take (diff --ignore, explain --top), a missing or
# non-JSON trace file, a trace file whose header declares
# far more barriers than it has synchronization operations (sized by
# the header, the simulator's tables would take tens of GiB), an
# unwritable output directory, an unknown experiment, ablation,
# workload or engine name, race injection into a one-thread program,
# and a race count whose fresh words run past 2^64 must print a message
# and exit 2, not panic.
expect_exit_2() {
    code=0
    "$@" >/dev/null 2>"$obs_out/stderr.txt" || code=$?
    if [ "$code" -ne 2 ] || grep -q panicked "$obs_out/stderr.txt"; then
        echo "FAIL: $* exited $code (want 2, no panic)" >&2
        exit 1
    fi
}
for args in "--cores 0" "--cores 65" "--scale 0"; do
    # shellcheck disable=SC2086 # $args is two words on purpose
    expect_exit_2 "${paper[@]}" report canneal CE+ $args
done
expect_exit_2 "${paper[@]}" diff tests/goldens/canneal-4c-ce.json \
    tests/goldens/canneal-4c-ce.json --tolerance nan
expect_exit_2 "${paper[@]}" diff tests/goldens/canneal-4c-ce.json \
    tests/goldens/canneal-4c-ce.json --ignore x
expect_exit_2 "${paper[@]}" explain racy_pair CE+ --top 3
echo "not json" >"$obs_out/not-json.txt"
expect_exit_2 "${paper[@]}" report "$obs_out/missing.json" CE+
expect_exit_2 "${paper[@]}" report "$obs_out/not-json.txt" CE+
printf '%s' '{"name":"huge","threads":[[{"Read":{"addr":0,"len":8}}]],"n_locks":0,' \
    '"n_barriers":4294967295,"shared_base":0,"shared_end":64}' >"$obs_out/huge-universe.json"
expect_exit_2 "${paper[@]}" report "$obs_out/huge-universe.json" CE+
expect_exit_2 "${paper[@]}" table1 --out /proc/nope
expect_exit_2 "${paper[@]}" fig-nonesuch
expect_exit_2 "${paper[@]}" ablate-nonesuch
expect_exit_2 "${paper[@]}" report nonesuch CE+
expect_exit_2 "${paper[@]}" report canneal NOPE
expect_exit_2 "${paper[@]}" table3 --cores 1 --scale 1
expect_exit_2 "${paper[@]}" dump canneal --cores 1 --races 2 --out "$obs_out/one.json"
expect_exit_2 "${paper[@]}" report canneal CE+ --cores 1 --races 2
expect_exit_2 "${paper[@]}" report canneal CE+ --races 288230376151711744
echo "ok: bad arguments, flags, names, trace files, output dirs, one-thread and overflowing races exit 2 without a panic"

echo "== early-closing reader (paper report|explain into head -1) =="
# A reader that stops after the first line closes the pipe while paper
# still writes: paper must exit 0 quietly, with no panic or backtrace.
for cmd in report explain; do
    code=0
    "${paper[@]}" "$cmd" canneal CE+ 2>"$obs_out/pipe.err" | head -1 >/dev/null || code=$?
    if [ "$code" -ne 0 ] || grep -qiE "panicked|backtrace" "$obs_out/pipe.err"; then
        cat "$obs_out/pipe.err" >&2
        echo "FAIL: paper $cmd canneal CE+ | head -1 exited $code (want 0, no panic)" >&2
        exit 1
    fi
done
echo "ok: paper report and explain exit 0 when the reader closes the pipe early"

echo "== worker-order independence (paper all and ablations, --jobs 1 vs 2) =="
# Each experiment simulates the runs it lacks in one parallel batch.
# The results it writes and the tables it prints must not depend on how
# many workers ran the batch or in which order they finished.
for jobs in 1 2; do
    mkdir -p "$obs_out/jobs$jobs"
    for cmd in all ablations; do
        "${paper[@]}" "$cmd" --cores 4 --scale 1 --jobs "$jobs" --out "$obs_out/jobs$jobs" \
            >"$obs_out/jobs$jobs/$cmd.txt" 2>"$obs_out/$cmd-jobs$jobs.err"
    done
done
if ! diff -r "$obs_out/jobs1" "$obs_out/jobs2"; then
    echo "FAIL: paper output depends on the number of sweep workers" >&2
    exit 1
fi
echo "ok: paper all and ablations write identical output with 1 and 2 workers"

echo "== committed results (checked paper all + ablations at EXPERIMENTS.md sizes vs results/) =="
# The committed results/R-*.json must be exactly what the EXPERIMENTS.md
# commands produce from this tree. A deliberate model change must
# regenerate results/ in the same change. Release builds compile out
# the model's invariant checks (each ending core's L1 at its region
# boundaries, the whole machine at run end) and wrap silently on
# integer overflow, so paper is built with both turned back on, in its
# own target directory so the plain release build stays cached. Those
# checks only read model state, so this build can fail where the plain
# one passes but never prints other bytes: one comparison covers both.
CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true CARGO_PROFILE_RELEASE_OVERFLOW_CHECKS=true \
    cargo build -q --release --offline -p rce-bench --bin paper --target-dir target/checked
checked=target/checked/release/paper
for cmd in "all --cores 32 --scale 4" "ablations --cores 16 --scale 3"; do
    # shellcheck disable=SC2086 # $cmd is several words on purpose
    if ! "$checked" $cmd --jobs 2 --out "$obs_out/results" >/dev/null 2>"$obs_out/results.err"; then
        cat "$obs_out/results.err" >&2
        echo "FAIL: checked paper $cmd failed" >&2
        exit 1
    fi
done
n=0
for committed in results/R-*.json; do
    if ! "$checked" diff "$committed" "$obs_out/results/$(basename "$committed")" 2>/dev/null; then
        echo "FAIL: $committed differs from a fresh run (regenerate results/ if intended)" >&2
        exit 1
    fi
    n=$((n + 1))
done
if [ "$n" -ne 20 ]; then
    echo "FAIL: expected 20 committed results/R-*.json files, found $n" >&2
    exit 1
fi
echo "ok: all $n committed result files match a fresh checked run exactly"

echo "== headline claims (paper summary on results/) =="
# The claim checker reads the committed results and exits 1 if any of
# the paper's headline claims fails on them.
if ! "${paper[@]}" summary; then
    echo "FAIL: paper summary reports a failed headline claim on results/" >&2
    exit 1
fi
echo "ok: every headline claim passes on the committed results"

echo "== oracle agreement at 64 cores (checked paper table3) =="
# At the widest machine every core owns a bit of the oracle's 64-bit
# word masks. Every detecting engine must still match the oracle on
# every R-T3 workload: a NO in the "all match" column fails CI. The
# checked build from the committed-results step runs it, so the
# scheduler's stale-entry assertion and the model invariants also run
# with the widest ready queue.
"$checked" table3 --cores 64 --scale 1 --out "$obs_out" >"$obs_out/table3.txt"
if grep -qw NO "$obs_out/table3.txt" || ! grep -qw yes "$obs_out/table3.txt"; then
    cat "$obs_out/table3.txt" >&2
    echo "FAIL: an engine disagrees with the oracle at 64 cores" >&2
    exit 1
fi
echo "ok: every engine matches the oracle at 64 cores"

echo "== forensics smoke (paper explain) =="
# A conflict-bearing workload must produce at least one provenance
# record naming both endpoints and the detecting metadata path.
for engine in CE CE+ ARC; do
    out=$("${paper[@]}" explain racy_pair "$engine" --cores 4 --scale 1 --seed 42)
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
"${paper[@]}" diff tests/goldens/canneal-4c-ce.json tests/goldens/canneal-4c-ce.json 2>/dev/null
sed 's/"mem_ops": [0-9]*/"mem_ops": 1/' tests/goldens/canneal-4c-ce.json \
    >"$obs_out/drifted.json"
if "${paper[@]}" diff tests/goldens/canneal-4c-ce.json "$obs_out/drifted.json" >/dev/null 2>&1; then
    echo "FAIL: paper diff did not flag an injected counter drift" >&2
    exit 1
fi
echo "ok: self-diff is clean, injected drift exits nonzero"

echo "== fast-path and forensics gates (paper trajectory) =="
# paper trajectory times two pinned pairs, prints each ratio with its
# bound, and exits nonzero if either ratio is past its bound — a
# throughput regression fails CI even when reports stay byte-identical:
# - the repeat fast path on vs off on a repeat-heavy workload, with a
#   floor (MIN_FASTPATH_SPEEDUP_X);
# - conflict forensics on vs off on a 32-core, scale-4 canneal CE+ run
#   (~190k exceptions), with a ceiling (MAX_FORENSICS_SLOWDOWN_X).
# Wall time varies by machine, so it writes no file to compare.
if ! "${paper[@]}" trajectory; then
    echo "FAIL: paper trajectory failed (fast path below its floor, or forensics above its ceiling?)" >&2
    exit 1
fi
echo "ok: fast path and forensics within their bounds"

echo "== ci passed =="
