#!/usr/bin/env bash
# Full verification: offline release build, the whole test suite
# (which builds every target, examples included), a paper-table gate
# (EXPERIMENTS.md's three documented commands rerun cold, byte-identical
# to the committed results/sim_experiments.txt,
# results/contiguity_and_ablation.txt and results/extensions.txt), a
# quick 4-core SMP smoke run (one aged machine per sweep),
# a fault-injection pressure smoke (sweep plus oracle fuzz under a
# seeded fault plan), a crash-recovery smoke (kill a sweep
# mid-run, --resume, diff against an uninterrupted reference), a
# snapshot-cache smoke (a cold and a warm smoke sweep, each
# byte-identical to the committed results/smoke_sweep.csv, with exact
# preparation and aging counts, leaving the snapshot files of the
# committed results/smoke_snapshots.sha256), a shared-aging gate (a
# cold one-benchmark `grid` ages 4 machines for its 12 scenarios, at
# two jobs and at one, with the same tables), a
# serve smoke (resident server + load generator, with a
# served-vs-direct byte-identity check),
# a chaos smoke (the seeded network-fault soak; every verdict in
# BENCH_chaos.json must hold),
# a storage-torture smoke (seeded I/O fault schedules x simulated
# power cuts over the durability layers; every verdict in
# BENCH_torture.json must hold and no tmp litter may survive),
# a storage-fault crash smoke (kill a sweep mid-run with the I/O fault
# plan armed — ENOSPC, torn renames, failed fsyncs — then a clean
# --resume must still be byte-identical),
# and an MM-policy smoke (the policy sweep on a small grid, a
# `--policy default` byte-identity diff, and policy-counter gates).
# The SMP, fault-injection and policy smokes must each write their
# BENCH_*.json byte-identical to the committed file under results/.
# Every smoke runs in a scratch directory and leaves results/ as it
# found it: the serve, chaos and torture smokes gate the files they
# write there (their timings and arguments differ from the committed
# records).
#
# No stage compares host time with a committed number: speed is judged
# only by interleaved parent/change runs of the benchmark
# (benchmark/README.md, "Comparing two commits").
#
# With --check, a differential-oracle fuzz stage runs last:
# `repro --check` interleaves kernel events (compaction, THP
# split/puncture, munmap, reclaim, context switches) with translation
# streams across every TLB configuration and fails on any stale-entry
# or coalescing-invariant violation. Fixed seed budget, deterministic
# at any --jobs width.
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_CHECK=0
for arg in "$@"; do
    case "$arg" in
        --check) RUN_CHECK=1 ;;
        *) echo "usage: verify.sh [--check]" >&2; exit 2 ;;
    esac
done

echo "== cargo build --release (offline) =="
cargo build --release

echo "== cargo test =="
cargo test -q

# The benchmark imports colt-core by name (serve::json, the artifact
# writers, Journal, ServeConfig): a rename there fails here, not at the
# next benchmark run.
echo "== cargo test (benchmark/) =="
cargo test -q --offline --manifest-path benchmark/Cargo.toml

CRASH_DIR=$(mktemp -d)
IOCRASH_DIR=$(mktemp -d)
CACHE_DIR=$(mktemp -d)
SERVE_DIR=$(mktemp -d)
POLICY_DIR=$(mktemp -d)
CHAOS_DIR=$(mktemp -d)
SMP_DIR=$(mktemp -d)
FAULT_DIR=$(mktemp -d)
TORTURE_DIR=$(mktemp -d)
PAPER_DIR=$(mktemp -d)
AGING_DIR=$(mktemp -d)
trap 'rm -rf "$CRASH_DIR" "$IOCRASH_DIR" "$CACHE_DIR" "$SERVE_DIR" "$POLICY_DIR" "$CHAOS_DIR" "$SMP_DIR" "$FAULT_DIR" "$TORTURE_DIR" "$PAPER_DIR" "$AGING_DIR"' EXIT
REPRO="$PWD/target/release/repro"

# The SMP, fault-injection and policy smokes each run cold in a scratch
# directory, and the BENCH_*.json they write must equal the committed
# results/ file byte for byte (none holds a timing, and each is the same
# at any --jobs width). To regenerate one on purpose, rerun its smoke's
# command from the repository root and say so in CHANGES.md.
same_as_committed() {
    if ! cmp -s "results/$1" "$2/results/$1"; then
        echo "FAIL: $1 from the smoke run differs from the committed results/$1" >&2
        diff "results/$1" "$2/results/$1" >&2 || true
        exit 1
    fi
}

# The first value of a numeric member in a result file.
json_field() {
    grep -o "\"$1\": [0-9.]*" "$2" | head -n1 | awk '{print $2}'
}

# Paper-table gate: EXPERIMENTS.md's three documented commands, rerun
# cold in a scratch directory. Their tables (everything above the timing
# footer, "== Sweep throughput") must equal the committed
# results/sim_experiments.txt (Table 1, Figs 7-21),
# results/contiguity_and_ablation.txt (the ablations) and
# results/extensions.txt (virtualization, related work, context
# switches, multiprogramming) byte for byte, so every number
# EXPERIMENTS.md quotes is what this tree computes. To regenerate them
# on purpose, rerun these commands from the repository root with the
# footer dropped and say so in CHANGES.md.
PAPER_TABLE_ARGS=(--jobs 2 --no-snapshot-cache --accesses 250000
                  table1 fig7-9 fig10-12 fig13-15 fig16-17 fig18 fig19 fig20 fig21)
ABLATION_ARGS=(--jobs 2 --no-snapshot-cache --accesses 60000 ablation)
EXTENSION_ARGS=(--jobs 2 --no-snapshot-cache --accesses 250000 virt related ctxswitch multiprog)
echo "== paper-table gate: repro ${PAPER_TABLE_ARGS[*]}; repro ${ABLATION_ARGS[*]};" \
     "repro ${EXTENSION_ARGS[*]} =="
(cd "$PAPER_DIR" && "$REPRO" "${PAPER_TABLE_ARGS[@]}" \
    | sed '/^== Sweep throughput/,$d' > sim_experiments.txt)
(cd "$PAPER_DIR" && "$REPRO" "${ABLATION_ARGS[@]}" \
    | sed '/^== Sweep throughput/,$d' > contiguity_and_ablation.txt)
(cd "$PAPER_DIR" && "$REPRO" "${EXTENSION_ARGS[@]}" \
    | sed '/^== Sweep throughput/,$d' > extensions.txt)
for f in sim_experiments.txt contiguity_and_ablation.txt extensions.txt; do
    if ! cmp -s "results/$f" "$PAPER_DIR/$f"; then
        echo "FAIL: the documented command's tables differ from the committed results/$f" >&2
        diff "results/$f" "$PAPER_DIR/$f" >&2 || true
        exit 1
    fi
done
echo "paper-table gate passed (all three committed tables reproduced byte for byte)"

# SMP smoke: a quick 4-core mix + core-count sweep.
SMP_ARGS=(--quick --cores 4 --jobs "$(nproc)" smp_mix smp_scaling)
echo "== SMP smoke: repro ${SMP_ARGS[*]} =="
(cd "$SMP_DIR" && "$REPRO" "${SMP_ARGS[@]}" > /dev/null)
if [[ ! -f "$SMP_DIR/results/BENCH_smp.json" ]]; then
    echo "FAIL: SMP smoke did not write results/BENCH_smp.json" >&2
    exit 1
fi
if ! grep -q '"mode": "tagged"' "$SMP_DIR/results/BENCH_smp.json"; then
    echo "FAIL: results/BENCH_smp.json is missing tagged-mode rows" >&2
    exit 1
fi
same_as_committed BENCH_smp.json "$SMP_DIR"
# smp_mix and smp_scaling are a sweep each, and every cell of both is a
# machine cell of the default scenario: each sweep ages that machine
# once, and the cells load their mixes on copies of it.
smp_aged=$(json_field machines_aged "$SMP_DIR/results/BENCH_sweep.json")
if [[ "$smp_aged" != "2" ]]; then
    echo "FAIL: the SMP smoke aged ${smp_aged:-no} machine(s), expected 2 (one per sweep)" >&2
    exit 1
fi

# Fault-injection smoke: a quick pressure sweep with a seeded fault
# plan. Every cell must complete (panic isolation reports failures in
# the json instead of aborting the sweep, and a non-empty failure list
# exits nonzero), injection must actually fire, and THP base-page
# fallback must engage. Also fuzzes the translation oracle with the
# same plan armed.
FAULT_ARGS=(--quick --jobs "$(nproc)" --faults rate=0.05,window=0,seed=7 pressure)
echo "== fault-injection smoke: repro ${FAULT_ARGS[*]} =="
(cd "$FAULT_DIR" && "$REPRO" "${FAULT_ARGS[@]}" > /dev/null)
FAULT_JSON="$FAULT_DIR/results/BENCH_pressure.json"
if [[ ! -f "$FAULT_JSON" ]]; then
    echo "FAIL: pressure smoke did not write results/BENCH_pressure.json" >&2
    exit 1
fi
if ! grep -q '"failures": \[\]' "$FAULT_JSON"; then
    echo "FAIL: results/BENCH_pressure.json reports failed sweep cells" >&2
    exit 1
fi
for counter in faults_injected thp_fallbacks; do
    if ! grep -o "\"$counter\": [0-9]*" "$FAULT_JSON" \
            | awk '{ sum += $2 } END { exit !(sum > 0) }'; then
        echo "FAIL: fault-injection smoke never incremented $counter" >&2
        exit 1
    fi
done
same_as_committed BENCH_pressure.json "$FAULT_DIR"
# With --cores N the SMP leg runs in the single-core grid's sweep and
# loads its mix on copies of the default machine the clean cells share:
# the three distinct machines (clean, half rate, full rate) are aged
# once each. Two sweeps read 4.
FAULT_SMP_ARGS=(--quick --jobs "$(nproc)" --cores 2 --bench Gobmk
                --faults rate=0.05,window=0,seed=7 pressure)
echo "== fault-injection SMP leg: repro ${FAULT_SMP_ARGS[*]} =="
mkdir "$FAULT_DIR/smp"
(cd "$FAULT_DIR/smp" && "$REPRO" "${FAULT_SMP_ARGS[@]}" > /dev/null)
if ! grep -q '"failures": \[\]' "$FAULT_DIR/smp/results/BENCH_pressure.json"; then
    echo "FAIL: the pressure SMP-leg smoke reports failed sweep cells" >&2
    exit 1
fi
pressure_aged=$(json_field machines_aged "$FAULT_DIR/smp/results/BENCH_sweep.json")
if [[ "$pressure_aged" != "3" ]]; then
    echo "FAIL: the pressure SMP-leg smoke aged ${pressure_aged:-no} machine(s), expected 3 (one per distinct machine)" >&2
    exit 1
fi
echo "== fault-injection oracle fuzz: repro pressure --check =="
./target/release/repro pressure --check --seeds 2 --events 120 \
    --jobs "$(nproc)" --faults rate=0.05,window=0,seed=7

# MM-policy smoke: a small policy-sweep grid (every shipped policy x
# one benchmark x the checker's 8 TLB configs), plus the byte-identity
# contract: `--policy default` must be a byte-level no-op on a headline
# table, and every non-default policy must actually exercise its hooks
# (nonzero policy-decision counters in the summaries).
POLICY_ARGS=(--quick --bench Gobmk --jobs "$(nproc)" policy)
echo "== policy smoke: repro ${POLICY_ARGS[*]} =="
(cd "$POLICY_DIR" && "$REPRO" "${POLICY_ARGS[@]}" > /dev/null)
POLICY_JSON="$POLICY_DIR/results/BENCH_policy.json"
if [[ ! -f "$POLICY_JSON" ]]; then
    echo "FAIL: policy smoke did not write results/BENCH_policy.json" >&2
    exit 1
fi
if ! grep -q '"failures": \[\]' "$POLICY_JSON"; then
    echo "FAIL: results/BENCH_policy.json reports failed sweep cells" >&2
    exit 1
fi
for pol in greedy_contig adversarial no_thp defer_thp; do
    if ! grep "\"policy\": \"$pol\"" "$POLICY_JSON" \
            | grep -o '"decisions": [0-9]*' \
            | awk '{ sum += $2 } END { exit !(sum > 0) }'; then
        echo "FAIL: policy smoke shows zero policy decisions under $pol" >&2
        exit 1
    fi
done
# The policy-dependence spread the experiment exists to measure:
# greedy_contig must hand the TLB at least as much contiguity as the
# stock kernel, and adversarial strictly less.
summary_contig() {
    grep "\"policy\": \"$1\"" "$POLICY_JSON" \
        | grep -o '"avg_contiguity": [0-9.]*' | head -n1 | awk '{print $2}'
}
if ! awk -v g="$(summary_contig greedy_contig)" -v d="$(summary_contig default)" \
        -v a="$(summary_contig adversarial)" 'BEGIN { exit !(g >= d && d > a) }'; then
    echo "FAIL: policy contiguity spread broken (greedy=$(summary_contig greedy_contig) default=$(summary_contig default) adversarial=$(summary_contig adversarial))" >&2
    exit 1
fi
same_as_committed BENCH_policy.json "$POLICY_DIR"
(cd "$POLICY_DIR" && "$REPRO" --quick --bench Gobmk,Bzip2 fig18 --csv > default_implicit.csv)
(cd "$POLICY_DIR" && "$REPRO" --quick --bench Gobmk,Bzip2 --policy default fig18 --csv > default_explicit.csv)
if ! cmp -s "$POLICY_DIR/default_implicit.csv" "$POLICY_DIR/default_explicit.csv"; then
    echo "FAIL: --policy default changed headline-table bytes" >&2
    exit 1
fi
echo "policy smoke passed (5 policies swept, default byte-identical, contiguity spread holds)"

# Crash-recovery smoke: run a pressure sweep in a scratch directory,
# kill it mid-sweep (COLT_CRASH_AFTER_CELLS aborts right after the k-th
# journal fsync — a SIGKILL-equivalent death), then finish it with
# --resume. The resumed run must leave BENCH_pressure.json and the CSV
# output byte-identical to an uninterrupted reference run, with exactly
# the k fsynced journal records surviving the crash and exactly those k
# cells reported (on stderr) as replayed.
CRASH_ARGS=(--quick --bench Sjeng --faults rate=0.3,window=50,seed=11
            --jobs "$(nproc)" pressure --csv)
echo "== crash-recovery smoke: kill mid-sweep, then --resume =="
(cd "$CRASH_DIR" && "$REPRO" "${CRASH_ARGS[@]}" > ref.csv)
cp "$CRASH_DIR/results/BENCH_pressure.json" "$CRASH_DIR/ref_pressure.json"
rm -rf "$CRASH_DIR/results"
if (cd "$CRASH_DIR" && COLT_CRASH_AFTER_CELLS=5 "$REPRO" "${CRASH_ARGS[@]}" \
        > crash.csv 2> crash.err); then
    echo "FAIL: crash injection did not kill the sweep" >&2
    exit 1
fi
crash_lines=$(wc -l < "$CRASH_DIR/results/journal/pressure.jsonl")
if [[ "$crash_lines" -ne 5 ]]; then
    echo "FAIL: expected 5 fsynced journal records after the crash, got $crash_lines" >&2
    exit 1
fi
(cd "$CRASH_DIR" && "$REPRO" "${CRASH_ARGS[@]}" --resume > resume.csv 2> resume.err)
if ! grep -q "^resume(pressure): 5 cell(s) replayed " "$CRASH_DIR/resume.err"; then
    echo "FAIL: the resumed run must report exactly the 5 journaled cells as replayed:" >&2
    cat "$CRASH_DIR/resume.err" >&2
    exit 1
fi
if ! cmp -s "$CRASH_DIR/ref_pressure.json" "$CRASH_DIR/results/BENCH_pressure.json"; then
    echo "FAIL: resumed BENCH_pressure.json differs from the uninterrupted run" >&2
    exit 1
fi
if ! cmp -s "$CRASH_DIR/ref.csv" "$CRASH_DIR/resume.csv"; then
    echo "FAIL: resumed CSV output differs from the uninterrupted run" >&2
    exit 1
fi
echo "crash-recovery smoke passed (5 journaled cells survived, resume byte-identical)"

# Storage-fault crash smoke: the same kill-then-resume, but with the
# seeded I/O fault plan armed during the doomed run — ENOSPC on
# writes, torn renames, failed and lying fsyncs, short writes. Journal
# appends that fail after retries only cost that cell its
# resumability (the resumed run recomputes it); corrupt journal lines
# left by torn writes are quarantined on re-open, never replayed. A
# clean --resume must still reproduce BENCH_pressure.json and the CSV
# byte-identically against the uninterrupted, unfaulted reference
# captured above. The exact journal line count is NOT gated here:
# under injected faults, retried appends legitimately leave extra
# (quarantined) partial lines.
echo "== storage-fault crash smoke: kill under --io-faults, then --resume =="
if (cd "$IOCRASH_DIR" && COLT_CRASH_AFTER_CELLS=5 "$REPRO" "${CRASH_ARGS[@]}" \
        --io-faults rate=0.1,window=0,seed=23 > crash.csv 2> crash.err); then
    echo "FAIL: crash injection did not kill the faulted sweep" >&2
    exit 1
fi
if ! grep -q 'io-faults armed' "$IOCRASH_DIR/crash.err"; then
    echo "FAIL: faulted crash run never armed the I/O fault plan" >&2
    cat "$IOCRASH_DIR/crash.err" >&2
    exit 1
fi
(cd "$IOCRASH_DIR" && "$REPRO" "${CRASH_ARGS[@]}" --resume > resume.csv)
if ! cmp -s "$CRASH_DIR/ref_pressure.json" "$IOCRASH_DIR/results/BENCH_pressure.json"; then
    echo "FAIL: resume after a faulted crash diverged in BENCH_pressure.json" >&2
    exit 1
fi
if ! cmp -s "$CRASH_DIR/ref.csv" "$IOCRASH_DIR/resume.csv"; then
    echo "FAIL: resume after a faulted crash diverged in CSV output" >&2
    exit 1
fi
if find "$IOCRASH_DIR/results" -name '*.tmp-*' | grep -q .; then
    echo "FAIL: faulted crash run leaked tmp files past the startup sweep" >&2
    exit 1
fi
echo "storage-fault crash smoke passed (resume byte-identical under injected ENOSPC + torn renames)"

# Snapshot-cache smoke: the smoke sweep twice in a scratch directory —
# cold (each of the two benchmarks is prepared once and persisted as a
# snapshot under results/snapshots/), then warm in a fresh process
# (every preparation decodes its snapshot). Both runs must print the
# tables in the committed results/smoke_sweep.csv byte for byte, so a
# warm run that decodes a different kernel fails here. The cold run
# must build exactly one preparation per benchmark and age exactly one
# machine (fig18 and fig7-9 share the default scenario), the warm run
# neither: it must decode exactly one snapshot per benchmark instead.
# After each run the snapshot directory must hold exactly the two files
# of the committed results/smoke_snapshots.sha256: their names are CRC32
# fingerprints of the preparation keys and their bytes the whole
# snapshot encoding, so a drift in either the format or the CRC fails
# here. A third, serial run repeats the warm one at --jobs 1. Every run
# must record each benchmark's reference stream once and replay it for
# the other three fig18 configurations: 2 recordings, 6 replays.
SWEEP_ARGS=(--quick --bench Gobmk,Bzip2 fig18 fig7-9 --csv)
echo "== snapshot-cache smoke: cold vs warm sweep =="
for run in cold warm serial; do
    jobs=$(nproc)
    [[ "$run" == serial ]] && jobs=1
    (cd "$CACHE_DIR" && "$REPRO" --jobs "$jobs" "${SWEEP_ARGS[@]}" > "$run.csv")
    cp "$CACHE_DIR/results/BENCH_sweep.json" "$CACHE_DIR/$run.json"
    if ! cmp -s results/smoke_sweep.csv "$CACHE_DIR/$run.csv"; then
        echo "FAIL: $run smoke sweep tables differ from results/smoke_sweep.csv" >&2
        diff results/smoke_sweep.csv "$CACHE_DIR/$run.csv" >&2 || true
        exit 1
    fi
    snap_sums=$(cd "$CACHE_DIR/results/snapshots" && LC_ALL=C sha256sum -- *.snap)
    if [[ "$snap_sums" != "$(cat results/smoke_snapshots.sha256)" ]]; then
        echo "FAIL: snapshot files after the $run smoke sweep differ from results/smoke_snapshots.sha256" >&2
        diff results/smoke_snapshots.sha256 <(echo "$snap_sums") >&2 || true
        exit 1
    fi
done
cold_misses=$(json_field prep_cache_misses "$CACHE_DIR/cold.json")
if [[ "$cold_misses" != "2" ]]; then
    echo "FAIL: cold smoke sweep built $cold_misses preparation(s), expected 2 (one per benchmark)" >&2
    exit 1
fi
warm_misses=$(json_field prep_cache_misses "$CACHE_DIR/warm.json")
if [[ "$warm_misses" != "0" ]]; then
    echo "FAIL: warm-cache sweep still built $warm_misses preparation(s) from scratch" >&2
    exit 1
fi
cold_aged=$(json_field machines_aged "$CACHE_DIR/cold.json")
if [[ "$cold_aged" != "1" ]]; then
    echo "FAIL: cold smoke sweep aged $cold_aged machine(s), expected 1 (one scenario)" >&2
    exit 1
fi
warm_aged=$(json_field machines_aged "$CACHE_DIR/warm.json")
if [[ "$warm_aged" != "0" ]]; then
    echo "FAIL: warm-cache sweep still aged $warm_aged machine(s)" >&2
    exit 1
fi
warm_decoded=$(json_field prep_cache_disk_hits "$CACHE_DIR/warm.json")
if [[ "$warm_decoded" != "2" ]]; then
    echo "FAIL: warm-cache sweep decoded $warm_decoded snapshot(s), expected 2 (one per benchmark)" >&2
    exit 1
fi
for run in cold warm serial; do
    recorded=$(json_field recordings "$CACHE_DIR/$run.json")
    replayed=$(json_field cells_from_recordings "$CACHE_DIR/$run.json")
    if [[ "$recorded $replayed" != "2 6" ]]; then
        echo "FAIL: the $run smoke sweep recorded ${recorded:-no} reference stream(s) and replayed ${replayed:-no} cell(s), expected 2 and 6 (fig18: 2 benchmarks x 4 configs)" >&2
        exit 1
    fi
done
echo "snapshot-cache smoke passed (tables match results/smoke_sweep.csv, snapshot files match results/smoke_snapshots.sha256, 2 cold / 0 warm preparations, 1 cold / 0 warm machines aged, 2 snapshots decoded warm, 2 streams recorded and 6 cells replayed at $(nproc) and 1 job(s))"

# Shared-aging gate: aging reads only a scenario's machine (THS,
# compaction, memory, fault plan, policy, aging churn, seed); memhog is
# applied after it. So the twelve §5.1.1 scenarios (THS on/off x
# compaction normal/low x memhog 0/25/50%) age four machines, and a cold
# one-benchmark `grid` must build its 12 preparations from exactly 4, at
# two jobs (where preparations wait on a machine another worker ages)
# and at one, with the same tables.
for jobs in 2 1; do
    AGING_ARGS=(--quick --no-snapshot-cache --jobs "$jobs" --bench Gobmk grid)
    echo "== shared-aging gate: repro ${AGING_ARGS[*]} =="
    (cd "$AGING_DIR" && "$REPRO" "${AGING_ARGS[@]}" \
        | sed '/^== Sweep throughput/,$d' > "grid-$jobs.txt")
    grid_misses=$(json_field prep_cache_misses "$AGING_DIR/results/BENCH_sweep.json")
    grid_aged=$(json_field machines_aged "$AGING_DIR/results/BENCH_sweep.json")
    if [[ "$grid_aged $grid_misses" != "4 12" ]]; then
        echo "FAIL: the grid at $jobs job(s) aged ${grid_aged:-no} machine(s) for ${grid_misses:-no} preparation(s), expected 4 for 12 (one per THS x compaction machine)" >&2
        exit 1
    fi
done
if ! cmp -s "$AGING_DIR/grid-2.txt" "$AGING_DIR/grid-1.txt"; then
    echo "FAIL: the grid's tables differ between 2 jobs and 1" >&2
    diff "$AGING_DIR/grid-2.txt" "$AGING_DIR/grid-1.txt" | head -20 >&2
    exit 1
fi
echo "shared-aging gate passed (4 machines aged for 12 preparations at 2 jobs and at 1, same tables)"

# Serve smoke: a resident `repro serve` plus the serve-bench load
# generator in a scratch directory. The bench drives mixed
# translate/sweep traffic, requests the sweep twice (the second must be
# an LRU result-cache hit), and byte-compares the served sweep against
# a direct in-process run (--verify-sweep). The server must then shut
# down cleanly with zero quarantined cells, and the BENCH_serve.json it
# writes there must show every request answered ok, real throughput
# and a warm cache.
echo "== serve smoke: repro serve + serve-bench =="
SERVE_JSON="$SERVE_DIR/BENCH_serve.json"
(cd "$SERVE_DIR" && "$REPRO" serve --port 0 --port-file serve.port \
    > serve.log 2>&1) &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [[ -s "$SERVE_DIR/serve.port" ]] && break
    sleep 0.1
done
if [[ ! -s "$SERVE_DIR/serve.port" ]]; then
    echo "FAIL: repro serve never wrote its port file" >&2
    exit 1
fi
(cd "$SERVE_DIR" && "$REPRO" serve-bench --port-file serve.port \
    --conns 4 --requests 100 --accesses 5000 \
    --sweep fig18 --sweep-every 25 --sweep-accesses 20000 --bench Gobmk \
    --verify-sweep --shutdown --quiet --out "$SERVE_JSON")
if ! wait "$SERVE_PID"; then
    echo "FAIL: repro serve exited nonzero after shutdown" >&2
    cat "$SERVE_DIR/serve.log" >&2
    exit 1
fi
for needle in "clean shutdown" "quarantined cells: 0"; do
    if ! grep -q "$needle" "$SERVE_DIR/serve.log"; then
        echo "FAIL: serve log is missing '$needle'" >&2
        cat "$SERVE_DIR/serve.log" >&2
        exit 1
    fi
done
# serve-bench counts error answers without failing, so gate on every
# request having been answered ok (a server that errors on every
# translate would otherwise pass on sweep cache hits alone).
serve_requests=$(json_field requests "$SERVE_JSON")
serve_ok=$(json_field ok "$SERVE_JSON")
if [[ -z "$serve_requests" || "$serve_ok" != "$serve_requests" ]]; then
    echo "FAIL: BENCH_serve.json answered ok=$serve_ok of requests=$serve_requests" >&2
    exit 1
fi
serve_rps=$(json_field requests_per_sec "$SERVE_JSON")
if ! awk -v r="$serve_rps" 'BEGIN { exit !(r > 0) }'; then
    echo "FAIL: BENCH_serve.json reports no throughput (requests_per_sec=$serve_rps)" >&2
    exit 1
fi
serve_hit_rate=$(json_field cache_hit_rate "$SERVE_JSON")
if ! awk -v h="$serve_hit_rate" 'BEGIN { exit !(h > 0) }'; then
    echo "FAIL: repeated identical sweeps never hit the result cache (cache_hit_rate=$serve_hit_rate)" >&2
    exit 1
fi
if ! grep -q '"verified": true' "$SERVE_JSON"; then
    echo "FAIL: serve-bench did not verify served-vs-direct byte identity" >&2
    exit 1
fi
echo "serve smoke passed ($serve_rps req/s, sweep cache hit rate $serve_hit_rate, clean shutdown)"

# Chaos smoke: the seeded network-fault soak. An in-process server with
# the chaos plan armed (torn frames, resets, stalls, accept hiccups)
# serves retrying clients; the run must exit zero with every verdict
# true in BENCH_chaos.json — zero server panics, every injected fault
# accounted for as exactly one retried transport error, no leaked queue
# slots or in-flight sweep leaders after the graceful drain, sweep
# bytes under retries identical to a direct in-process run, and a
# warm restart serving the drained cache byte-identically.
echo "== chaos smoke: repro chaos-serve =="
CHAOS_JSON="$CHAOS_DIR/BENCH_chaos.json"
(cd "$CHAOS_DIR" && "$REPRO" chaos-serve --chaos rate=0.15,window=0,seed=7 \
    --conns 2 --requests 10 --accesses 500 \
    --sweep fig18 --sweep-every 4 --sweep-accesses 1000 --bench Gobmk \
    --quiet --out "$CHAOS_JSON")
for verdict in zero_panics faults_accounted no_leaked_slots byte_identity \
               warm_restart_identity all_ok; do
    if ! grep -q "\"$verdict\": true" "$CHAOS_JSON"; then
        echo "FAIL: BENCH_chaos.json verdict '$verdict' did not hold" >&2
        cat "$CHAOS_JSON" >&2
        exit 1
    fi
done
chaos_faults=$(json_field faults_injected "$CHAOS_JSON")
if ! awk -v f="$chaos_faults" 'BEGIN { exit !(f > 0) }'; then
    echo "FAIL: chaos smoke injected no faults (faults_injected=$chaos_faults)" >&2
    exit 1
fi
echo "chaos smoke passed ($chaos_faults faults injected, all verdicts hold)"

# Storage-torture smoke: the crash-consistency harness on a reduced
# but still 3-seed grid with its fixed default base seed. Each cycle
# runs a sweep doomed by a seeded storage-fault schedule (ENOSPC, EIO,
# torn writes, lying fsyncs, dropped renames, bit flips), simulates a
# power cut, re-opens everything cold, and recovers with --resume.
# Every verdict in the BENCH_torture.json it writes in its scratch
# directory must hold, injection must have fired, and no tmp litter may
# survive anywhere under that directory's results/.
TORTURE_ARGS=(torture --seeds 3 --cuts 1 --accesses 1000 --quiet)
echo "== storage-torture smoke: repro ${TORTURE_ARGS[*]} =="
(cd "$TORTURE_DIR" && "$REPRO" "${TORTURE_ARGS[@]}")
TORTURE_JSON="$TORTURE_DIR/results/BENCH_torture.json"
for verdict in zero_panics no_corrupt_accepted resume_identity warm_identity \
               ledger_identity all_ok; do
    if ! grep -q "\"$verdict\": true" "$TORTURE_JSON"; then
        echo "FAIL: BENCH_torture.json verdict '$verdict' did not hold" >&2
        cat "$TORTURE_JSON" >&2
        exit 1
    fi
done
torture_faults=$(json_field io_faults_injected "$TORTURE_JSON")
if ! awk -v f="$torture_faults" 'BEGIN { exit !(f > 0) }'; then
    echo "FAIL: torture smoke injected no I/O faults (io_faults_injected=$torture_faults)" >&2
    exit 1
fi
if find "$TORTURE_DIR/results" -name '*.tmp-*' | grep -q .; then
    echo "FAIL: torture smoke leaked tmp files under results/" >&2
    find "$TORTURE_DIR/results" -name '*.tmp-*' >&2
    exit 1
fi
echo "storage-torture smoke passed ($torture_faults I/O faults injected, all verdicts hold)"

if [[ "$RUN_CHECK" == "1" ]]; then
    echo "== oracle + invariant fuzz: repro --check (single-core + 4-core SMP) =="
    ./target/release/repro --check --seeds 6 --events 160 --jobs "$(nproc)" --cores 4
fi

echo "verify.sh: all checks passed"
