#!/usr/bin/env bash
# Full correctness gauntlet:
#
#   1. tier-1 verify      — default build + ctest (includes the lint tests)
#   2. ASan configuration — full ctest under AddressSanitizer
#   3. UBSan configuration— full ctest under UndefinedBehaviorSanitizer
#   4. TSan configuration — full ctest under ThreadSanitizer; the matrix
#                           tests drive concurrent machines, so this is
#                           the data-race gate for the parallel harness
#   5. bench smoke        — bench_hotpath --json and bench_matrix --json;
#                           fail on malformed JSON or missing keys
#   5b. campaign smoke    — safemem_run campaign over the codec zoo:
#                           JSON shape, scramble verdicts, worker-count
#                           independence (byte-identical files), and the
#                           committed BENCH_ecc_campaign.json reproduced
#                           byte for byte
#   5c. perfbench smoke   — build perfbench/ (its own CMake package over
#                           src/) into build-perfbench/ and run one short
#                           pass per workload, the machine workloads
#                           traced so their equivalence gate runs, and
#                           their seed-42 `simulated:` lines equal to
#                           tests/data/perfbench_simulated_seed42.txt
#   6. trace smoke        — a traced safemem_run workload decoded with
#                           trace_dump (records + --summary); fail on
#                           malformed JSON-lines
#   7. multiproc smoke    — the full app sweep at --procs 2 must produce
#                           byte-identical reports for any worker count
#   7b. fleet smoke       — a reduced bench_fleet sampled-monitoring
#                           sweep: byte-identical JSON for any worker
#                           count, pinned cell shape, overhead ordering;
#                           and the committed BENCH_fleet.json
#                           reproduced byte for byte
#   7c. tradeoff smoke    — bench_ecc_tradeoff: byte-identical JSON for
#                           any worker count, redundancy overhead falling
#                           with codeword size, decode/RMW accounting,
#                           --geometry word bit-identical to the
#                           pre-geometry golden sweep, and the committed
#                           BENCH_ecc_tradeoff.json reproduced byte for
#                           byte
#   8. notrace build      — library/tools compile with -DSAFEMEM_TRACE=OFF
#   9. static analysis    — -Wthread-safety build (clang++), clang-tidy
#                           gauntlet, negative-compile proof, repo lint;
#                           the Clang-only pieces SKIP with a visible
#                           warning on GCC-only hosts
#  10. repo lint          — tools/lint/lint.py over the tree + self-test
#  11. format check       — scripts/check_format.sh (skips w/o clang-format)
#
# Every stage runs even when an earlier one fails; the exit status is
# non-zero if any stage failed.
set -u

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 4)
failures=()

stage() {
    local name=$1
    shift
    echo
    echo "=== ci: $name ==="
    if "$@"; then
        echo "=== ci: $name OK ==="
    else
        echo "=== ci: $name FAILED ==="
        failures+=("$name")
    fi
}

build_and_test() {
    local dir=$1
    shift
    cmake -B "$dir" -S . "$@" &&
        cmake --build "$dir" -j "$JOBS" &&
        ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

bench_smoke() {
    # A fast run is enough to validate the report shape; the committed
    # BENCH_hotpath.json baseline is produced from a full run instead.
    local out=build/bench/BENCH_hotpath_smoke.json
    build/bench/bench_hotpath --json --out "$out" --accesses 200000 \
        >/dev/null &&
        python3 - "$out" <<'PYEOF'
import json
import sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)

for key in ("bench", "word_accesses", "phases", "total_accesses",
            "total_wall_seconds", "simulated_cycles_total"):
    assert key in doc, f"missing top-level key: {key}"
assert doc["bench"] == "hotpath"
assert doc["phases"], "no phases recorded"
for phase in doc["phases"]:
    for key in ("name", "accesses", "bytes", "wall_seconds",
                "ms_per_million_accesses", "hits", "misses", "hit_rate",
                "simulated_cycles"):
        assert key in phase, f"missing phase key: {key}"
print(f"bench smoke: {len(doc['phases'])} phases, "
      f"{doc['simulated_cycles_total']} simulated cycles")
PYEOF
}

matrix_smoke() {
    # Reduced requests keep this fast; the committed BENCH_matrix.json
    # baseline is produced from a full paper-scale run instead.
    local out=build/bench/BENCH_matrix_smoke.json
    build/bench/bench_matrix --json --requests 100 --workers 2 \
        >"$out" &&
        python3 - "$out" <<'PYEOF'
import json
import sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)

for key in ("bench", "cells", "requests", "workers", "hardware_threads",
            "serial_seconds", "parallel_seconds", "speedup", "identical"):
    assert key in doc, f"missing top-level key: {key}"
assert doc["bench"] == "matrix"
assert doc["cells"] == 42, f"expected the 42-cell Table 3 sweep: {doc}"
assert doc["identical"] is True, "parallel sweep diverged from serial"
print(f"matrix smoke: {doc['cells']} cells, "
      f"speedup {doc['speedup']}x on {doc['workers']} workers")
PYEOF
}

campaign_smoke() {
    # A reduced fault-injection campaign over the full codec zoo: the
    # JSON document must carry the expected shape and verdicts (the
    # Hsiao codes host a scramble signature, pure-SEC Hamming must
    # not), and the sweep must be byte-identical for any worker count.
    # At the committed settings the document must equal
    # BENCH_ecc_campaign.json, so a codec change that moves any
    # campaign count fails here instead of drifting silently.
    local one=build/bench/BENCH_campaign_smoke_w1.json
    local four=build/bench/BENCH_campaign_smoke_w4.json
    local committed=build/bench/BENCH_campaign_committed.json
    build/tools/safemem_run campaign --samples 400 --seed 11 --workers 1 \
        --out "$one" >/dev/null &&
        build/tools/safemem_run campaign --samples 400 --seed 11 \
            --workers 4 --out "$four" >/dev/null &&
        if ! cmp -s "$one" "$four"; then
            echo "campaign smoke: worker count changed the results:"
            diff "$one" "$four" | head -20
            return 1
        fi &&
        build/tools/safemem_run campaign --samples 20000 --seed 42 \
            --workers 0 --out "$committed" >/dev/null &&
        if ! cmp -s "$committed" BENCH_ecc_campaign.json; then
            echo "campaign smoke: the campaign no longer reproduces" \
                 "BENCH_ecc_campaign.json:"
            diff "$committed" BENCH_ecc_campaign.json | head -20
            return 1
        fi &&
        python3 - "$one" <<'PYEOF'
import json
import sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)

for key in ("bench", "seed", "samples", "max_errors", "codecs"):
    assert key in doc, f"missing top-level key: {key}"
assert doc["bench"] == "ecc_campaign"
assert len(doc["codecs"]) == 3, f"expected the 3-codec zoo: {doc}"

by_spec = {codec["spec"]: codec for codec in doc["codecs"]}
assert set(by_spec) == {"hsiao", "hamming64/8", "hsiao:64/8"}, \
    sorted(by_spec)
for spec, codec in by_spec.items():
    for key in ("name", "data_bits", "check_bits", "scramble_viable",
                "scramble_bits", "cells", "cdf"):
        assert key in codec, f"{spec}: missing key {key}"
    assert len(codec["cells"]) == 1 + 2 * doc["max_errors"], codec
    for cell in codec["cells"]:
        assert cell["corrected"] + cell["detected"] + \
            cell["miscorrected"] == cell["trials"], cell
    for outcome in ("corrected", "detected", "miscorrected"):
        cdf = codec["cdf"][outcome]
        assert cdf == sorted(cdf), f"{spec}: {outcome} CDF not sorted"

assert by_spec["hsiao"]["scramble_viable"] is True
assert by_spec["hsiao:64/8"]["scramble_viable"] is True
assert by_spec["hamming64/8"]["scramble_viable"] is False, \
    "pure-SEC Hamming must not host a scramble signature"
doubles = next(c for c in by_spec["hamming64/8"]["cells"]
               if c["mode"] == "random" and c["errors"] == 2)
assert doubles["miscorrected"] > 0 and doubles["detected"] == 0, doubles
print(f"campaign smoke: 3 codecs x {len(by_spec['hsiao']['cells'])} "
      f"cells, verdicts and CDFs well-formed")
PYEOF
}

perfbench_smoke() {
    # perfbench/ compiles ../src as a separate package that no stage
    # above builds, so a src/ change could break the benchmark or its
    # traced equivalence gate unseen. run.py exits non-zero when the
    # build or any of the benchmark's own checks fails. Each machine
    # workload's `simulated:` line at seed 42 must also equal its line
    # in tests/data/perfbench_simulated_seed42.txt, so a change that
    # moves any simulated column fails here until the golden is
    # deliberately refreshed.
    local status=0
    local golden=tests/data/perfbench_simulated_seed42.txt
    CARGO_TARGET_DIR=build-perfbench python3 perfbench/run.py \
        --workload ecc_campaign --seconds 1 --trace 0 || status=1
    for workload in paper_sweep production; do
        local out=build/perfbench_smoke_$workload.txt
        CARGO_TARGET_DIR=build-perfbench python3 perfbench/run.py \
            --workload "$workload" --seed 42 --seconds 1 --trace 1 \
            >"$out" || status=1
        cat "$out"
        local want got
        want=$(grep "^$workload simulated:" "$golden" | cut -d' ' -f2-)
        got=$(grep '^simulated:' "$out")
        if [ -z "$want" ] || [ "$got" != "$want" ]; then
            echo "perfbench smoke: $workload's simulated outcome moved"
            echo "  committed: $want"
            echo "  measured:  $got"
            status=1
        fi
    done
    return "$status"
}

trace_smoke() {
    # Record a real (small) workload, then validate the analyzer's
    # JSON-lines shape end to end: every line an object with the full
    # key set, event names from the published table, cycles monotone
    # per run section.
    local bin=build/trace_smoke.bin
    local out=build/trace_smoke.jsonl
    local summary=build/trace_smoke_summary.jsonl
    build/tools/safemem_run gzip --requests 20 --trace "$bin" \
        >/dev/null &&
        build/tools/trace_dump "$bin" >"$out" &&
        build/tools/trace_dump --summary "$bin" >"$summary" &&
        python3 - "$summary" <<'PYEOF' &&
import json
import sys

lines = open(sys.argv[1]).read().splitlines()
assert lines, "trace_dump --summary produced no sections"
for line in lines:
    doc = json.loads(line)
    assert set(doc) == {"run", "emitted", "retained", "cycle_first",
                        "cycle_last", "events"}, \
        f"bad key set: {sorted(doc)}"
    assert doc["retained"] == sum(doc["events"].values()), doc
    assert doc["cycle_first"] <= doc["cycle_last"], doc
print(f"trace summary: {len(lines)} section(s)")
PYEOF
        python3 - "$out" <<'PYEOF'
import json
import sys

lines = open(sys.argv[1]).read().splitlines()
assert lines, "trace_dump produced no records"

last_cycle = {}
last_seq = {}
for line in lines:
    rec = json.loads(line)
    assert set(rec) == {"run", "seq", "cycle", "pid", "event", "a", "b",
                        "c"}, f"bad key set: {sorted(rec)}"
    assert isinstance(rec["event"], str) and rec["event"] != "?", rec
    run = rec["run"]
    assert rec["cycle"] >= last_cycle.get(run, 0), f"cycle ran backwards: {rec}"
    assert rec["seq"] > last_seq.get(run, -1), f"seq not increasing: {rec}"
    last_cycle[run] = rec["cycle"]
    last_seq[run] = rec["seq"]
assert "gzip/safemem" in last_seq, f"runs seen: {sorted(last_seq)}"
print(f"trace smoke: {len(lines)} records across {len(last_seq)} run(s)")
PYEOF
}

multiproc_smoke() {
    # Consolidated runs must be pure functions of their RunSpec: the
    # whole-matrix sweep at --procs 2 has to produce byte-identical
    # reports (per-process detector slices, contention counters, every
    # stat) no matter how many matrix workers drive it.
    local serial=build/multiproc_serial.txt
    local parallel=build/multiproc_parallel.txt
    build/tools/safemem_run all --tool safemem --buggy --procs 2 \
        --requests 60 --stats --simcheck --workers 1 >"$serial" &&
        build/tools/safemem_run all --tool safemem --buggy --procs 2 \
            --requests 60 --stats --simcheck --workers 4 >"$parallel" &&
        grep -q "x2 consolidated processes" "$serial" &&
        grep -q "\[pid 1\]" "$serial" &&
        grep -q "cross-process evictions" "$serial" &&
        if cmp -s "$serial" "$parallel"; then
            echo "multiproc smoke: serial and 4-worker sweeps identical"
        else
            echo "multiproc smoke: worker count changed the results:"
            diff "$serial" "$parallel" | head -20
            false
        fi
}

fleet_smoke() {
    # The sampled-monitoring fleet scenario: a reduced bench_fleet run
    # must produce byte-identical JSON for any worker count (the JSON
    # deliberately carries no wall-clock fields), report the expected
    # cell set and shape, and survive its own in-process worker-count
    # identity check (non-zero exit otherwise). At its defaults the
    # bench must reproduce the committed BENCH_fleet.json byte for byte.
    local one=build/bench/BENCH_fleet_smoke_w1.json
    local four=build/bench/BENCH_fleet_smoke_w4.json
    local committed=build/bench/BENCH_fleet_committed.json
    build/bench/bench_fleet --json --procs 4 --seeds 2 --requests 120 \
        --workers 1 >"$one" &&
        build/bench/bench_fleet --json --procs 4 --seeds 2 \
            --requests 120 --workers 4 >"$four" &&
        if cmp -s "$one" "$four"; then
            echo "fleet smoke: 1-worker and 4-worker JSON identical"
        else
            echo "fleet smoke: worker count changed the results:"
            diff "$one" "$four" | head -20
            return 1
        fi &&
        build/bench/bench_fleet --json >"$committed" &&
        if ! cmp -s "$committed" BENCH_fleet.json; then
            echo "fleet smoke: bench_fleet no longer reproduces" \
                 "BENCH_fleet.json:"
            diff "$committed" BENCH_fleet.json | head -20
            return 1
        fi &&
        python3 - "$one" <<'PYEOF'
import json
import math
import sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)

for key in ("bench", "app", "procs", "requests", "seeds", "base_seed",
            "identical", "cells"):
    assert key in doc, f"missing top-level key: {key}"
assert doc["bench"] == "fleet"
assert doc["identical"] is True, "worker pools diverged inside the bench"

tools = [cell["tool"] for cell in doc["cells"]]
assert tools[:3] == ["none", "safemem", "purify"], tools
sampled = [cell for cell in doc["cells"]
           if cell["kind"] == "safemem-sampled"]
assert sampled, f"no sampled cells in the sweep: {tools}"
for cell in doc["cells"]:
    for key in ("tool", "kind", "rate", "seeds_run", "seeds_detected",
                "detection_percent", "mean_overhead_percent",
                "mean_catch_seconds", "mean_total_cycles",
                "monitored_allocs", "total_allocs", "monitored_percent",
                "zero_sample_tenants"):
        assert key in cell, f"{cell.get('tool')}: missing key {key}"
        value = cell[key]
        if isinstance(value, float):
            assert math.isfinite(value), f"{cell['tool']}.{key}: {value}"
    assert cell["seeds_detected"] <= cell["seeds_run"], cell
for cell in sampled:
    assert 0 < cell["rate"] < 1, cell
    assert cell["monitored_allocs"] <= cell["total_allocs"], cell
full = next(c for c in doc["cells"] if c["tool"] == "safemem")
for cell in sampled:
    assert cell["mean_overhead_percent"] < full["mean_overhead_percent"], \
        f"sampling did not shed overhead: {cell}"
print(f"fleet smoke: {len(doc['cells'])} cells "
      f"({len(sampled)} sampled rates), shape and guards OK")
PYEOF
}

tradeoff_smoke() {
    # The protection-geometry lab: a reduced bench_ecc_tradeoff sweep
    # must be byte-identical for any worker count (the JSON carries no
    # wall-clock fields), show the bandwidth/latency trade — EDC+ECC
    # redundancy overhead falling as codewords grow at a zero error
    # rate, decode and RMW costs separately accounted — and the word
    # default must keep the whole-app sweep byte-identical to the
    # pre-geometry golden capture. At its defaults the bench must
    # reproduce the committed BENCH_ecc_tradeoff.json byte for byte.
    local one=build/bench/BENCH_tradeoff_smoke_w1.json
    local four=build/bench/BENCH_tradeoff_smoke_w4.json
    local committed=build/bench/BENCH_tradeoff_committed.json
    local golden=build/tradeoff_golden_word.txt
    build/bench/bench_ecc_tradeoff --json --batches 6 --workers 1 \
        >"$one" &&
        build/bench/bench_ecc_tradeoff --json --batches 6 --workers 4 \
            >"$four" &&
        if ! cmp -s "$one" "$four"; then
            echo "tradeoff smoke: worker count changed the results:"
            diff "$one" "$four" | head -20
            return 1
        fi &&
        build/bench/bench_ecc_tradeoff --json >"$committed" &&
        if ! cmp -s "$committed" BENCH_ecc_tradeoff.json; then
            echo "tradeoff smoke: bench_ecc_tradeoff no longer reproduces" \
                 "BENCH_ecc_tradeoff.json:"
            diff "$committed" BENCH_ecc_tradeoff.json | head -20
            return 1
        fi &&
        build/tools/safemem_run all --stats --workers 0 --geometry word \
            >"$golden" &&
        if cmp -s "$golden" tests/data/golden_prebank_sweep.txt; then
            echo "tradeoff smoke: --geometry word sweep matches golden"
        else
            echo "tradeoff smoke: --geometry word moved the golden sweep:"
            diff "$golden" tests/data/golden_prebank_sweep.txt | head -20
            return 1
        fi &&
        python3 - "$one" <<'PYEOF'
import json
import sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)

for key in ("bench", "traffic", "batches", "cells", "identical"):
    assert key in doc, f"missing top-level key: {key}"
assert doc["bench"] == "ecc_tradeoff"
assert doc["identical"] is True, "serial vs pool cells diverged"
assert len(doc["cells"]) == 15, f"expected 5 geometries x 3 rates: {doc}"

cells = {(c["geometry"], c["flip_rate"]): c for c in doc["cells"]}
for cell in doc["cells"]:
    for key in ("cycles", "flips", "line_fills", "line_evictions",
                "single_bit_corrected", "edc_passed", "edc_failed",
                "block_decodes", "latent_fault_words",
                "partial_write_rmws", "open_codeword_hits",
                "edc_refreshes", "data_bytes", "redundancy_bytes",
                "overhead"):
        assert key in cell, f"{cell['geometry']}: missing key {key}"

# The tentpole physics: at a zero error rate the effective-bandwidth
# overhead falls strictly as parity codewords grow, and the largest
# codeword beats the per-word SEC-DED baseline.
clean = lambda g: cells[(g, 0.0)]["overhead"]
assert clean("block:512/parity") > clean("block:1024/parity") \
    > clean("block:4096/parity"), \
    [clean(g) for g in ("block:512/parity", "block:1024/parity",
                        "block:4096/parity")]
assert clean("block:4096/parity") < clean("word"), \
    (clean("block:4096/parity"), clean("word"))
# A wider EDC costs bandwidth at the same codeword size.
assert clean("block:1024/crc32") > clean("block:1024/parity")

# Word cells never touch the block datapath; faulted block cells pay
# decodes, and every block cell pays RMWs (separately accounted).
for rate in (0.0, 0.005, 0.05):
    word = cells[("word", rate)]
    assert word["edc_passed"] == 0 and word["block_decodes"] == 0, word
for (geometry, rate), cell in cells.items():
    if geometry == "word":
        continue
    assert cell["partial_write_rmws"] > 0, cell
    assert cell["edc_passed"] > 0, cell
    if rate > 0:
        assert cell["flips"] > 0, cell
        assert cell["edc_failed"] > 0, cell
        assert cell["block_decodes"] > 0, cell
print(f"tradeoff smoke: {len(doc['cells'])} cells, overhead ordering "
      "and decode/RMW accounting OK")
PYEOF
}

notrace_build() {
    # The compiled-out configuration must still build everything; the
    # suite itself runs in the default (traced) configurations above.
    cmake -B build-notrace -S . -DSAFEMEM_TRACE=OFF &&
        cmake --build build-notrace -j "$JOBS"
}

static_analysis() {
    # The lock-discipline gauntlet. The annotations are no-ops under
    # GCC, so each Clang-dependent layer hunts for a Clang binary and
    # SKIPS with a visible warning instead of passing vacuously.
    local status=0

    local clangxx=""
    for candidate in clang++ clang++-21 clang++-20 clang++-19 clang++-18 \
                     clang++-17 clang++-16 clang++-15 clang++-14; do
        if command -v "$candidate" >/dev/null 2>&1; then
            clangxx="$candidate"
            break
        fi
    done
    if [ -n "$clangxx" ]; then
        # -Werror=thread-safety: every mutex-guarded structure must
        # carry annotations that hold up under the analysis.
        cmake -B build-tsafety -S . -DSAFEMEM_THREAD_SAFETY=ON \
            -DCMAKE_CXX_COMPILER="$clangxx" &&
            cmake --build build-tsafety -j "$JOBS" || status=1
    else
        echo "static-analysis: WARNING: no clang++ on PATH — the" \
             "-Wthread-safety build is SKIPPED (the annotations are" \
             "compiled as no-ops and NOT being enforced)"
    fi

    scripts/run_clang_tidy.sh || status=1

    # Exit 77 is the harness's "no Clang available" skip, already
    # reported with its own warning; anything else non-zero is real.
    tests/negative_compile/run_negative_compile.sh
    local rc=$?
    if [ "$rc" -ne 0 ] && [ "$rc" -ne 77 ]; then
        status=1
    fi

    python3 tools/lint/lint.py --root . || status=1
    python3 tools/lint/lint.py --self-test || status=1
    return "$status"
}

stage "tier-1 (default build + ctest)" build_and_test build
stage "asan ctest" build_and_test build-asan -DSAFEMEM_ASAN=ON
stage "ubsan ctest" build_and_test build-ubsan -DSAFEMEM_UBSAN=ON
stage "tsan ctest" build_and_test build-tsan -DSAFEMEM_TSAN=ON
stage "bench smoke (hotpath --json)" bench_smoke
stage "bench smoke (matrix --json)" matrix_smoke
stage "campaign smoke (ecc codec zoo)" campaign_smoke
stage "perfbench smoke (perfbench/run.py, every workload)" perfbench_smoke
stage "trace smoke (safemem_run --trace + trace_dump)" trace_smoke
stage "multiproc smoke (--procs 2, serial vs parallel)" multiproc_smoke
stage "fleet smoke (bench_fleet sampled sweep + committed JSON)" fleet_smoke
stage "tradeoff smoke (bench_ecc_tradeoff + word golden + committed JSON)" \
    tradeoff_smoke
stage "notrace build (-DSAFEMEM_TRACE=OFF)" notrace_build
stage "static-analysis gauntlet" static_analysis
stage "repo lint" python3 tools/lint/lint.py --root .
stage "lint self-test" python3 tools/lint/lint.py --self-test
stage "format check" scripts/check_format.sh

echo
if [ "${#failures[@]}" -ne 0 ]; then
    echo "ci: FAILED stages: ${failures[*]}"
    exit 1
fi
echo "ci: all stages passed"
