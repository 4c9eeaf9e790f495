#!/usr/bin/env bash
# Rebuild everything, run the full test suite, and regenerate every
# table and figure of the paper plus the three infrastructure studies
# into bench_output.txt.
#
#   scripts/reproduce.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"

# The tier-1 configure: no forced generator, so a build tree already
# configured by the tier-1 command is reused as it is.
cmake -B "$BUILD" -S .
cmake --build "$BUILD" -j "$(nproc)"

echo "== tests =="
ctest --test-dir "$BUILD" -j "$(nproc)" 2>&1 | tee test_output.txt

echo "== tables and figures =="
"$BUILD"/tools/safemem_run paper | tee bench_output.txt
for b in bench_matrix bench_fleet bench_ecc_tradeoff; do
    "$BUILD/bench/$b" 2>&1 | tee -a bench_output.txt
done

echo
echo "done: see test_output.txt, bench_output.txt and EXPERIMENTS.md"
