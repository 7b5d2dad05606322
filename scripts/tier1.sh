#!/usr/bin/env bash
# Tier-1 verification: the standard build + test run from ROADMAP.md, a
# budget-regression check (a tight --max-states run must exit 3), the
# trace, metrics, diagnostics and profile exporter files checked by
# scripts/check_obs.py, a snapshot step (a CLI run killed at an injected
# checkpoint crash and resumed must be byte-identical to a straight run,
# exact, SMC and translated), a zero-allocation assertion on the exact
# engine's weight arithmetic, small and 128-bit tiers (alloc_check from an
# armed BAYONET_COUNT_ALLOCS build), a benchmark-regression check against
# the committed BENCH.json baseline, an assert-enabled Debug build under
# ASan+UBSan running the PSI, translator, cross-pipeline and sampler
# tests, and a thread-sanitized run of the parallel-determinism, budget,
# observability, snapshot, signal and sampler tests. The TSan step runs with BAYONET_THREADS=4 so
# real worker threads race through the sharded engine paths even on a
# single-core machine.
#
# Usage: scripts/tier1.sh [--no-tsan]
#   BAYONET_SKIP_BENCH=1 skips the benchmark-regression step (slow:
#   runs the full bench suite, ~2 minutes).
set -euo pipefail

cd "$(dirname "$0")/.."

NO_TSAN=0
for Arg in "$@"; do
  case "$Arg" in
  --no-tsan) NO_TSAN=1 ;;
  *)
    echo "unknown argument: $Arg" >&2
    exit 2
    ;;
  esac
done

echo "=== tier-1: standard build + ctest ==="
cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j)

echo "=== tier-1: budget regression (tight --max-states must exit 3) ==="
set +e
./build/examples/bayonet examples/programs/gossip4.bay --max-states 50
BudgetExit=$?
set -e
if [ "$BudgetExit" != 3 ]; then
  echo "budget regression: expected exit 3 (budget exceeded), got $BudgetExit" >&2
  exit 1
fi
echo "budget regression: exit 3 as expected"

echo "=== tier-1: observability exporters on a Table-1 query ==="
ObsTmp="$(mktemp -d)"
trap 'rm -rf "$ObsTmp"' EXIT
./build/examples/bayonet examples/programs/gossip4.bay --stats \
  --trace-out="$ObsTmp/trace.json" --metrics-out="$ObsTmp/metrics.prom" \
  --diag-out="$ObsTmp/diag.json" --profile-out="$ObsTmp/profile.json" \
  > /dev/null
python3 scripts/check_obs.py "$ObsTmp/trace.json" "$ObsTmp/metrics.prom" \
  "$ObsTmp/diag.json"
python3 scripts/check_obs.py --profile "$ObsTmp/profile.json"
# Determinism of these files across threads, TxCache and intern settings
# is asserted in-process by the gtest matrices (ParallelDeterminism.*,
# Obs.DiagReport*, FuzzDiffTest.InternInvariance and
# FuzzDiffTest.ProfileCountInvariance), not by comparing CLI output here.

echo "=== tier-1: snapshot crash -> resume determinism ==="
# Kill the CLI at an injected checkpoint crash (a real _exit(137)), resume
# from the snapshot it left behind, and require the resumed output to be
# byte-identical to a straight-through run — for the exact engine and SMC
# on gossip4, and for the translated pipeline on figure2. The translated
# run crashes at the checkpoint after its step loop, so the snapshot holds
# environments whose dead slots were reset at the loop's merges.
for Case in exact:gossip4:3 smc:gossip4:3 translated:figure2:10; do
  IFS=: read -r Engine Program CrashAt <<< "$Case"
  rm -f "$ObsTmp/ck_$Engine.snap" "$ObsTmp/ck_$Engine.snap.prev"
  ./build/examples/bayonet "examples/programs/$Program.bay" \
    --engine "$Engine" --particles 500 --seed 7 --stats \
    > "$ObsTmp/straight_$Engine.txt"
  set +e
  BAYONET_FAULT="crash-at-checkpoint=$CrashAt" ./build/examples/bayonet \
    "examples/programs/$Program.bay" \
    --engine "$Engine" --particles 500 --seed 7 \
    --checkpoint-out "$ObsTmp/ck_$Engine.snap" --checkpoint-every 2 \
    > /dev/null 2>&1
  CrashExit=$?
  set -e
  if [ "$CrashExit" != 137 ]; then
    echo "snapshot: expected the injected crash to _exit(137), got $CrashExit" >&2
    exit 1
  fi
  ./build/examples/bayonet "examples/programs/$Program.bay" \
    --engine "$Engine" --particles 500 --seed 7 --stats \
    --resume "$ObsTmp/ck_$Engine.snap" \
    > "$ObsTmp/resumed_$Engine.txt"
  # The resumed run reports its own wall clock and checkpoint line; strip
  # both before the byte comparison (everything else must match exactly).
  for F in straight resumed; do
    sed -e 's/ wall-ms=[0-9.]*//' -e '/^checkpoint:/d' \
      "$ObsTmp/${F}_$Engine.txt" > "$ObsTmp/${F}_$Engine.cmp"
  done
  if ! cmp -s "$ObsTmp/straight_$Engine.cmp" "$ObsTmp/resumed_$Engine.cmp"; then
    echo "snapshot: $Engine resumed output differs from the straight run" >&2
    diff "$ObsTmp/straight_$Engine.cmp" "$ObsTmp/resumed_$Engine.cmp" >&2 || true
    exit 1
  fi
  echo "snapshot: $Engine ($Program) crash -> resume byte-identical"
done

echo "=== tier-1: zero-allocation weight arithmetic (gossip4, loadbalancing) ==="
cmake -B build-allocs -S . -DBAYONET_COUNT_ALLOCS=ON
cmake --build build-allocs -j --target alloc_check
./build-allocs/bench/alloc_check

if [ "${BAYONET_SKIP_BENCH:-0}" = 1 ]; then
  echo "=== tier-1: bench-regress skipped (BAYONET_SKIP_BENCH=1) ==="
elif [ ! -f BENCH.json ]; then
  echo "=== tier-1: bench-regress skipped (no committed BENCH.json) ==="
else
  echo "=== tier-1: bench-regress against committed BENCH.json ==="
  BenchTmp="$(mktemp -d)"
  scripts/bench_all.sh -o "$BenchTmp/r1"
  if ! python3 scripts/check_bench.py BENCH.json "$BenchTmp/r1/BENCH.json"; then
    # Per-process layout luck can make one benchmark uniformly slow for a
    # whole run; a second run redraws it. Only benchmarks that regress in
    # BOTH independent runs fail — a real regression shows up in each.
    echo "bench-regress: retrying once to rule out per-run noise"
    scripts/bench_all.sh -o "$BenchTmp/r2"
    python3 scripts/check_bench.py BENCH.json \
      "$BenchTmp/r1/BENCH.json" "$BenchTmp/r2/BENCH.json"
  fi
  rm -rf "$BenchTmp"
fi

echo "=== tier-1: assert-enabled ASan+UBSan leg (translated pipeline, staged tables) ==="
# A Debug build keeps every assert, so PsiExact cross-checks each concrete
# evaluation against the general evaluator while ASan watches the pointers
# into environments it resolves and UBSan aborts on undefined behaviour.
# The Intern/TxCache/crash-resume cases run the staged-publication table
# (support/StagedTable.h), whose FIFO points into the published map.
# The arithmetic suites run BigInt's inline 128-bit tier, whose
# unsigned __int128 shifts and INT64_MIN negations are UB UBSan traps.
# PsiExact's arm cache and block arena run on the same table, at a tiny
# byte cap too (FuzzDiff*PsiArmCache*, *PsiArmCacheMatrix*).
# Obs.*/ObsGolden.* run the run log's fold into metric buckets, and
# Obs.* and Snapshot.* its restore from snapshot bytes (outside input),
# under bounds checking.
# OpsTable.* runs lang/Ops.h's int64 operators on the int64 extremes and
# overflowing pairs, whose overflow checks UBSan watches; QuerySemantics.*
# runs the one query evaluator through all three engines.
# SamplerTest.*/WeightedSchedTest.* run the sampler, whose Debug build
# asserts after every particle-step that the incremental enabled-slot
# mask equals a recompute from the configuration, while UBSan watches its
# bit-word shifts; SamplerTest.Pinned* covers every corpus program and
# every scheduler kind.
# CrossEngineCorpus includes loadbalancing: about 35 s of this leg.
AsanStart=$SECONDS
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
  -DBAYONET_SANITIZE=address,undefined
cmake --build build-asan -j --target bayonet_tests
./build-asan/tests/bayonet_tests \
  --gtest_filter='PsiIr*:*CrossEngine*:Translator*:*FuzzDiff*DirectVersusTranslated*:*FuzzDiff*PsiArmCache*:*PsiArmCacheMatrix*:Intern*:TxCache*:*TxCacheMatrix*:Snapshot.*:BigIntTest*:RationalTest*:SymProbTest*:LinExprTest*:ConstraintTest*:Obs.*:ObsGolden.*:OpsTable.*:QuerySemantics.*:SamplerTest.*:WeightedSchedTest.*'
echo "asan leg: $((SECONDS - AsanStart)) s"

if [ "$NO_TSAN" = 1 ]; then
  echo "=== tier-1: TSan step skipped (--no-tsan) ==="
  exit 0
fi

echo "=== tier-1: thread-sanitized parallel determinism + budgets ==="
# SamplerTest.* steps particles on real lanes, whose second pass reads
# ahead (prefetch) only inside its own lane's chunk of the population.
cmake -B build-tsan -S . -DBAYONET_SANITIZE=thread
cmake --build build-tsan -j --target bayonet_tests
BAYONET_THREADS=4 ./build-tsan/tests/bayonet_tests \
  --gtest_filter='ParallelDeterminism.*:Budget.*:Obs.*:Snapshot.*:Signal.*:Profile.*:Intern.*:SamplerTest.*'

echo "=== tier-1: all checks passed ==="
