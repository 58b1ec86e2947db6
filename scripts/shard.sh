#!/usr/bin/env bash
# Multi-process sharded experiment run with an exactness check.
#
# Fans the corpus out over N ccr_experiment shard processes, pools the
# shard JSONs with `ccr_experiment --merge`, and asserts the merged
# ExperimentResult is byte-identical (timings excluded via --no-timings)
# to a single-process run over the same corpus — the property that makes
# multi-machine sharding a matter of scp'ing JSON files.
#
# Every run uses ccr_experiment's default engine — the persistent-solver
# session engine (incremental MaxSAT Suggest, selector-guarded CFDs) with
# every optional solver engine on, which means the cross-engine
# byte-identity below runs with between-round inprocessing enabled. As a
# second exactness gate, the single-process corpus is also resolved with
# --engine legacy (re-encode every round) and must serialize to the same
# bytes: the two engines are interchangeable, shard by shard. A third gate
# does the same for the solver: --solver legacy (every optional solver
# engine off — no inprocessing, model cache, arena GC, phase seeding or
# backbone Deduce — around the same CDCL search) must be byte-identical
# too — the pipeline consumes only SAT verdicts, so the solver engines
# can never change a resolution. A fourth gate runs
# --solver nogc (arena GC off, every other engine on): compaction
# relocates clauses, and that may not move a single result byte. A fifth
# gate runs --solver nosls (saved-phase seeding off): seeding decides
# which witness models the cache holds, and so which model some solves
# return, and that may not move a result byte either.
# A sixth gate pins
# the backbone Deduce engine: on the --deduce naive pipeline (where the
# flag is live), the default chunked/model-sweeping engine and --solver
# nobackbone (one Lemma-6 solve per pair) must serialize to the same
# bytes — the entailed pair set is semantically determined, so how it is
# queried may never move a result byte.
#
# Usage: scripts/shard.sh [N] [build-dir]
# Environment:
#   CCR_SHARD_FLAGS  extra ccr_experiment run flags applied to shards and
#                    the reference run alike (e.g. "--dataset nba
#                    --entities 40 --threads 2")

set -euo pipefail

cd "$(dirname "$0")/.."
N="${1:-4}"
BUILD_DIR="${2:-build}"
# Intentionally unquoted below: a list of flags, not one argument.
FLAGS=(${CCR_SHARD_FLAGS:-})

if [[ ! -d "$BUILD_DIR" ]]; then
  CMAKE_ARGS=(-B "$BUILD_DIR" -S .)
  if [[ -z "${CMAKE_GENERATOR:-}" ]] && command -v ninja >/dev/null 2>&1; then
    CMAKE_ARGS+=(-G Ninja)
  fi
  cmake "${CMAKE_ARGS[@]}"
fi
cmake --build "$BUILD_DIR" -j --target ccr_experiment
BIN="$BUILD_DIR/tools/ccr_experiment"

WORK_DIR="$(mktemp -d)"
trap 'rm -rf "$WORK_DIR"' EXIT

echo "Fanning out $N shard processes..."
pids=()
for ((k = 0; k < N; ++k)); do
  "$BIN" "${FLAGS[@]}" --shard "$k/$N" --no-timings \
    --out "$WORK_DIR/shard_$k.json" &
  pids+=($!)
done
for pid in "${pids[@]}"; do
  wait "$pid"
done

"$BIN" --merge "$WORK_DIR"/shard_*.json --no-timings \
  --out "$WORK_DIR/merged.json"
"$BIN" "${FLAGS[@]}" --no-timings --out "$WORK_DIR/single.json"

if cmp "$WORK_DIR/merged.json" "$WORK_DIR/single.json"; then
  echo "OK: $N-shard merge is byte-identical to the single-process run"
else
  echo "FAIL: merged result differs from the single-process run" >&2
  diff "$WORK_DIR/merged.json" "$WORK_DIR/single.json" >&2 || true
  exit 1
fi

echo "Cross-engine exactness: session (default) vs --engine legacy..."
"$BIN" "${FLAGS[@]}" --engine legacy --no-timings \
  --out "$WORK_DIR/legacy.json"
if cmp "$WORK_DIR/legacy.json" "$WORK_DIR/single.json"; then
  echo "OK: legacy engine run is byte-identical to the session engine run"
else
  echo "FAIL: legacy engine result differs from the session engine" >&2
  diff "$WORK_DIR/legacy.json" "$WORK_DIR/single.json" >&2 || true
  exit 1
fi

echo "Cross-solver exactness: every solver engine on (default) vs" \
     "--solver legacy (every engine off)..."
"$BIN" "${FLAGS[@]}" --solver legacy --no-timings \
  --out "$WORK_DIR/legacy_solver.json"
if cmp "$WORK_DIR/legacy_solver.json" "$WORK_DIR/single.json"; then
  echo "OK: legacy-preset run is byte-identical to the default run"
else
  echo "FAIL: legacy-preset result differs from the default solver" >&2
  diff "$WORK_DIR/legacy_solver.json" "$WORK_DIR/single.json" >&2 || true
  exit 1
fi

echo "Memory-lifecycle exactness: arena GC (default, on) vs" \
     "--solver nogc..."
"$BIN" "${FLAGS[@]}" --solver nogc --no-timings \
  --out "$WORK_DIR/nogc_solver.json"
if cmp "$WORK_DIR/nogc_solver.json" "$WORK_DIR/single.json"; then
  echo "OK: GC-off run is byte-identical to the default run"
else
  echo "FAIL: GC-off result differs from the default run" >&2
  diff "$WORK_DIR/nogc_solver.json" "$WORK_DIR/single.json" >&2 || true
  exit 1
fi

echo "Phase-seeding exactness: saved-phase seeding (default, on) vs" \
     "--solver nosls..."
"$BIN" "${FLAGS[@]}" --solver nosls --no-timings \
  --out "$WORK_DIR/nosls_solver.json"
if cmp "$WORK_DIR/nosls_solver.json" "$WORK_DIR/single.json"; then
  echo "OK: seeding-off run is byte-identical to the default run"
else
  echo "FAIL: seeding-off result differs from the default run" >&2
  diff "$WORK_DIR/nosls_solver.json" "$WORK_DIR/single.json" >&2 || true
  exit 1
fi

echo "Backbone-Deduce exactness: chunked entailment (default) vs" \
     "--solver nobackbone, both on the --deduce naive pipeline..."
"$BIN" "${FLAGS[@]}" --deduce naive --no-timings \
  --out "$WORK_DIR/naive_backbone.json"
"$BIN" "${FLAGS[@]}" --deduce naive --solver nobackbone --no-timings \
  --out "$WORK_DIR/naive_perpair.json"
if cmp "$WORK_DIR/naive_backbone.json" "$WORK_DIR/naive_perpair.json"; then
  echo "OK: backbone Deduce run is byte-identical to the per-pair run"
else
  echo "FAIL: backbone Deduce result differs from the per-pair run" >&2
  diff "$WORK_DIR/naive_backbone.json" "$WORK_DIR/naive_perpair.json" \
    >&2 || true
  exit 1
fi
