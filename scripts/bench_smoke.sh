#!/usr/bin/env bash
# CI bench-smoke: run bench_throughput at a tiny size and gate on its JSON.
#
# Shrinks the corpus (CCR_BENCH_TUPLES) so the run finishes in seconds,
# then fails if
#   * either engine-equivalence or determinism check reported false, or
#   * the session/legacy incremental speedup fell below a generous floor
#     (CCR_BENCH_SPEEDUP_FLOOR, default 1.5 — the full-size run measures
#     ~20x, so tripping the floor means the incremental path regressed
#     catastrophically, not that the runner was noisy), or
#   * the incremental-MaxSAT Suggest path reported non-identical results,
#     performed any session rebuild (selector-guarded CFDs pin this at 0),
#     or fell below its own speedup floor (CCR_BENCH_SUGGEST_FLOOR,
#     default 1.3 — the full-size run measures >= 2x), or
#   * the solver ablation (the default solver vs every optional solver
#     engine off, on the solver-bound NaiveDeduce
#     pipeline) reported non-identical resolutions or fell below its
#     floor (CCR_BENCH_SOLVER_FLOOR, default 1.2 — the full-size run
#     measures >= 5x), or
#   * the memory_lifecycle soak (one long-lived session fed answer
#     rounds, arena GC on vs off) reported non-identical results,
#     performed a session rebuild, or reclaimed fewer arena words than
#     CCR_BENCH_GC_RECLAIM_FLOOR (default 1000 — the smoke-scale run
#     deterministically reclaims >= 140k words, so tripping the floor
#     means compaction stopped firing, not that the runner was noisy), or
#   * the deduce_backbone section (backbone Deduce engine on vs off, on
#     the solver-bound NaiveDeduce pipeline) reported non-identical
#     resolutions, a resolve error, a session rebuild, a rounds>=1
#     Deduce speedup below CCR_BENCH_DEDUCE_FLOOR (default 1.5), or a
#     Deduce-phase solver-call reduction below 3x (counter-verified:
#     model sweeping + chunked certification must actually be retiring
#     per-pair Lemma-6 solves, not just winning a timer race), or
#   * the service section (bench_service driving a real server over a
#     loopback socket with forced eviction) reported a ROUND or SNAPSHOT
#     reply that differed from the never-evicted local session
#     (identical_after_rehydrate), a dirty shutdown, any client error,
#     zero rehydrations (the workload forces them — zero means eviction
#     stopped round-tripping through snapshot bytes), or a sessions/sec
#     rate below CCR_BENCH_SERVICE_FLOOR (default 1 — a catastrophic-
#     regression tripwire, not a perf target).
#
# thread_scaling always runs and must always report identical results at
# every thread count of the entity-pool curve. The speedup
# floor (CCR_BENCH_SCALING_FLOOR, default 1.3 at the 2-thread point of
# the entity-pool curve) is only gated on multi-core runners: a 1-core
# container measures scheduling overhead, not scaling, so only the
# determinism contract is enforced there.
#
# The JSON lands in BENCH_throughput.json (CI uploads it as an artifact —
# the repo's perf trajectory across PRs).
#
# Usage: scripts/bench_smoke.sh [build-dir]

set -euo pipefail

cd "$(dirname "$0")/.."

export CCR_BENCH_SCALE="${CCR_BENCH_SCALE:-1}"
export CCR_BENCH_TUPLES="${CCR_BENCH_TUPLES:-250}"
export CCR_BENCH_THREADS="${CCR_BENCH_THREADS:-2}"
FLOOR="${CCR_BENCH_SPEEDUP_FLOOR:-1.5}"
SUGGEST_FLOOR="${CCR_BENCH_SUGGEST_FLOOR:-1.3}"
SOLVER_FLOOR="${CCR_BENCH_SOLVER_FLOOR:-1.2}"
GC_RECLAIM_FLOOR="${CCR_BENCH_GC_RECLAIM_FLOOR:-1000}"
DEDUCE_FLOOR="${CCR_BENCH_DEDUCE_FLOOR:-1.5}"
SERVICE_FLOOR="${CCR_BENCH_SERVICE_FLOOR:-1}"
SCALING_FLOOR="${CCR_BENCH_SCALING_FLOOR:-1.3}"
# The scaling floor needs real cores: gate it only when the runner has
# >= 2 (nproc reflects the container's cpuset, unlike the bench's own
# hardware_concurrency which may see the host).
if [ "$(nproc)" -ge 2 ]; then
  GATE_SCALING=true
else
  GATE_SCALING=false
fi

scripts/bench.sh "${1:-build-bench}"

echo
echo "Gating BENCH_throughput.json (incremental floor: ${FLOOR}x," \
     "suggest floor: ${SUGGEST_FLOOR}x, solver floor: ${SOLVER_FLOOR}x," \
     "GC reclaim floor: ${GC_RECLAIM_FLOOR} words," \
     "backbone deduce floor: ${DEDUCE_FLOOR}x," \
     "service floor: ${SERVICE_FLOOR} sessions/s," \
     "scaling floor: ${SCALING_FLOOR}x at 2 threads [gated: ${GATE_SCALING}])"
jq -e --argjson floor "$FLOOR" --argjson sfloor "$SUGGEST_FLOOR" \
      --argjson solfloor "$SOLVER_FLOOR" \
      --argjson gcfloor "$GC_RECLAIM_FLOOR" \
      --argjson dedfloor "$DEDUCE_FLOOR" \
      --argjson svcfloor "$SERVICE_FLOOR" \
      --argjson scalefloor "$SCALING_FLOOR" \
      --argjson gatescaling "$GATE_SCALING" '
  (.incremental.identical_results == true)
  and (.incremental.resolve_errors == 0)
  and (.suggest_incremental.identical_results == true)
  and (.suggest_incremental.session_rebuilds == 0)
  and (.solver_ablation.identical_results == true)
  and (.solver_ablation.resolve_errors == 0)
  and (.solver_ablation.speedup >= $solfloor)
  and (.thread_scaling.deterministic == true)
  and (.thread_scaling.entity_pool.identical_results == true)
  and ((($gatescaling | not))
       or (.thread_scaling.entity_pool.speedup_2 >= $scalefloor))
  and (.allocation_pooling.deterministic == true)
  and (.memory_lifecycle.identical_results == true)
  and (.memory_lifecycle.session_rebuilds == 0)
  and (.memory_lifecycle.gc_on.reclaimed_words >= $gcfloor)
  and (.deduce_backbone.identical_results == true)
  and (.deduce_backbone.resolve_errors == 0)
  and (.deduce_backbone.session_rebuilds == 0)
  and (.deduce_backbone.speedup >= $dedfloor)
  and (.deduce_backbone.calls_reduction >= 3)
  and (.service.identical_after_rehydrate == true)
  and (.service.clean_shutdown == true)
  and (.service.errors == 0)
  and (.service.rehydrations >= 1)
  and (.service.sessions_per_sec >= $svcfloor)
  and (.incremental.speedup >= $floor)
  and (.suggest_incremental.speedup >= $sfloor)
' BENCH_throughput.json >/dev/null || {
  echo "FAIL: bench smoke gate tripped; BENCH_throughput.json:" >&2
  cat BENCH_throughput.json >&2
  exit 1
}
echo "OK: incremental speedup $(jq .incremental.speedup BENCH_throughput.json)x," \
     "suggest speedup $(jq .suggest_incremental.speedup BENCH_throughput.json)x," \
     "solver ablation speedup $(jq .solver_ablation.speedup BENCH_throughput.json)x," \
     "pooling speedup $(jq .allocation_pooling.speedup BENCH_throughput.json)x," \
     "GC reclaimed $(jq .memory_lifecycle.gc_on.reclaimed_words BENCH_throughput.json) arena words," \
     "backbone deduce speedup $(jq .deduce_backbone.speedup BENCH_throughput.json)x" \
     "(calls reduction $(jq .deduce_backbone.calls_reduction BENCH_throughput.json)x)," \
     "service $(jq .service.sessions_per_sec BENCH_throughput.json) sessions/s" \
     "(p50 $(jq .service.round_p50_ms BENCH_throughput.json) ms," \
     "p99 $(jq .service.round_p99_ms BENCH_throughput.json) ms," \
     "$(jq .service.rehydrations BENCH_throughput.json) rehydrations)," \
     "entity-pool 2-thread speedup $(jq .thread_scaling.entity_pool.speedup_2 BENCH_throughput.json)x," \
     "all equivalence checks true"
