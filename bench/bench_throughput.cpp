// bench_throughput: batch resolution throughput (entities/sec) and the
// ResolutionSession's incremental-extension advantage over the legacy
// re-encode-every-round path.
//
// Unlike the Fig. 8 reproduction benches, this one emits machine-readable
// JSON on stdout (scripts/bench.sh redirects it into
// BENCH_throughput.json) so the repo's perf trajectory can be tracked
// across PRs. Two sections:
//   * "incremental": Person entities with >= 1k tuples driven through
//     >= 3 one-answer oracle rounds, session vs. legacy engine; compares
//     the summed encode+validity time of rounds >= 1 (the rounds where
//     the session appends instead of rebuilding) and checks the two
//     engines resolve identically.
//   * "suggest_incremental": same corpus and runs, but comparing the
//     summed Suggest-phase time of rounds >= 1 — the session runs GetSug
//     as assumption-based incremental MaxSAT on its persistent solver
//     (no Φ(Se) copy, no fresh solver), the legacy engine re-loads Φ(Se)
//     into a throwaway solver every round. Also reports the session's
//     total rebuild count, which selector-guarded CFDs pin at zero.
//   * "solver_ablation": the default solver vs. every optional solver
//     engine off (the legacy preset: no inprocessing, model cache, arena
//     GC, phase seeding or backbone Deduce; the same CDCL search), both on
//     the session engine, measured as end-to-end Resolve wall time over
//     the same >= 1k-tuple Person entities driven through the NaiveDeduce
//     pipeline (the Fig. 8(b) baseline: deduction = thousands of Lemma-6
//     assumption solves on the persistent solver — the most solver-bound
//     configuration the framework has, so the engines are what the ratio
//     measures). Checks both configurations resolve identically: the
//     pipeline consumes only SAT verdicts, so the engines cannot change
//     results.
//   * "thread_scaling": the entity pool measured as a real speedup
//     curve at {1, 2, N} threads (N = CCR_BENCH_THREADS, default
//     hardware_concurrency), each point the minimum of 3 reps. The
//     "entity_pool" tier scales RunExperiment's batched work-stealing
//     driver (entities across worker threads) and checks the pooled
//     accuracy vectors are identical across all thread counts — threads
//     may change wall time, never results. The section always runs and
//     always reports measured numbers; on a 1-core machine the curves
//     simply document the overhead (scripts/bench_smoke.sh only gates the
//     speedup floor when the machine has >= 2 cores).
//   * "allocation_pooling": the cross-entity SessionScratch effect — the
//     same single-threaded batch with reuse_allocations off (every entity
//     allocates its solver arena / watch lists / CNF pool from cold) vs.
//     on (entity N+1 recycles entity N's warm buffers), plus a check that
//     pooling leaves the results bit-identical.
//   * "memory_lifecycle": one long-lived session on a >= 1k-tuple Person
//     entity driven through CCR_BENCH_SOAK_ROUNDS (default 64) ExtendWith
//     rounds of appended tuples plus validity/deduction solves, with the
//     arena GC on vs off. Reports the solver arena's peak and live words
//     and the words reclaimed by collections, checks the two runs deduce
//     identically, and re-checks num_rebuilds == 0.
//     scripts/bench_smoke.sh gates identical_results and a reclaim floor
//     (CCR_BENCH_GC_RECLAIM_FLOOR).
//   * "deduce_backbone": the backbone Deduce engine (model sweeping,
//     propagation-only screening, chunked UNSAT certification — see
//     src/core/deduce.h) on vs off, over the same NaiveDeduce pipeline.
//     Reports the summed rounds >= 1 Deduce-phase time for both, the
//     Deduce-phase solver-call counters (queries, model prunes,
//     propagation proofs, chunk solves), the solver-call reduction
//     ratio, and checks the two configurations resolve identically —
//     the entailed pair set is semantically determined, so the query
//     strategy may never change it. scripts/bench_smoke.sh gates
//     identical_results, session_rebuilds == 0, resolve_errors == 0, a
//     speedup floor (CCR_BENCH_DEDUCE_FLOOR, default 1.5) and a >= 3x
//     calls_reduction.
//
// CCR_BENCH_SCALE multiplies entity counts as in the other benches;
// CCR_BENCH_TUPLES overrides the per-entity tuple floor (default 1000 —
// CI's bench-smoke job shrinks it so the gate finishes in seconds).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench_util.h"
#include "src/common/timer.h"
#include "src/core/session.h"

namespace ccr {
namespace {

int BenchThreads() {
  const char* env = std::getenv("CCR_BENCH_THREADS");
  if (env != nullptr) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  // Derive the N-thread point from the machine instead of hardcoding 8:
  // a 2-core runner then measures a genuine 2-thread speedup rather than
  // oversubscription overhead. hardware_concurrency() may report 0 when
  // unknown; fall back to 2 (the 1-core case skips the section anyway).
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 1 ? static_cast<int>(hc) : 2;
}

int BenchTuples() {
  const char* env = std::getenv("CCR_BENCH_TUPLES");
  if (env != nullptr) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 1000;
}

int BenchSoakRounds() {
  const char* env = std::getenv("CCR_BENCH_SOAK_ROUNDS");
  if (env != nullptr) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  // The arena's dead fraction after R answer rounds on an n-tuple entity
  // grows like R/n (per-round churn is O(n) words against an O(n^2)-word
  // clause database), so a fixed round count would never cross the
  // gc_frac trigger at full corpus size. Scale rounds with the corpus:
  // n/3 rounds put the soak comfortably past the default 25% trigger at
  // every scale the bench runs.
  return std::max(64, BenchTuples() / 3);
}

Dataset BigPersonCorpus(int num_entities) {
  PersonOptions opts;
  opts.num_entities = num_entities;
  opts.min_tuples = BenchTuples();
  opts.max_tuples = opts.min_tuples + opts.min_tuples / 5;
  opts.seed = 90210;
  // Histories rich in gap steps and mid-stage moves: several attributes
  // whose currency information genuinely is not in Σ, so a one-answer
  // oracle needs several rounds (the Fig. 8(m) regime, scaled up).
  opts.p_status_gap = 0.55;
  opts.p_move_only = 0.70;
  return GeneratePerson(opts);
}

bool SameResolution(const ResolveResult& a, const ResolveResult& b) {
  if (a.valid != b.valid || a.complete != b.complete ||
      a.rounds_used != b.rounds_used || a.resolved != b.resolved) {
    return false;
  }
  for (size_t i = 0; i < a.true_values.size(); ++i) {
    if (!(a.true_values[i] == b.true_values[i])) return false;
  }
  return true;
}

// One long-lived session soak for the memory_lifecycle section: append a
// copied tuple every round (guarded grounding keeps every delta
// append-only), re-solve validity each round and deduction periodically,
// and watch the solver arena.
struct MemorySoak {
  bool ok = false;
  size_t peak_words = 0;
  size_t live_words = 0;
  int64_t gc_runs = 0;
  int64_t reclaimed_words = 0;
  int64_t rebuilds = 0;
  std::vector<bool> valid_by_round;
  std::vector<std::tuple<int, int, int>> deduced;  // (attr, u, v) closure
};

MemorySoak RunMemorySoak(const Specification& spec,
                         const std::vector<Value>& truth, bool lifecycle_on,
                         int rounds) {
  MemorySoak out;
  ResolveOptions opts;
  opts.naive_deduce = true;  // Lemma-6 churn on the persistent solver
  opts.solver.use_arena_gc = lifecycle_on;
  // A long-lived memory-bound service runs the collector eagerly; the
  // answer-round dead fraction plateaus near ~20% of the arena at large
  // corpus sizes, so the production default (0.25) would let this soak
  // coast without ever compacting. 0.10 makes the collector fire at
  // every scale the bench runs — which is the point: trigger, compact,
  // and prove the results unchanged.
  opts.solver.gc_frac = 0.10;
  auto session = ResolutionSession::Create(spec, opts);
  if (!session.ok()) return out;
  const int n_attrs = spec.schema().size();
  auto record_deduced = [&](const DeducedOrders& d) {
    out.deduced.clear();
    for (size_t a = 0; a < d.per_attr.size(); ++a) {
      const PartialOrder& po = d.per_attr[a];
      for (int u = 0; u < po.num_elements(); ++u) {
        for (int v = 0; v < po.num_elements(); ++v) {
          if (po.Less(u, v)) {
            out.deduced.emplace_back(static_cast<int>(a), u, v);
          }
        }
      }
    }
  };
  int to_index = spec.instance().size();
  for (int r = 0; r < rounds; ++r) {
    // The resolver's user-answer shape (§III Remark (1)): a tuple t_o
    // carrying the ground-truth value of one attribute, ordered above
    // every existing tuple on that attribute. Truth answers are always
    // consistent, so round after round of them keeps the session valid
    // while unit cascades satisfy old clauses and retire guards — the
    // churn a long-lived resolution session actually produces.
    int a = r % n_attrs;
    for (int probe = 0; probe < n_attrs && truth[a].is_null(); ++probe) {
      a = (a + 1) % n_attrs;
    }
    if (truth[a].is_null()) return out;
    PartialTemporalOrder ot;
    Tuple to(std::vector<Value>(n_attrs, Value::Null()));
    to[a] = truth[a];
    ot.new_tuples.push_back(std::move(to));
    for (int t = 0; t < to_index; ++t) ot.orders.emplace_back(a, t, to_index);
    if (!session->ExtendWith(ot).ok()) return out;
    ++to_index;
    out.valid_by_round.push_back(session->CheckValidity().valid);
    if (r % 4 == 3 || r == rounds - 1) record_deduced(session->Deduce());
  }
  const sat::Solver& solver = session->solver();
  out.peak_words = solver.arena_peak_words();
  out.live_words = solver.arena_live_words();
  out.gc_runs = solver.stats().gc_runs;
  out.reclaimed_words = solver.stats().gc_reclaimed_words;
  out.rebuilds = session->rebuilds();
  out.ok = true;
  return out;
}

bool SameAccuracy(const ExperimentResult& a, const ExperimentResult& b) {
  if (a.accuracy_by_round.size() != b.accuracy_by_round.size()) return false;
  for (size_t k = 0; k < a.accuracy_by_round.size(); ++k) {
    if (a.accuracy_by_round[k].deduced != b.accuracy_by_round[k].deduced ||
        a.accuracy_by_round[k].correct != b.accuracy_by_round[k].correct ||
        a.accuracy_by_round[k].conflicts !=
            b.accuracy_by_round[k].conflicts) {
      return false;
    }
  }
  return a.pct_true_by_round == b.pct_true_by_round;
}

}  // namespace
}  // namespace ccr

int main() {
  using namespace ccr;
  const int scale = bench::BenchScale();

  // --- incremental round extension vs. full per-round rebuild ------------
  const Dataset inc_ds = BigPersonCorpus(4 * scale);
  ResolveOptions session_opts;
  session_opts.use_session = true;
  ResolveOptions legacy_opts;
  legacy_opts.use_session = false;

  double session_ms = 0;     // rounds >= 1, encode + validity
  double legacy_ms = 0;
  double session_suggest_ms = 0;  // rounds >= 1, Suggest phase
  double legacy_suggest_ms = 0;
  int64_t session_rebuilds = 0;
  int64_t session_assumption_solves = 0;
  int max_oracle_rounds = 0;
  int min_tuples = 1 << 30;
  int resolve_errors = 0;  // entities skipped (not an equivalence verdict)
  bool identical = true;
  for (size_t e = 0; e < inc_ds.entities.size(); ++e) {
    min_tuples = std::min(min_tuples, inc_ds.entities[e].instance.size());
    // One answer per round forces several interaction rounds.
    TruthOracle o1(inc_ds.entities[e].truth, /*answers_per_round=*/1);
    TruthOracle o2(inc_ds.entities[e].truth, /*answers_per_round=*/1);
    session_opts.max_rounds = 6;
    legacy_opts.max_rounds = 6;
    auto rs = Resolve(inc_ds.MakeSpec(static_cast<int>(e)), &o1,
                      session_opts);
    auto rl = Resolve(inc_ds.MakeSpec(static_cast<int>(e)), &o2,
                      legacy_opts);
    if (!rs.ok() || !rl.ok()) {
      ++resolve_errors;
      continue;
    }
    identical = identical && SameResolution(*rs, *rl);
    max_oracle_rounds = std::max(max_oracle_rounds, rs->rounds_used);
    for (const RoundTrace& t : rs->trace) {
      if (t.round >= 1) {
        session_ms += t.encode_ms + t.validity_ms;
        session_suggest_ms += t.suggest_ms;
      }
      session_rebuilds += t.num_rebuilds;
      session_assumption_solves += t.num_assumption_solves;
    }
    for (const RoundTrace& t : rl->trace) {
      if (t.round >= 1) {
        legacy_ms += t.encode_ms + t.validity_ms;
        legacy_suggest_ms += t.suggest_ms;
      }
    }
  }
  const double inc_speedup = session_ms > 0 ? legacy_ms / session_ms : 0.0;
  const double suggest_speedup =
      session_suggest_ms > 0 ? legacy_suggest_ms / session_suggest_ms : 0.0;

  // --- solver ablation: defaults vs every optional engine off ------------
  ResolveOptions modern_sat;
  modern_sat.naive_deduce = true;  // Lemma-6 solver-bound deduction
  modern_sat.max_rounds = 3;
  ResolveOptions legacy_sat = modern_sat;
  legacy_sat.solver = sat::SolverOptions::LegacyHeuristics();

  double modern_sat_ms = 0;
  double legacy_sat_ms = 0;
  int64_t ablation_binary_props = 0;
  int ablation_errors = 0;
  bool ablation_identical = true;
  Timer timer;
  for (size_t e = 0; e < inc_ds.entities.size(); ++e) {
    TruthOracle om(inc_ds.entities[e].truth, /*answers_per_round=*/1);
    TruthOracle ol(inc_ds.entities[e].truth, /*answers_per_round=*/1);
    timer.Restart();
    auto rm = Resolve(inc_ds.MakeSpec(static_cast<int>(e)), &om, modern_sat);
    modern_sat_ms += timer.ElapsedMs();
    timer.Restart();
    auto rl = Resolve(inc_ds.MakeSpec(static_cast<int>(e)), &ol, legacy_sat);
    legacy_sat_ms += timer.ElapsedMs();
    if (!rm.ok() || !rl.ok()) {
      ++ablation_errors;
      continue;
    }
    ablation_identical = ablation_identical && SameResolution(*rm, *rl);
    for (const RoundTrace& t : rm->trace) {
      ablation_binary_props += t.validity_solver.binary_propagations +
                               t.deduce_solver.binary_propagations +
                               t.suggest_solver.binary_propagations +
                               t.encode_solver.binary_propagations;
    }
  }
  const double ablation_speedup =
      modern_sat_ms > 0 ? legacy_sat_ms / modern_sat_ms : 0.0;

  // --- thread scaling: the entity pool -----------------------------------
  const int n_threads = BenchThreads();
  const Dataset batch_ds = BigPersonCorpus(2 * n_threads * scale);
  const int n_entities = static_cast<int>(batch_ds.entities.size());
  // Each curve point is the minimum of kScalingReps timed runs: the
  // per-point wall time sits inside scheduler jitter for one sample, and
  // the min is the run least perturbed by the OS. The equivalence check
  // uses the first rep's result; the runs are deterministic, so later
  // reps would only repeat it.
  constexpr int kScalingReps = 3;
  auto time_experiment = [&](const ExperimentOptions& o,
                             ExperimentResult* first) {
    double best = 0;
    for (int rep = 0; rep < kScalingReps; ++rep) {
      timer.Restart();
      ExperimentResult r = RunExperiment(batch_ds, o);
      const double sec = timer.ElapsedMs() / 1000.0;
      if (rep == 0) {
        *first = std::move(r);
        best = sec;
      } else {
        best = std::min(best, sec);
      }
    }
    return best;
  };

  // Tier 1 — entity pool: the batched work-stealing driver spreads whole
  // entities across worker threads.
  ExperimentOptions eopts;
  eopts.max_rounds = 3;
  eopts.answers_per_round = 1;
  ExperimentResult pool_r1, pool_r2, pool_rn;
  eopts.num_threads = 1;
  const double pool_t1 = time_experiment(eopts, &pool_r1);
  eopts.num_threads = 2;
  const double pool_t2 = time_experiment(eopts, &pool_r2);
  double pool_tn = pool_t2;
  if (n_threads > 2) {
    eopts.num_threads = n_threads;
    pool_tn = time_experiment(eopts, &pool_rn);
  } else {
    pool_rn = pool_r2;
  }
  const bool pool_identical =
      SameAccuracy(pool_r1, pool_r2) && SameAccuracy(pool_r1, pool_rn);

  // --- cross-entity allocation pooling (SessionScratch) ------------------
  ExperimentOptions popts;
  popts.max_rounds = 3;
  popts.answers_per_round = 1;
  popts.num_threads = 1;

  popts.reuse_allocations = false;
  timer.Restart();
  const ExperimentResult r_cold = RunExperiment(inc_ds, popts);
  const double cold_sec = timer.ElapsedMs() / 1000.0;

  popts.reuse_allocations = true;
  timer.Restart();
  const ExperimentResult r_pooled = RunExperiment(inc_ds, popts);
  const double pooled_sec = timer.ElapsedMs() / 1000.0;

  // --- solver memory lifecycle (arena GC on vs off) ----------------------
  const int soak_rounds = BenchSoakRounds();
  const Dataset soak_ds = BigPersonCorpus(1);
  const Specification soak_spec = soak_ds.MakeSpec(0);
  const MemorySoak soak_gc = RunMemorySoak(
      soak_spec, soak_ds.entities[0].truth, /*lifecycle_on=*/true,
      soak_rounds);
  const MemorySoak soak_nogc = RunMemorySoak(
      soak_spec, soak_ds.entities[0].truth, /*lifecycle_on=*/false,
      soak_rounds);
  const bool soak_identical = soak_gc.ok && soak_nogc.ok &&
                              soak_gc.valid_by_round ==
                                  soak_nogc.valid_by_round &&
                              soak_gc.deduced == soak_nogc.deduced;

  // --- backbone Deduce: chunked entailment vs per-pair Lemma-6 -----------
  // The solver-bound NaiveDeduce pipeline; the two configurations
  // differ ONLY in use_backbone_deduce. The counters say
  // where the solver calls went: model sweeps and propagation proofs
  // resolve pairs with no solve at all, and each chunk solve certifies up
  // to kBackboneChunkSize entailments at once.
  ResolveOptions bb_on;
  bb_on.use_session = true;
  bb_on.naive_deduce = true;
  bb_on.max_rounds = 6;
  ResolveOptions bb_off = bb_on;
  bb_off.solver.use_backbone_deduce = false;

  double bb_deduce_ms = 0, perpair_deduce_ms = 0;
  int64_t bb_queries = 0, perpair_queries = 0;
  int64_t bb_model_prunes = 0, bb_prop_proofs = 0, bb_chunk_solves = 0;
  int64_t bb_rebuilds = 0;
  int bb_errors = 0;
  bool bb_identical = true;
  constexpr int kBbReps = 3;
  for (int rep = 0; rep < kBbReps; ++rep) {
    double rep_bb_deduce = 0, rep_perpair_deduce = 0;
    for (size_t e = 0; e < inc_ds.entities.size(); ++e) {
      TruthOracle ob(inc_ds.entities[e].truth, /*answers_per_round=*/1);
      TruthOracle op(inc_ds.entities[e].truth, /*answers_per_round=*/1);
      auto rb = Resolve(inc_ds.MakeSpec(static_cast<int>(e)), &ob, bb_on);
      auto rp = Resolve(inc_ds.MakeSpec(static_cast<int>(e)), &op, bb_off);
      if (!rb.ok() || !rp.ok()) {
        if (rep == 0) ++bb_errors;
        continue;
      }
      if (rep == 0) {
        bb_identical = bb_identical && SameResolution(*rb, *rp);
      }
      for (const RoundTrace& t : rb->trace) {
        if (t.round >= 1) rep_bb_deduce += t.deduce_ms;
        if (rep == 0) {
          bb_rebuilds += t.num_rebuilds;
          bb_queries += t.deduce_solver.deduce_queries;
          bb_model_prunes += t.deduce_solver.deduce_model_prunes;
          bb_prop_proofs += t.deduce_solver.deduce_propagation_proofs;
          bb_chunk_solves += t.deduce_solver.deduce_chunk_solves;
        }
      }
      for (const RoundTrace& t : rp->trace) {
        if (t.round >= 1) rep_perpair_deduce += t.deduce_ms;
        if (rep == 0) {
          bb_rebuilds += t.num_rebuilds;
          perpair_queries += t.deduce_solver.deduce_queries;
        }
      }
    }
    if (rep == 0 || rep_bb_deduce < bb_deduce_ms) {
      bb_deduce_ms = rep_bb_deduce;
    }
    if (rep == 0 || rep_perpair_deduce < perpair_deduce_ms) {
      perpair_deduce_ms = rep_perpair_deduce;
    }
  }
  const double bb_speedup =
      bb_deduce_ms > 0 ? perpair_deduce_ms / bb_deduce_ms : 0.0;
  const double bb_calls_reduction =
      bb_queries > 0 ? static_cast<double>(perpair_queries) /
                           static_cast<double>(bb_queries)
                     : 0.0;

  std::printf("{\n");
  std::printf("  \"bench\": \"throughput\",\n");
  std::printf("  \"scale\": %d,\n", scale);
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"incremental\": {\n");
  std::printf("    \"entities\": %d,\n",
              static_cast<int>(inc_ds.entities.size()));
  std::printf("    \"min_tuples_per_entity\": %d,\n", min_tuples);
  std::printf("    \"oracle_rounds\": %d,\n", max_oracle_rounds);
  std::printf("    \"session_round1plus_encode_validity_ms\": %.3f,\n",
              session_ms);
  std::printf("    \"legacy_round1plus_encode_validity_ms\": %.3f,\n",
              legacy_ms);
  std::printf("    \"speedup\": %.3f,\n", inc_speedup);
  std::printf("    \"resolve_errors\": %d,\n", resolve_errors);
  std::printf("    \"identical_results\": %s\n", identical ? "true" : "false");
  std::printf("  },\n");
  std::printf("  \"suggest_incremental\": {\n");
  std::printf("    \"entities\": %d,\n",
              static_cast<int>(inc_ds.entities.size()));
  std::printf("    \"min_tuples_per_entity\": %d,\n", min_tuples);
  std::printf("    \"session_round1plus_suggest_ms\": %.3f,\n",
              session_suggest_ms);
  std::printf("    \"legacy_round1plus_suggest_ms\": %.3f,\n",
              legacy_suggest_ms);
  std::printf("    \"speedup\": %.3f,\n", suggest_speedup);
  std::printf("    \"session_rebuilds\": %lld,\n",
              static_cast<long long>(session_rebuilds));
  std::printf("    \"session_assumption_solves\": %lld,\n",
              static_cast<long long>(session_assumption_solves));
  std::printf("    \"identical_results\": %s\n", identical ? "true" : "false");
  std::printf("  },\n");
  std::printf("  \"solver_ablation\": {\n");
  std::printf("    \"entities\": %d,\n",
              static_cast<int>(inc_ds.entities.size()));
  std::printf("    \"min_tuples_per_entity\": %d,\n", min_tuples);
  std::printf("    \"pipeline\": \"naive_deduce\",\n");
  std::printf("    \"modern_resolve_ms\": %.3f,\n", modern_sat_ms);
  std::printf("    \"legacy_heuristics_resolve_ms\": %.3f,\n", legacy_sat_ms);
  std::printf("    \"speedup\": %.3f,\n", ablation_speedup);
  std::printf("    \"binary_propagations\": %lld,\n",
              static_cast<long long>(ablation_binary_props));
  std::printf("    \"resolve_errors\": %d,\n", ablation_errors);
  std::printf("    \"identical_results\": %s\n",
              ablation_identical ? "true" : "false");
  std::printf("  },\n");
  std::printf("  \"thread_scaling\": {\n");
  std::printf("    \"entities\": %d,\n", n_entities);
  std::printf("    \"threads_max\": %d,\n", n_threads);
  std::printf("    \"reps\": %d,\n", kScalingReps);
  std::printf("    \"entity_pool\": {\n");
  std::printf("      \"t1_seconds\": %.3f,\n", pool_t1);
  std::printf("      \"t2_seconds\": %.3f,\n", pool_t2);
  std::printf("      \"tN_seconds\": %.3f,\n", pool_tn);
  std::printf("      \"t1_entities_per_sec\": %.3f,\n",
              pool_t1 > 0 ? n_entities / pool_t1 : 0.0);
  std::printf("      \"tN_entities_per_sec\": %.3f,\n",
              pool_tn > 0 ? n_entities / pool_tn : 0.0);
  std::printf("      \"speedup_2\": %.3f,\n",
              pool_t2 > 0 ? pool_t1 / pool_t2 : 0.0);
  std::printf("      \"speedup_N\": %.3f,\n",
              pool_tn > 0 ? pool_t1 / pool_tn : 0.0);
  std::printf("      \"identical_results\": %s\n",
              pool_identical ? "true" : "false");
  std::printf("    },\n");
  std::printf("    \"deterministic\": %s\n",
              pool_identical ? "true" : "false");
  std::printf("  },\n");
  std::printf("  \"allocation_pooling\": {\n");
  std::printf("    \"entities\": %d,\n",
              static_cast<int>(inc_ds.entities.size()));
  std::printf("    \"cold_seconds\": %.3f,\n", cold_sec);
  std::printf("    \"pooled_seconds\": %.3f,\n", pooled_sec);
  std::printf("    \"speedup\": %.3f,\n",
              pooled_sec > 0 ? cold_sec / pooled_sec : 0.0);
  std::printf("    \"deterministic\": %s\n",
              SameAccuracy(r_cold, r_pooled) ? "true" : "false");
  std::printf("  },\n");
  std::printf("  \"memory_lifecycle\": {\n");
  std::printf("    \"tuples\": %d,\n", soak_spec.instance().size());
  std::printf("    \"rounds\": %d,\n", soak_rounds);
  std::printf("    \"gc_on\": {\"peak_arena_words\": %zu, "
              "\"live_arena_words\": %zu, \"gc_runs\": %lld, "
              "\"reclaimed_words\": %lld},\n",
              soak_gc.peak_words, soak_gc.live_words,
              static_cast<long long>(soak_gc.gc_runs),
              static_cast<long long>(soak_gc.reclaimed_words));
  std::printf("    \"gc_off\": {\"peak_arena_words\": %zu, "
              "\"live_arena_words\": %zu, \"gc_runs\": %lld, "
              "\"reclaimed_words\": %lld},\n",
              soak_nogc.peak_words, soak_nogc.live_words,
              static_cast<long long>(soak_nogc.gc_runs),
              static_cast<long long>(soak_nogc.reclaimed_words));
  std::printf("    \"peak_ratio_off_over_on\": %.3f,\n",
              soak_gc.peak_words > 0
                  ? static_cast<double>(soak_nogc.peak_words) /
                        static_cast<double>(soak_gc.peak_words)
                  : 0.0);
  std::printf("    \"session_rebuilds\": %lld,\n",
              static_cast<long long>(soak_gc.rebuilds + soak_nogc.rebuilds));
  std::printf("    \"identical_results\": %s\n",
              soak_identical ? "true" : "false");
  std::printf("  },\n");
  std::printf("  \"deduce_backbone\": {\n");
  std::printf("    \"entities\": %d,\n",
              static_cast<int>(inc_ds.entities.size()));
  std::printf("    \"min_tuples_per_entity\": %d,\n", min_tuples);
  std::printf("    \"pipeline\": \"naive_deduce\",\n");
  std::printf("    \"backbone_round1plus_deduce_ms\": %.3f,\n", bb_deduce_ms);
  std::printf("    \"perpair_round1plus_deduce_ms\": %.3f,\n",
              perpair_deduce_ms);
  std::printf("    \"speedup\": %.3f,\n", bb_speedup);
  std::printf("    \"backbone_deduce_queries\": %lld,\n",
              static_cast<long long>(bb_queries));
  std::printf("    \"perpair_deduce_queries\": %lld,\n",
              static_cast<long long>(perpair_queries));
  std::printf("    \"calls_reduction\": %.3f,\n", bb_calls_reduction);
  std::printf("    \"model_prunes\": %lld,\n",
              static_cast<long long>(bb_model_prunes));
  std::printf("    \"propagation_proofs\": %lld,\n",
              static_cast<long long>(bb_prop_proofs));
  std::printf("    \"chunk_solves\": %lld,\n",
              static_cast<long long>(bb_chunk_solves));
  std::printf("    \"resolve_errors\": %d,\n", bb_errors);
  std::printf("    \"session_rebuilds\": %lld,\n",
              static_cast<long long>(bb_rebuilds));
  std::printf("    \"identical_results\": %s\n",
              bb_identical ? "true" : "false");
  std::printf("  }\n");
  std::printf("}\n");
  return 0;
}
