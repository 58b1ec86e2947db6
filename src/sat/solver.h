// Conflict-driven clause learning (CDCL) SAT solver.
//
// This is the repository's stand-in for MiniSat [19], which the paper's
// IsValid uses to decide whether a specification Se has a valid completion.
// It runs one search policy, the textbook MiniSat core: two-watched-literal
// propagation with a dedicated implicit watch list for binary clauses
// (binaries never touch the clause arena — the currency-order and CFD
// encodings are dominated by binary implications), 1-UIP conflict analysis
// with one-step conflict-clause minimization, VSIDS decision ordering,
// phase saving, Luby restarts, and one activity-sorted learnt database
// halved whenever it outgrows its budget, with incremental solving under
// assumptions (used by NaiveDeduce and the MaxSAT layer). Around that
// core sit the optional engines SolverOptions can switch off: a
// cached-model witness pool that answers assumption solves without
// search, clause vivification run from Simplify() between session rounds,
// compacting arena garbage collection, and a saved-phase check that
// publishes the phases as a witness when they already form a model.
// The pipeline above consumes only SAT/UNSAT verdicts, so every option
// combination resolves every entity identically.

#ifndef CCR_SAT_SOLVER_H_
#define CCR_SAT_SOLVER_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/sat/cnf.h"
#include "src/sat/literal.h"

namespace ccr::sat {

/// The optional engines around the one CDCL search policy. The defaults
/// turn every engine on; LegacyHeuristics() turns every one off.
struct SolverOptions {
  /// Inprocessing in Simplify(): clause vivification of the problem
  /// clauses appended since the last pass. Intended between session
  /// rounds, after the encode layer appended the round's delta. Off =
  /// Simplify only sweeps satisfied clauses.
  bool use_inprocessing = true;
  /// Cached-model witness reuse (the backbone-extraction trick): an
  /// assumption solve first probes the models of recent kSat calls — a
  /// cached model satisfying every assumption IS the answer, no search.
  /// Adding a clause or freezing a scope invalidates the cache; clause
  /// learning and inprocessing are implication-preserving and do not.
  /// This is what makes NaiveDeduce's d² Lemma-6 queries cheap: most are
  /// satisfiable, and each real solve's model witnesses many later ones.
  /// The verdict is exact either way, so results cannot change.
  bool use_model_cache = true;
  /// Compacting arena garbage collection: once the words owned by dead
  /// clauses (removed, swept, shrunk) exceed gc_frac of
  /// the arena, live clauses relocate into a fresh arena and every
  /// ClauseRef holder — watch lists, reason slots, the learnt DB — is
  /// rewritten. Triggered from Simplify() and after
  /// learnt-DB reductions; list and watcher order is preserved, so GC
  /// changes memory and time only, never a verdict or a model.
  bool use_arena_gc = true;
  double gc_frac = 0.25;
  /// Saved-phase seeding: after each encode step the session calls
  /// Solver::SeedFromLocalSearch, which checks whether the saved phases
  /// (with the level-0 trail and the guard assumptions fixed) already
  /// satisfy every clause and, when they do, pushes that model into the
  /// cached-model ring as a genuine witness. It reads phases and never
  /// writes them, so it can only change time-to-verdict, never a verdict.
  bool use_sls_seeding = true;
  /// Backbone-style Deduce (src/core/deduce.cc): the per-pair Lemma-6
  /// loop of NaiveDeduceShared is replaced by a three-tier backbone
  /// engine — model sweeping (every SAT answer refutes all candidate
  /// pairs its model assigns false, in O(1) per pair), propagation-only
  /// failed-literal screening (assume ¬x, propagate, no search), and
  /// chunked UNSAT certification (one scoped clause ¬x1 ∨ … ∨ ¬xk
  /// certifies a whole chunk entailed in a single solve). The entailed
  /// pair set is semantically determined (Lemma 6), so verdicts and all
  /// downstream bytes are identical by construction; only the number of
  /// solver calls changes. Off = one SolveWithAssumptions per pair.
  bool use_backbone_deduce = true;

  /// Every optional engine above off: the bare CDCL search. The single
  /// definition the ablation bench, `ccr_experiment --solver legacy` and
  /// the equivalence tests share — a new engine flag added here is off
  /// in the legacy preset everywhere at once.
  static SolverOptions LegacyHeuristics() {
    SolverOptions o;
    o.use_inprocessing = false;
    o.use_model_cache = false;
    o.use_arena_gc = false;
    o.use_sls_seeding = false;
    o.use_backbone_deduce = false;
    return o;
  }
};

/// A named SolverOptions configuration. The one vocabulary shared by
/// `ccr_experiment --solver`, the service wire's `solver_preset` and
/// snapshot validation:
///   modern      the defaults
///   sls         alias of modern (saved-phase seeding is on)
///   legacy      LegacyHeuristics(): every optional engine off
///   nogc        modern with arena GC off
///   nosls       modern with saved-phase seeding off
///   nobackbone  modern with the per-pair Lemma-6 Deduce loop
/// Every preset resolves every entity identically; the presets exist so
/// byte-identity lanes and A/B benches can prove exactly that.
struct SolverPreset {
  std::string_view name;
  SolverOptions options;
};

/// Every preset, in the order above.
std::span<const SolverPreset> SolverPresets();

/// The options of the preset called `name`; InvalidArgument otherwise.
Result<SolverOptions> SolverOptionsForPreset(std::string_view name);

/// Outcome of a solve call. Solve and SolveWithAssumptions return only
/// kSat or kUnsat: the search runs until it decides. kUnknown is the
/// search loop's private restart signal and never escapes a solve call.
enum class SolveResult { kSat, kUnsat, kUnknown };

/// Solver statistics (cumulative across Solve calls).
struct SolverStats {
  int64_t conflicts = 0;
  int64_t decisions = 0;
  int64_t propagations = 0;
  int64_t restarts = 0;
  int64_t learnt_literals = 0;
  /// Solve calls that carried at least one assumption. With one solver
  /// persisting across pipeline phases and rounds, this is the count of
  /// conditional queries answered without copying or rebuilding anything.
  int64_t assumption_solves = 0;
  /// Literals enqueued from the implicit binary watch lists (a subset of
  /// the implications behind `propagations`, which counts trail literals
  /// processed).
  int64_t binary_propagations = 0;
  /// Inprocessing: literals removed from problem clauses by vivification.
  int64_t vivified = 0;
  /// Assumption solves answered from the cached-model pool without any
  /// search (use_model_cache).
  int64_t model_cache_hits = 0;
  /// Arena garbage collections run, and the arena words they reclaimed
  /// (use_arena_gc).
  int64_t gc_runs = 0;
  int64_t gc_reclaimed_words = 0;
  /// Always 0: SeedFromLocalSearch checks the saved phases and never
  /// flips a variable. Kept because the benchmark harness reports it.
  int64_t sls_flips = 0;
  /// Saved-phase models SeedFromLocalSearch pushed into the cached-model
  /// ring (use_sls_seeding with use_model_cache).
  int64_t sls_seeded_models = 0;
  /// Backbone-style Deduce (reported by src/core/deduce.cc via
  /// RecordDeduce): solver calls issued by the Deduce phase (the initial
  /// validity solve plus, per-pair under the naive loop or per-chunk
  /// under use_backbone_deduce, every SolveWithAssumptions), candidate
  /// pairs refuted by sweeping a SAT model (x_ij = false is a
  /// non-entailment witness), pairs certified entailed by propagation
  /// alone (guard-forced x_ij or a failed ¬x_ij probe), and chunked
  /// certification solves (SAT and UNSAT alike).
  int64_t deduce_queries = 0;
  int64_t deduce_model_prunes = 0;
  int64_t deduce_propagation_proofs = 0;
  int64_t deduce_chunk_solves = 0;

  /// Component-wise difference (for per-call and per-phase deltas).
  SolverStats operator-(const SolverStats& o) const {
    return {conflicts - o.conflicts,
            decisions - o.decisions,
            propagations - o.propagations,
            restarts - o.restarts,
            learnt_literals - o.learnt_literals,
            assumption_solves - o.assumption_solves,
            binary_propagations - o.binary_propagations,
            vivified - o.vivified,
            model_cache_hits - o.model_cache_hits,
            gc_runs - o.gc_runs,
            gc_reclaimed_words - o.gc_reclaimed_words,
            sls_flips - o.sls_flips,
            sls_seeded_models - o.sls_seeded_models,
            deduce_queries - o.deduce_queries,
            deduce_model_prunes - o.deduce_model_prunes,
            deduce_propagation_proofs - o.deduce_propagation_proofs,
            deduce_chunk_solves - o.deduce_chunk_solves};
  }

  /// Component-wise sum (for pooling per-phase deltas across rounds and
  /// entities).
  SolverStats& operator+=(const SolverStats& o) {
    conflicts += o.conflicts;
    decisions += o.decisions;
    propagations += o.propagations;
    restarts += o.restarts;
    learnt_literals += o.learnt_literals;
    assumption_solves += o.assumption_solves;
    binary_propagations += o.binary_propagations;
    vivified += o.vivified;
    model_cache_hits += o.model_cache_hits;
    gc_runs += o.gc_runs;
    gc_reclaimed_words += o.gc_reclaimed_words;
    sls_flips += o.sls_flips;
    sls_seeded_models += o.sls_seeded_models;
    deduce_queries += o.deduce_queries;
    deduce_model_prunes += o.deduce_model_prunes;
    deduce_propagation_proofs += o.deduce_propagation_proofs;
    deduce_chunk_solves += o.deduce_chunk_solves;
    return *this;
  }
};

/// \brief Incremental CDCL solver.
///
/// Typical use:
///   Solver s;
///   s.AddCnf(phi);
///   if (s.Solve() == SolveResult::kSat) { ... s.ModelValue(v) ... }
///
/// Clauses may be added between Solve calls; assumptions make a solve
/// conditional without permanently asserting the literals.
class Solver {
 public:
  explicit Solver(SolverOptions options = {});
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Allocates a fresh variable.
  Var NewVar();
  int num_vars() const { return static_cast<int>(assigns_.size()); }

  /// Adds a clause. Returns false if the solver is already in an
  /// unsatisfiable state (empty clause derived at level 0).
  bool AddClause(std::vector<Lit> lits);

  /// Adds every clause of `cnf`, growing the variable universe as needed.
  void AddCnf(const Cnf& cnf) { AddCnfFrom(cnf, 0); }

  /// Adds the clauses of `cnf` starting at index `first_clause`. Used by
  /// callers that keep one solver alive while their CNF grows append-only
  /// (the ResolutionSession pipeline): only the new suffix is fed.
  void AddCnfFrom(const Cnf& cnf, int first_clause);

  /// Decides satisfiability of the accumulated clauses.
  SolveResult Solve() { return SolveInternal({}); }

  /// Decides satisfiability under the given assumption literals. The
  /// assumptions hold for this call only — nothing is permanently
  /// asserted, which is what lets one persistent solver answer every
  /// phase of a ResolutionSession (validity, deduction, suggestion)
  /// without copying CNF.
  SolveResult SolveWithAssumptions(std::span<const Lit> assumptions) {
    return SolveInternal(assumptions);
  }
  SolveResult SolveWithAssumptions(std::initializer_list<Lit> assumptions) {
    return SolveInternal(
        std::span<const Lit>(assumptions.begin(), assumptions.size()));
  }

  /// Model access after kSat. Precondition: last solve returned kSat.
  bool ModelValue(Var v) const { return model_[v] == Lbool::kTrue; }
  Lbool ModelLbool(Var v) const { return model_[v]; }

  /// After kUnsat under assumptions: a subset of the assumptions that is
  /// already jointly inconsistent with the clauses (an unsat "core").
  const std::vector<Lit>& FailedAssumptions() const { return conflict_core_; }

  const SolverStats& stats() const { return stats_; }
  const SolverOptions& options() const { return options_; }

  /// Statistics of the most recent Solve/SolveWithAssumptions call alone.
  /// With one solver shared across pipeline phases (validity, deduction,
  /// suggestion) the cumulative counters blend phases together; the
  /// per-call delta keeps phase attribution meaningful.
  const SolverStats& last_call_stats() const { return last_call_; }

  /// Top-level simplification hook: propagates any pending level-0 facts,
  /// detaches problem and learnt clauses already satisfied at level 0,
  /// and — when options.use_inprocessing is set — vivifies the problem
  /// clauses appended since the last pass. Intended between rounds of an
  /// incremental session, after new clauses were appended. Vivification
  /// is equivalence-preserving, so every verdict the solver produces
  /// afterwards is unchanged. Returns false if the solver is (now)
  /// unsatisfiable.
  bool Simplify();

  /// Declares the problem clauses loaded so far already vivified: future
  /// Simplify() calls distill only the clauses appended afterwards (the
  /// session rounds' deltas). ResolutionSession calls this once after
  /// loading Φ(Se) — distilling a freshly generated, canonical encoding
  /// wholesale costs more propagation than every solve of the session
  /// combined. Without priming, the first Simplify() primes implicitly.
  void PrimeInprocessing();

  /// True if unsatisfiability was established independent of assumptions.
  bool IsUnsatForever() const { return !ok_; }

  /// Saved-phase check. Takes the level-0 trail, `assumptions`, and the
  /// saved phase of every other variable, and evaluates that assignment
  /// against every live problem clause and binary. If it is a model, it
  /// is pushed into the cached-model ring (when use_model_cache is on)
  /// and counted in sls_seeded_models. Returns whether it was a model.
  /// Never flips a variable and never writes a saved phase, so it cannot
  /// change a later search — only let a later solve hit the ring. Must be
  /// called at decision level 0. (The name predates the check: it once
  /// ran a local search.)
  bool SeedFromLocalSearch(std::span<const Lit> assumptions = {});

  /// Deduce-phase reporting (src/core/deduce.cc): entailment solver
  /// calls issued, pairs refuted by model sweeping, pairs certified by
  /// propagation alone, and chunked certification solves. Folded into
  /// stats_ so RoundTrace per-phase deltas pick the counters up with no
  /// extra plumbing.
  void RecordDeduce(int64_t queries, int64_t model_prunes,
                    int64_t propagation_proofs, int64_t chunk_solves) {
    stats_.deduce_queries += queries;
    stats_.deduce_model_prunes += model_prunes;
    stats_.deduce_propagation_proofs += propagation_proofs;
    stats_.deduce_chunk_solves += chunk_solves;
  }

  /// \name Propagation-only probing (no search, no learning)
  ///
  /// The backbone Deduce engine's tier-2 screen: BeginProbe backtracks
  /// to level 0, opens ONE decision level, enqueues `base` (typically
  /// the guard assumptions) and propagates it to fixpoint. While the
  /// probe is open, ProbeValue reads the propagated value of a variable
  /// — kTrue means base ∪ Φ unit-implies it — and ProbeLitFails(p)
  /// pushes a nested level, enqueues `p`, propagates, and backtracks to
  /// the probe base again: `true` (a conflict) is a unit-propagation
  /// proof that Φ ∧ base entails ¬p. Nothing is learnt and nothing is
  /// analyzed; the only side effect is phase saving, which never moves
  /// a verdict. EndProbe backtracks to level 0. BeginProbe returns
  /// false (and leaves the solver at level 0) when `base` is already
  /// propagation-refuted.
  /// @{
  bool BeginProbe(std::span<const Lit> base);
  Lbool ProbeValue(Var v) const { return assigns_[v]; }
  bool ProbeLitFails(Lit p);
  void EndProbe();
  /// @}

  /// Cached models (the fresh entry plus the witness ring) that satisfy
  /// every literal of `assumptions` — each one a genuine model of the
  /// current formula, usable as a bulk non-entailment witness by the
  /// backbone Deduce sweep. Pointers are invalidated by the next solver
  /// call of any kind; empty when use_model_cache is off.
  std::vector<const std::vector<Lbool>*> CachedWitnesses(
      std::span<const Lit> assumptions) const;

  /// Asserts ¬activation plus ¬v for every scope variable in one batch —
  /// a single multi-literal pass with ONE propagation round, instead of
  /// one AddClause (each with its own propagation fixpoint) per variable.
  /// The frozen variables are additionally barred from ever re-entering
  /// the decision heap (checked). Returns false if the solver became
  /// unsatisfiable. ScopedVars::Release is the caller.
  bool FreezeScope(Lit activation, std::span<const Var> vars);

  /// Debug/test accessor: every learnt clause currently in the database,
  /// plus every binary clause ever learnt into the implicit
  /// binary watch lists. Each returned clause is implied by the problem
  /// clauses — the learnt-implication regression suite re-solves to check
  /// exactly that.
  std::vector<std::vector<Lit>> LearntClauses() const;

  /// Restores the solver to its freshly-constructed state — no variables,
  /// no clauses, zeroed statistics, `options` applied — while keeping the
  /// heap allocations (clause arena, watch lists, trail, per-variable
  /// arrays) it has grown so far. A Reset solver is observably identical
  /// to `Solver(options)`: same decisions, same models, same statistics on
  /// the same input. SessionScratch uses it to recycle one solver across
  /// back-to-back ResolutionSessions without re-allocating from cold.
  void Reset(SolverOptions options = {});

  /// Compacts the clause arena: live clauses move into a fresh arena and
  /// every ClauseRef holder — watch lists, reason slots, the learnt DB —
  /// is rewritten to the relocated references. (The cached-model pool
  /// holds no references, only per-variable values, so it survives
  /// untouched.) Runs automatically under SolverOptions::use_arena_gc /
  /// gc_frac; public so tests and benches can force a relocation. Order
  /// inside every clause list and watch list is preserved, which makes
  /// the collection search-neutral: every later decision, propagation and
  /// verdict is identical to a run that never collected.
  void GarbageCollect();

  /// Arena occupancy in 32-bit words: current size, size minus the dead
  /// words awaiting collection, and the lifetime high-water mark. The
  /// long-lived-session soak asserts arena_words() stays within a small
  /// factor of arena_live_words() when the GC is on.
  size_t arena_words() const { return arena_.size(); }
  size_t arena_live_words() const { return arena_.size() - arena_dead_words_; }
  size_t arena_peak_words() const { return arena_peak_words_; }

 private:
  // --- clause arena ----------------------------------------------------
  //
  // Arena layout per clause: [size<<3 | vivified<<2 | dead<<1 |
  // learnt][activity bits][lits...] — kHeaderWords words, then one word
  // per literal. `dead` marks clauses removed by deletion or inprocessing
  // (already detached; their words are accounted in arena_dead_words_
  // and reclaimed by GarbageCollect); `vivified` marks clauses the
  // vivification pass has already distilled, so later passes skip them
  // until vivification shortens them again. Only learnt clauses use
  // the activity word. Every arena clause has at least three literals:
  // binaries live in the implicit lists.
  //
  // Reason encoding: a reason is either an arena reference (< 2^31 —
  // checked at allocation), the literal-encoded reason of a binary
  // implication (bit 31 set, low bits the OTHER, false literal of the
  // binary clause), kRefBinConflict (a binary conflict, the two literals
  // in bin_conflict_), or kRefUndef.
  using ClauseRef = uint32_t;
  static constexpr ClauseRef kRefUndef = UINT32_MAX;
  static constexpr ClauseRef kRefBinConflict = UINT32_MAX - 1;
  static constexpr ClauseRef kRefBinaryFlag = 0x80000000u;

  static bool RefIsBinary(ClauseRef r) {
    return r >= kRefBinaryFlag && r < kRefBinConflict;
  }
  static ClauseRef MakeBinaryRef(Lit other) {
    return kRefBinaryFlag | static_cast<uint32_t>(other.index());
  }
  static Lit RefLit(ClauseRef r) {
    return Lit::FromIndex(static_cast<int32_t>(r & ~kRefBinaryFlag));
  }

  static constexpr size_t kHeaderWords = 2;
  ClauseRef AllocClause(const std::vector<Lit>& lits, bool learnt);
  int ClauseSize(ClauseRef c) const { return arena_[c] >> 3; }
  bool ClauseLearnt(ClauseRef c) const { return arena_[c] & 1; }
  bool ClauseDead(ClauseRef c) const { return arena_[c] & 2; }
  void MarkClauseDead(ClauseRef c) {
    if (!(arena_[c] & 2)) {
      arena_dead_words_ += kHeaderWords + static_cast<size_t>(ClauseSize(c));
      arena_[c] |= 2;
    }
  }
  bool ClauseVivified(ClauseRef c) const { return arena_[c] & 4; }
  void SetClauseVivified(ClauseRef c, bool on) {
    if (on) {
      arena_[c] |= 4;
    } else {
      arena_[c] &= ~4u;
    }
  }
  void SetClauseSize(ClauseRef c, int size) {
    arena_[c] = (static_cast<uint32_t>(size) << 3) | (arena_[c] & 7);
  }
  Lit* ClauseLits(ClauseRef c) {
    return reinterpret_cast<Lit*>(&arena_[c + kHeaderWords]);
  }
  const Lit* ClauseLits(ClauseRef c) const {
    return reinterpret_cast<const Lit*>(&arena_[c + kHeaderWords]);
  }
  // Activity is a float stored in a uint32_t arena word; std::bit_cast is
  // the strict-aliasing-clean way to view it (a reinterpret_cast through
  // float* here is UB under -fstrict-aliasing).
  float ClauseActivity(ClauseRef c) const {
    return std::bit_cast<float>(arena_[c + 1]);
  }
  void SetClauseActivity(ClauseRef c, float a) {
    arena_[c + 1] = std::bit_cast<uint32_t>(a);
  }

  struct Watcher {
    ClauseRef cref;
    Lit blocker;
  };

  // --- search ----------------------------------------------------------
  SolveResult SolveInternal(std::span<const Lit> assumptions);
  SolveResult SolveLoop(std::span<const Lit> assumptions);
  SolveResult Search(int64_t conflict_budget,
                     std::span<const Lit> assumptions);
  ClauseRef Propagate();
  void Analyze(ClauseRef conflict, std::vector<Lit>* out_learnt,
               int* out_btlevel);
  void AnalyzeFinal(Lit p, std::vector<Lit>* out_core);
  void UncheckedEnqueue(Lit p, ClauseRef from);
  void CancelUntil(int level);
  Lit PickBranchLit();
  void AttachClause(ClauseRef c);
  void DetachClause(ClauseRef c);
  void AttachBinary(Lit a, Lit b);
  void RecordLearnt(const std::vector<Lit>& learnt);
  void ReduceDb();
  void SweepSatisfiedLearnts();
  void SweepSatisfiedProblem();
  void SweepBinaries();

  // --- arena lifecycle --------------------------------------------------
  void MaybeGarbageCollect();
  ClauseRef RelocateClause(ClauseRef c);
  // Drops dead entries from clauses_.
  void CompactProblemClauses();

  // --- model cache ------------------------------------------------------
  bool ModelWitnesses(const std::vector<Lbool>& m,
                      std::span<const Lit> assumptions) const {
    // Backwards: callers append the discriminating literal (cell value,
    // bound selector) after the long-lived guard prefix, so misses fail
    // on the first probe instead of re-checking the shared guards.
    for (size_t i = assumptions.size(); i-- > 0;) {
      const Lit a = assumptions[i];
      if (static_cast<size_t>(a.var()) >= m.size()) return false;
      if (LboolOf(m[a.var()], a.negated()) != Lbool::kTrue) return false;
    }
    return true;
  }
  // A clause was added or a scope frozen: cached models may be falsified.
  void InvalidateModelCache() {
    model_fresh_ = false;
    model_pool_.clear();
    model_pool_next_ = 0;
  }
  // Rotates the previous newest model into the ring before model_ is
  // overwritten by a fresh solve.
  void CacheCurrentModel();
  // Stores `m` in the ring, overwriting the oldest entry once it is full.
  void PushWitness(std::vector<Lbool> m);
  // Does `m` satisfy every live problem clause and every binary?
  bool SatisfiesLive(const std::vector<Lbool>& m) const;

  // --- inprocessing ----------------------------------------------------
  void VivificationPass();
  // Rewrites clause `c` to `lits` after vivification shortened it.
  void ShrinkClause(ClauseRef c, std::span<const Lit> lits);

  Lbool ValueOf(Lit p) const {
    return LboolOf(assigns_[p.var()], p.negated());
  }
  int DecisionLevel() const { return static_cast<int>(trail_lim_.size()); }

  // VSIDS helpers.
  void VarBump(Var v);
  void ClauseBump(ClauseRef c);
  void HeapInsert(Var v);
  Var HeapPop();
  void HeapDecrease(Var v);
  bool HeapEmpty() const { return heap_.empty(); }

  static int64_t Luby(int64_t i);

  SolverOptions options_;
  SolverStats stats_;
  SolverStats last_call_;
  bool ok_ = true;  // false once UNSAT independent of assumptions

  std::vector<uint32_t> arena_;
  std::vector<ClauseRef> clauses_;  // problem clauses (arena-backed)
  std::vector<ClauseRef> learnts_;  // learnt clauses (arena-backed)

  std::vector<std::vector<Watcher>> watches_;  // indexed by Lit::index()
  // Implicit binary watch lists: bins_[p.index()] holds every literal q
  // with a clause (~p ∨ q) — assigning p true implies q, no arena access.
  std::vector<std::vector<Lit>> bins_;
  // Binary clauses learnt into bins_ (LearntClauses() debug accessor
  // only; capped in RecordLearnt, and a learnt binary stays implied even
  // after a sweep prunes its entries).
  std::vector<std::pair<Lit, Lit>> learnt_binaries_;
  Lit bin_conflict_[2] = {kLitUndef, kLitUndef};

  std::vector<Lbool> assigns_;                 // per var
  std::vector<bool> polarity_;                 // saved phases
  std::vector<uint8_t> frozen_;  // per var; released scope vars, barred
                                 // from the decision heap
  std::vector<int> level_;                     // per var
  std::vector<ClauseRef> reason_;              // per var
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  size_t qhead_ = 0;   // next trail literal for long-clause propagation
  size_t bhead_ = 0;   // next trail literal for binary propagation

  std::vector<double> activity_;  // per var
  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  std::vector<Var> heap_;       // binary max-heap of vars by activity
  std::vector<int> heap_pos_;   // per var; -1 if absent

  std::vector<uint8_t> seen_;   // scratch for Analyze
  std::vector<Lit> analyze_toclear_;  // seen_ marks to undo
  std::vector<Lbool> model_;
  std::vector<Lit> conflict_core_;

  // Cached-model pool (use_model_cache): model_ itself is the newest
  // entry when model_fresh_; older models ride in a small ring. Cleared
  // whenever the formula genuinely strengthens (AddClause, FreezeScope).
  static constexpr size_t kModelPoolSize = 4;
  std::vector<std::vector<Lbool>> model_pool_;
  size_t model_pool_next_ = 0;
  bool model_fresh_ = false;

  // Decision level of an open BeginProbe session; -1 when no probe is
  // open. Guards the ProbeLitFails/EndProbe contract in debug builds.
  int probe_base_level_ = -1;

  // Learnt-DB budget: ReduceDb runs once learnts_ reaches it.
  double max_learnts_ = 0;

  // False until the first vivification pass, which stamps the initial
  // encoding as seen instead of distilling it wholesale.
  bool vivify_primed_ = false;

  // Arena lifecycle: words owned by dead clauses and shrunk tails (live =
  // arena_.size() - arena_dead_words_), the lifetime high-water mark, and
  // the relocation target recycled across collections.
  size_t arena_dead_words_ = 0;
  size_t arena_peak_words_ = 0;
  std::vector<uint32_t> arena_tmp_;
};

/// \brief A batch of temporary variables and clauses on a persistent
/// solver, deactivated wholesale when the scope is released.
///
/// Incremental MaxSAT (and GetSug's per-round rule selectors) introduce
/// auxiliary variables whose clauses must not constrain later rounds of
/// the same session. A scope ties every clause added through it to a fresh
/// activation literal `act`: the clause is stored as (clause ∨ ¬act), so it
/// only bites while `act` is among the solve assumptions. Release() hands
/// the whole scope to Solver::FreezeScope, which asserts ¬act and freezes
/// every scope variable false in one batched pass with a single
/// propagation round — every scope clause (and every learnt clause derived
/// from one, which necessarily contains ¬act) becomes permanently
/// satisfied and is swept by the solver's top-level simplification — and
/// bars the frozen variables from re-entering the decision heap. Variable
/// ids are not reclaimed; everything else about the scope is gone.
///
/// Usage:
///   ScopedVars scope(&solver);
///   Var s = scope.NewVar();
///   scope.AddClause({Lit::Neg(s), some_lit});
///   solver.SolveWithAssumptions({scope.activation(), Lit::Pos(s)});
///   // scope.Release() — or let the destructor do it.
class ScopedVars {
 public:
  explicit ScopedVars(Solver* solver)
      : solver_(solver), act_(solver->NewVar()) {}
  ~ScopedVars() { Release(); }
  ScopedVars(const ScopedVars&) = delete;
  ScopedVars& operator=(const ScopedVars&) = delete;

  /// Assume this literal (true) in every solve that should see the
  /// scope's clauses.
  Lit activation() const { return Lit::Pos(act_); }

  /// A fresh variable owned by the scope (frozen to false on release).
  Var NewVar() {
    const Var v = solver_->NewVar();
    vars_.push_back(v);
    return v;
  }

  /// Adds (lits ∨ ¬activation): active only while activation() is assumed.
  bool AddClause(std::vector<Lit> lits) {
    lits.push_back(Lit::Neg(act_));
    return solver_->AddClause(std::move(lits));
  }

  /// Permanently deactivates the scope (idempotent): one batched
  /// freeze-and-propagate pass over the activation plus every scope var.
  void Release() {
    if (released_) return;
    released_ = true;
    solver_->FreezeScope(activation(), vars_);
  }

 private:
  Solver* solver_;
  Var act_;
  std::vector<Var> vars_;
  bool released_ = false;
};

}  // namespace ccr::sat

#endif  // CCR_SAT_SOLVER_H_
