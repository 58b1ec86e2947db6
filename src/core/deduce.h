// True-value deduction (§V-B): DeduceOrder (Fig. 5) and NaiveDeduce.
//
// DeduceOrder runs unit propagation over Φ(Se): every one-literal clause
// is recorded into the deduced temporal order Od and used to reduce the
// formula. Φ's clauses propagate through occurrence lists; its order
// axioms, which the CNF carries as order domains instead of O(d³)
// clauses, propagate through the rule set of src/sat/order_domain.h —
// the one the solver runs — so the units are those of unit propagation
// over the written-out axioms. NaiveDeduce instead asks the SAT
// solver, for every order variable x, whether Φ(Se) ∧ ¬x is unsatisfiable
// — sound and complete for implied orders (Lemma 6) but, queried one
// pair at a time, O(d²) solver calls per attribute (Fig. 8(b)).
//
// The Lemma-6 pipeline only needs the *set* of entailed pairs, not any
// particular query order, so the classic backbone-computation playbook
// applies: under SolverOptions::use_backbone_deduce (default) the
// per-pair loop is replaced by a three-tier engine — model sweeping
// (every SAT model refutes, in O(1) per pair, all candidates it assigns
// false), propagation-only failed-literal screening, and chunked UNSAT
// certification (one scoped clause ¬x₁ ∨ … ∨ ¬xₖ proves a whole chunk
// entailed per solve). The entailed set is semantically determined, so
// the verdicts — and every downstream byte — are identical to the naive
// loop's; tests/deduce_backbone_test.cpp enforces exactly that.

#ifndef CCR_CORE_DEDUCE_H_
#define CCR_CORE_DEDUCE_H_

#include <span>
#include <vector>

#include "src/encode/instantiation.h"
#include "src/order/partial_order.h"
#include "src/sat/cnf.h"
#include "src/sat/solver.h"

namespace ccr {

/// \brief Od: one deduced strict partial order per attribute, over indices
/// into the VarMap's domains.
struct DeducedOrders {
  std::vector<PartialOrder> per_attr;

  /// Total deduced pairs (|Od|), including transitive consequences.
  int CountPairs() const;
};

/// DeduceOrder knobs.
struct DeduceOptions {
  /// Fig. 5 lines 6–7: a negative unit ¬x_{a1 a2} adds the *reversed*
  /// order a2 ≺ a1 to Od. Sound under completion semantics: completions
  /// totally order the tuples, so for distinct values ¬(a1 ≺ a2) entails
  /// a2 ≺ a1. With the flag off, negative units only reduce the formula
  /// (strict mode — Od then contains positive units only).
  bool paper_negative_units = true;
  /// Feed the reversed order of a negative unit back into propagation as
  /// a true literal (the paper's Fig. 5 records it in Od but does not
  /// propagate it). Justified by the same totality argument; it lets
  /// contrapositive inferences (e.g. a job order implying a status order
  /// through ϕ5) fire the downstream rules in the same pass. Requires
  /// paper_negative_units.
  bool totality_propagation = true;
};

/// Reusable buffers for DeduceOrder's counter-based unit propagation.
/// One instance per session (pooled through SessionScratch) stops the
/// per-call allocations from re-growing every round on every
/// entity; a default-constructed local works identically for one-shot
/// callers.
struct DeduceScratch {
  std::vector<int32_t> open_count;
  std::vector<uint8_t> satisfied;
  std::vector<std::vector<int32_t>> occur;
  std::vector<sat::Lbool> value;
  std::vector<sat::Lit> queue;
  std::vector<sat::OrderState> order_states;  // per order domain
};

/// Algorithm DeduceOrder (Fig. 5): unit propagation over `phi`'s clauses
/// and order-domain axioms. `phi` must be the CNF built from `inst`
/// (variable ids must agree; order domain k is attribute k's domain).
/// `assume` literals are seeded as established facts before propagation —
/// the guarded session passes its active CFD guards, which re-arms the
/// guarded rule clauses exactly as if they were emitted unguarded.
/// Non-atom (auxiliary) variables propagate but are never recorded in Od.
/// `scratch`, when given, supplies the propagation buffers (contents are
/// overwritten; the result never depends on what was left in them).
DeducedOrders DeduceOrder(const Instantiation& inst, const sat::Cnf& phi,
                          const DeduceOptions& options = {},
                          std::span<const sat::Lit> assume = {},
                          DeduceScratch* scratch = nullptr);

/// NaiveDeduce: one SAT call per order variable (incremental solver with
/// one assumption per call). Exact per Lemma 6. Dispatches to the
/// backbone engine when `options.use_backbone_deduce` is set, like
/// NaiveDeduceShared.
DeducedOrders NaiveDeduce(const Instantiation& inst, const sat::Cnf& phi,
                          const sat::SolverOptions& options = {});

/// NaiveDeduce against a caller-owned solver already holding Φ(Se)'s
/// clauses (the ResolutionSession shares one solver across validity,
/// deduction and rounds; learnt clauses carry over). `assumptions` is
/// prepended to every implication check (active CFD guards). The outcome
/// of each check is semantic — identical to the fresh-solver variant.
/// When the solver was built with use_backbone_deduce (default), the
/// per-pair loop is replaced by BackboneDeduceShared — same pair set,
/// measured here with far fewer solver calls.
DeducedOrders NaiveDeduceShared(const Instantiation& inst,
                                sat::Solver* solver,
                                std::span<const sat::Lit> assumptions = {});

/// Default number of candidate pairs certified per chunked UNSAT solve.
inline constexpr int kBackboneChunkSize = 64;

/// The three-tier backbone engine behind NaiveDeduceShared (exposed so
/// tests can pin degenerate chunk sizes): (1) sweep every SAT model —
/// the initial validity model, the solver's cached witness ring, and
/// each chunk counterexample — over the whole candidate frontier; (2)
/// screen survivors with propagation-only failed-literal probes; (3)
/// certify the rest in chunks of `chunk_size` via a scoped clause
/// ¬x₁ ∨ … ∨ ¬xₖ — UNSAT proves every member entailed in one call, SAT
/// yields a fresh sweep model falsifying at least one member, so the
/// frontier strictly shrinks. Exact per Lemma 6: returns precisely the
/// naive loop's pair set.
DeducedOrders BackboneDeduceShared(const Instantiation& inst,
                                   sat::Solver* solver,
                                   std::span<const sat::Lit> assumptions = {},
                                   int chunk_size = kBackboneChunkSize);

/// True-value extraction (§V-B): value v is the true value of attribute A
/// iff it dominates every other domain value of A in Od. Returns one
/// domain index per attribute, or -1 when the true value is not derivable
/// (including attributes whose domain is empty).
std::vector<int> ExtractTrueValueIndices(const VarMap& vm,
                                         const DeducedOrders& od);

/// DeriveVR (§V-C): candidate true values V(A) — domain values of A not
/// dominated by any other value in Od. Computed for every attribute;
/// callers skip attributes whose true value is known.
std::vector<std::vector<int>> CandidateValues(const VarMap& vm,
                                              const DeducedOrders& od);

}  // namespace ccr

#endif  // CCR_CORE_DEDUCE_H_
