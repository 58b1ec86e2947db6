#include "src/core/deduce.h"

#include <vector>

#include "src/common/status.h"
#include "src/sat/order_domain.h"

namespace ccr {

int DeducedOrders::CountPairs() const {
  int total = 0;
  for (const PartialOrder& po : per_attr) total += po.CountPairs();
  return total;
}

namespace {

DeducedOrders MakeEmptyOrders(const VarMap& vm) {
  DeducedOrders od;
  od.per_attr.reserve(vm.num_attrs());
  for (int a = 0; a < vm.num_attrs(); ++a) {
    od.per_attr.emplace_back(static_cast<int>(vm.domain(a).size()));
  }
  return od;
}

// Records a deduced order literal (`atom`, negated or not) into Od.
// Positive x_{a1 a2} adds a1 ≺ a2; negative adds the reversed order when
// `paper_mode` is on (Fig. 5, lines 6–7). Insertion failures (cycles,
// possible only on invalid specifications) are ignored — Od remains a
// partial order.
void RecordLiteral(const OrderAtom& atom, bool negated, bool paper_mode,
                   DeducedOrders* od) {
  if (!negated) {
    (void)od->per_attr[atom.attr].Add(atom.less, atom.more);
  } else if (paper_mode) {
    (void)od->per_attr[atom.attr].Add(atom.more, atom.less);
  }
}

}  // namespace

DeducedOrders DeduceOrder(const Instantiation& inst, const sat::Cnf& phi,
                          const DeduceOptions& options,
                          std::span<const sat::Lit> assume,
                          DeduceScratch* scratch) {
  const VarMap& vm = inst.varmap;
  DeducedOrders od = MakeEmptyOrders(vm);

  const int n_vars = phi.num_vars();
  const int n_clauses = phi.num_clauses();

  // Counter-based unit propagation: per clause, the number of non-false
  // literals and a satisfied flag; per literal, its occurrence list.
  // The buffers come from the session's scratch when available — they
  // are re-filled from `phi` below, so reuse is observationally inert.
  DeduceScratch local;
  DeduceScratch& s = scratch != nullptr ? *scratch : local;
  std::vector<int32_t>& open_count = s.open_count;
  std::vector<uint8_t>& satisfied = s.satisfied;
  std::vector<std::vector<int32_t>>& occur = s.occur;
  std::vector<sat::Lbool>& value = s.value;
  std::vector<sat::Lit>& queue = s.queue;
  std::vector<sat::OrderState>& order_states = s.order_states;
  open_count.assign(n_clauses, 0);
  satisfied.assign(n_clauses, 0);
  if (occur.size() < static_cast<size_t>(2 * n_vars)) {
    occur.resize(2 * n_vars);
  }
  // Clear every inner list (including any beyond 2*n_vars left by a
  // larger entity) while keeping their capacity.
  for (std::vector<int32_t>& o : occur) o.clear();
  value.assign(n_vars, sat::Lbool::kUndef);
  queue.assign(assume.begin(), assume.end());
  order_states.resize(phi.num_order_domains());
  for (int k = 0; k < phi.num_order_domains(); ++k) {
    order_states[k].Clear();
    order_states[k].Grow(phi.order_domain(k).size());
  }

  for (int c = 0; c < n_clauses; ++c) {
    auto lits = phi.clause(c);
    open_count[c] = static_cast<int32_t>(lits.size());
    for (sat::Lit l : lits) occur[l.index()].push_back(c);
    if (lits.size() == 1) queue.push_back(lits[0]);
    // Empty clause: Se invalid; DeduceOrder is only called on valid
    // specifications, but stay graceful and simply deduce nothing from it.
  }

  size_t head = 0;
  while (head < queue.size()) {
    const sat::Lit l = queue[head++];
    const sat::Lbool prior = value[l.var()];
    if (prior != sat::Lbool::kUndef) continue;  // already propagated
    value[l.var()] = l.negated() ? sat::Lbool::kFalse : sat::Lbool::kTrue;
    // Auxiliary variables (CFD guards) carry no order content.
    const bool is_order = vm.IsOrderVar(l.var());
    const OrderAtom atom = is_order ? vm.Decode(l.var()) : OrderAtom{};
    if (is_order) {
      RecordLiteral(atom, l.negated(), options.paper_negative_units, &od);

      // Totality: ¬(a1 ≺ a2) entails a2 ≺ a1 in every completion; assert
      // the reversed atom so contrapositive chains keep propagating.
      if (l.negated() && options.paper_negative_units &&
          options.totality_propagation) {
        queue.push_back(
            sat::Lit::Pos(vm.VarOf(atom.attr, atom.more, atom.less)));
      }
    }

    // Clauses containing l are satisfied.
    for (int32_t c : occur[l.index()]) satisfied[c] = 1;
    // Clauses containing ¬l lose a literal; new units enter the queue.
    for (int32_t c : occur[(~l).index()]) {
      if (satisfied[c]) continue;
      if (--open_count[c] == 1) {
        for (sat::Lit cand : phi.clause(c)) {
          if (value[cand.var()] == sat::Lbool::kUndef) {
            queue.push_back(cand);
            break;
          }
        }
      }
      // open_count 0 means a conflict: the specification was invalid.
      // Nothing further can be soundly deduced from this clause.
    }

    // The order axioms of l's domain, by the rules the solver runs.
    if (is_order && atom.attr < phi.num_order_domains()) {
      const sat::OrderDomain& dom = phi.order_domain(atom.attr);
      if (atom.less < dom.size() && atom.more < dom.size()) {
        CCR_DCHECK(dom.VarOf(atom.less, atom.more) == l.var());
        sat::OrderState& state = order_states[atom.attr];
        state.Assign(atom.less, atom.more, !l.negated());
        sat::PropagateOrderLit(
            dom, state, atom.less, atom.more, !l.negated(),
            [&queue](sat::Lit q, sat::Lit) { queue.push_back(q); },
            // A conflict, as above, means an invalid specification.
            [](sat::Lit, sat::Lit) { return true; });
      }
    }
  }
  return od;
}

DeducedOrders NaiveDeduce(const Instantiation& inst, const sat::Cnf& phi,
                          const sat::SolverOptions& options) {
  sat::Solver solver(options);
  solver.AddCnf(phi);
  return NaiveDeduceShared(inst, &solver);
}

DeducedOrders NaiveDeduceShared(const Instantiation& inst,
                                sat::Solver* solver,
                                std::span<const sat::Lit> assumptions) {
  if (solver->options().use_backbone_deduce) {
    return BackboneDeduceShared(inst, solver, assumptions);
  }
  const VarMap& vm = inst.varmap;
  DeducedOrders od = MakeEmptyOrders(vm);

  std::vector<sat::Lit> assume(assumptions.begin(), assumptions.end());
  int64_t queries = 1;
  if (solver->SolveWithAssumptions(assume) != sat::SolveResult::kSat) {
    solver->RecordDeduce(queries, 0, 0, 0);
    return od;  // invalid Se
  }

  for (int a = 0; a < vm.num_attrs(); ++a) {
    const int d = static_cast<int>(vm.domain(a).size());
    for (int i = 0; i < d; ++i) {
      for (int j = 0; j < d; ++j) {
        if (i == j) continue;
        if (od.per_attr[a].Less(i, j)) continue;  // already implied
        const sat::Var x = vm.VarOf(a, i, j);
        // Lemma 6: Se |= (i ≺ j) iff Φ(Se) ∧ ¬x is unsatisfiable.
        assume.push_back(sat::Lit::Neg(x));
        ++queries;
        const auto r = solver->SolveWithAssumptions(assume);
        assume.pop_back();
        if (r == sat::SolveResult::kUnsat && !solver->IsUnsatForever()) {
          (void)od.per_attr[a].Add(i, j);
        }
      }
    }
  }
  solver->RecordDeduce(queries, 0, 0, 0);
  return od;
}

DeducedOrders BackboneDeduceShared(const Instantiation& inst,
                                   sat::Solver* solver,
                                   std::span<const sat::Lit> assumptions,
                                   int chunk_size) {
  CCR_CHECK(chunk_size >= 1);
  const VarMap& vm = inst.varmap;
  DeducedOrders od = MakeEmptyOrders(vm);

  std::vector<sat::Lit> assume(assumptions.begin(), assumptions.end());
  int64_t queries = 1;
  int64_t model_prunes = 0;
  int64_t prop_proofs = 0;
  int64_t chunk_solves = 0;
  if (solver->SolveWithAssumptions(assume) != sat::SolveResult::kSat) {
    solver->RecordDeduce(queries, 0, 0, 0);
    return od;  // invalid Se
  }

  // The candidate frontier: every ordered pair whose Lemma-6 verdict is
  // still open. Pairs leave it exactly one way each — swept by a model
  // (not entailed), certified by propagation or a chunk UNSAT
  // (entailed), or subsumed by the transitive closure of earlier
  // certifications.
  struct Cand {
    int32_t attr;
    int32_t less;
    int32_t more;
    sat::Var var;
  };
  std::vector<Cand> frontier;
  for (int a = 0; a < vm.num_attrs(); ++a) {
    const int d = static_cast<int>(vm.domain(a).size());
    for (int i = 0; i < d; ++i) {
      for (int j = 0; j < d; ++j) {
        if (i == j) continue;
        frontier.push_back({a, i, j, vm.VarOf(a, i, j)});
      }
    }
  }

  // Tier 1 — model sweeping. A model of Φ(Se) ∧ guards assigning x_ij
  // false is a valid completion in which i does not precede j: a
  // non-entailment witness, no solver call needed.
  const auto sweep_values = [&](const std::vector<sat::Lbool>& m) {
    size_t w = 0;
    for (const Cand& c : frontier) {
      if (static_cast<size_t>(c.var) < m.size() &&
          m[c.var] == sat::Lbool::kFalse) {
        ++model_prunes;
      } else {
        frontier[w++] = c;
      }
    }
    frontier.resize(w);
  };
  const auto sweep_current_model = [&] {
    size_t w = 0;
    for (const Cand& c : frontier) {
      if (solver->ModelLbool(c.var) == sat::Lbool::kFalse) {
        ++model_prunes;
      } else {
        frontier[w++] = c;
      }
    }
    frontier.resize(w);
  };
  sweep_current_model();
  // The witness ring may hold more genuine models from earlier phases;
  // any of them that satisfies every guard sweeps for free too.
  for (const std::vector<sat::Lbool>* m : solver->CachedWitnesses(assume)) {
    sweep_values(*m);
  }

  // Tier 2 — propagation-only screening under the propagated guards:
  // x forced true is entailed outright; a failed ¬x probe is a
  // unit-propagation UNSAT proof. Neither searches or learns.
  if (!frontier.empty() && solver->BeginProbe(assume)) {
    size_t w = 0;
    for (const Cand& c : frontier) {
      if (od.per_attr[c.attr].Less(c.less, c.more)) continue;
      const sat::Lbool v = solver->ProbeValue(c.var);
      if (v == sat::Lbool::kTrue) {
        ++prop_proofs;
        (void)od.per_attr[c.attr].Add(c.less, c.more);
        continue;
      }
      if (v == sat::Lbool::kFalse) {
        // Guard-forced false: every completion refutes the pair. Tier 1
        // normally catches these (the swept models force it too).
        ++model_prunes;
        continue;
      }
      if (solver->ProbeLitFails(sat::Lit::Neg(c.var))) {
        ++prop_proofs;
        (void)od.per_attr[c.attr].Add(c.less, c.more);
        continue;
      }
      frontier[w++] = c;
    }
    frontier.resize(w);
    solver->EndProbe();
  }

  // Tier 3 — chunked UNSAT certification. A scoped clause
  // (¬sel ∨ ¬x₁ ∨ … ∨ ¬xₖ) under the scope's activation literal asks for
  // a completion refuting ANY chunk member: UNSAT certifies the whole
  // chunk entailed in one call; SAT hands tier 1 a fresh model that
  // falsifies at least one member, so the frontier strictly shrinks
  // either way. Each round gets a fresh selector — the previous chunk
  // clause goes inert by never assuming its selector again, so a
  // rebuilt (smaller) chunk can never be over-claimed by a stale
  // clause. Released wholesale when the frontier drains.
  if (!frontier.empty()) {
    sat::ScopedVars scope(solver);
    std::vector<Cand> chunk;
    std::vector<sat::Lit> clause;
    while (!frontier.empty()) {
      // Drop pairs settled by the transitive closure of earlier chunks,
      // then peel off the next chunk.
      chunk.clear();
      size_t w = 0;
      for (const Cand& c : frontier) {
        if (od.per_attr[c.attr].Less(c.less, c.more)) continue;
        if (static_cast<int>(chunk.size()) < chunk_size) {
          chunk.push_back(c);
        } else {
          frontier[w++] = c;
        }
      }
      frontier.resize(w);
      if (chunk.empty()) break;

      const sat::Var sel = scope.NewVar();
      clause.clear();
      clause.push_back(sat::Lit::Neg(sel));
      for (const Cand& c : chunk) clause.push_back(sat::Lit::Neg(c.var));
      scope.AddClause(clause);

      assume.push_back(scope.activation());
      assume.push_back(sat::Lit::Pos(sel));
      ++queries;
      ++chunk_solves;
      const auto r = solver->SolveWithAssumptions(assume);
      assume.resize(assume.size() - 2);

      if (r == sat::SolveResult::kUnsat) {
        if (solver->IsUnsatForever()) break;
        for (const Cand& c : chunk) {
          (void)od.per_attr[c.attr].Add(c.less, c.more);
        }
      } else {
        // A genuine model of Φ(Se) ∧ guards (the scope literals only
        // strengthen it): sweep the unresolved chunk members together
        // with the rest of the frontier.
        frontier.insert(frontier.end(), chunk.begin(), chunk.end());
        sweep_current_model();
      }
    }
  }

  solver->RecordDeduce(queries, model_prunes, prop_proofs, chunk_solves);
  return od;
}

std::vector<int> ExtractTrueValueIndices(const VarMap& vm,
                                         const DeducedOrders& od) {
  std::vector<int> out(vm.num_attrs(), -1);
  for (int a = 0; a < vm.num_attrs(); ++a) {
    const int d = static_cast<int>(vm.domain(a).size());
    if (d == 0) continue;  // only nulls: no true value derivable
    if (d == 1) {
      out[a] = 0;  // unique value dominates vacuously
      continue;
    }
    for (int v = 0; v < d; ++v) {
      if (od.per_attr[a].DominatesAll(v)) {
        out[a] = v;
        break;
      }
    }
  }
  return out;
}

std::vector<std::vector<int>> CandidateValues(const VarMap& vm,
                                              const DeducedOrders& od) {
  std::vector<std::vector<int>> out(vm.num_attrs());
  for (int a = 0; a < vm.num_attrs(); ++a) {
    out[a] = od.per_attr[a].Maximal();
  }
  return out;
}

}  // namespace ccr
