#include "src/encode/cnf_builder.h"

#include <vector>

namespace ccr {

namespace {

// Appends the clause for one ground constraint. A guarded constraint
// (CFD rules under guarded grounding) is emitted as (¬guard ∨ clause):
// it binds only while its guard is assumed true, and retiring the guard
// (unit ¬guard) permanently deactivates it without retracting anything.
void AddConstraintClause(const VarMap& vm, const GroundConstraint& gc,
                         std::vector<sat::Lit>* scratch, sat::Cnf* cnf) {
  scratch->clear();
  if (gc.guard != sat::kVarUndef) {
    scratch->push_back(sat::Lit::Neg(gc.guard));
  }
  for (const OrderAtom& atom : gc.body) {
    scratch->push_back(sat::Lit::Neg(vm.VarOf(atom)));
  }
  if (gc.head_kind == GroundHead::kAtom) {
    scratch->push_back(sat::Lit::Pos(vm.VarOf(gc.head)));
  }
  cnf->AddClause(std::span<const sat::Lit>(scratch->data(), scratch->size()));
}

}  // namespace

sat::Cnf BuildCnf(const Instantiation& inst) {
  sat::Cnf cnf;
  BuildCnfInto(inst, &cnf);
  return cnf;
}

void BuildCnfInto(const Instantiation& inst, sat::Cnf* out) {
  out->Clear();
  ExtendCnf(inst, InstantiationDelta{}, out);
}

void ExtendCnf(const Instantiation& inst, const InstantiationDelta& delta,
               sat::Cnf* cnf) {
  const VarMap& vm = inst.varmap;
  cnf->EnsureVars(vm.num_vars());

  // Retired CFD guards first: each unit permanently satisfies every clause
  // of the invalidated rule version, before the re-grounded replacements
  // (guarded by fresh selectors) are appended below.
  for (sat::Var g : delta.retired_guards) {
    cnf->AddUnit(sat::Lit::Neg(g));
  }

  // Clauses for the freshly grounded constraints.
  std::vector<sat::Lit> clause;
  const int n_constraints = static_cast<int>(inst.constraints.size());
  for (int c = delta.first_new_constraint; c < n_constraints; ++c) {
    AddConstraintClause(vm, inst.constraints[c], &clause, cnf);
  }

  // The values each attribute gained join its order domain. Their
  // asymmetry and transitivity axioms are not emitted: the solver's order
  // propagator and DeduceOrder enforce them from the domain's variables.
  cnf->EnsureOrderDomains(vm.num_attrs());
  std::vector<sat::Var> value_vars;
  for (int a = 0; a < vm.num_attrs(); ++a) {
    const int d = static_cast<int>(vm.domain(a).size());
    for (int n = cnf->order_domain(a).size(); n < d; ++n) {
      value_vars.clear();
      for (int i = 0; i < n; ++i) {
        value_vars.push_back(vm.VarOf(a, i, n));
        value_vars.push_back(vm.VarOf(a, n, i));
      }
      cnf->AppendOrderValue(a, value_vars);
    }
  }
}

}  // namespace ccr
