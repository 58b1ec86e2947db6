// Test-only: the written-out clause form of Φ(Se)'s order axioms, and a
// check that the order propagator agrees with unit propagation over it.
//
// A Cnf carries each attribute's order domain instead of the O(d³)
// asymmetry and transitivity clauses (src/sat/order_domain.h). This
// header writes them out again, independently of the library's DIMACS
// export, so the tests can run the solver and DeduceOrder on both forms
// of one formula and demand the same answers.

#ifndef CCR_TESTS_ORDER_AXIOMS_H_
#define CCR_TESTS_ORDER_AXIOMS_H_

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/deduce.h"
#include "src/core/isvalid.h"
#include "src/encode/instantiation.h"
#include "src/sat/cnf.h"
#include "src/sat/solver.h"

namespace ccr::testing {

// `phi`'s clauses, then every order domain's axioms as plain clauses; the
// result has no order domains.
inline sat::Cnf MaterializeOrderAxioms(const sat::Cnf& phi) {
  sat::Cnf out;
  out.EnsureVars(phi.num_vars());
  for (int c = 0; c < phi.num_clauses(); ++c) out.AddClause(phi.clause(c));
  for (int di = 0; di < phi.num_order_domains(); ++di) {
    const sat::OrderDomain& dom = phi.order_domain(di);
    const auto x = [&dom](int i, int j) { return dom.VarOf(i, j); };
    const int d = dom.size();
    for (int i = 0; i < d; ++i) {
      for (int j = 0; j < d; ++j) {
        if (j == i) continue;
        if (i < j) {
          out.AddBinary(sat::Lit::Neg(x(i, j)), sat::Lit::Neg(x(j, i)));
        }
        for (int k = 0; k < d; ++k) {
          if (k == i || k == j) continue;
          out.AddTernary(sat::Lit::Neg(x(i, j)), sat::Lit::Neg(x(j, k)),
                         sat::Lit::Pos(x(i, k)));
        }
      }
    }
  }
  return out;
}

inline std::vector<std::vector<std::pair<int, int>>> OdPairs(
    const DeducedOrders& od) {
  std::vector<std::vector<std::pair<int, int>>> out;
  for (const PartialOrder& po : od.per_attr) out.push_back(po.Pairs());
  return out;
}

// Runs the three checks on `phi` (built from `inst`) against its clause
// form: (a) the same validity verdict, with and without the guards;
// (b) the same DeduceOrder Od under default options and under
// paper_negative_units = false, with and without the guards, wherever
// Φ ∧ assumptions is satisfiable (DeduceOrder's precondition); (c) under
// `probes` random assumption sets over the order variables, BeginProbe
// succeeds on both forms alike and leaves every variable with the same
// ProbeValue — propagation strength equals unit propagation.
inline void ExpectOrderFormsAgree(const Instantiation& inst,
                                  const sat::Cnf& phi, uint64_t seed,
                                  int probes, const std::string& what) {
  const sat::Cnf clauses = MaterializeOrderAxioms(phi);
  ASSERT_EQ(clauses.num_order_domains(), 0);
  const std::vector<sat::Lit>& guards = inst.guard_assumptions();
  const std::vector<std::vector<sat::Lit>> assumption_sets = {{}, guards};

  // (a)
  EXPECT_EQ(IsValidCnf(phi).valid, IsValidCnf(clauses).valid) << what;
  sat::Solver s_phi, s_clauses;
  s_phi.AddCnf(phi);
  s_clauses.AddCnf(clauses);
  std::vector<bool> satisfiable;
  for (const std::vector<sat::Lit>& assume : assumption_sets) {
    const sat::SolveResult r = s_phi.SolveWithAssumptions(assume);
    EXPECT_EQ(r, s_clauses.SolveWithAssumptions(assume)) << what;
    satisfiable.push_back(r == sat::SolveResult::kSat);
  }

  // (b)
  DeduceOptions strict;
  strict.paper_negative_units = false;
  for (const DeduceOptions& options : {DeduceOptions{}, strict}) {
    for (size_t i = 0; i < assumption_sets.size(); ++i) {
      if (!satisfiable[i]) continue;
      EXPECT_EQ(OdPairs(DeduceOrder(inst, phi, options, assumption_sets[i])),
                OdPairs(DeduceOrder(inst, clauses, options,
                                    assumption_sets[i])))
          << what << " paper_negative_units "
          << options.paper_negative_units << " guards " << i;
    }
  }

  // (c)
  std::vector<sat::Var> order_vars;
  for (int di = 0; di < phi.num_order_domains(); ++di) {
    const sat::OrderDomain& dom = phi.order_domain(di);
    for (int n = 1; n < dom.size(); ++n) {
      for (sat::Var v : dom.ValueVars(n)) order_vars.push_back(v);
    }
  }
  if (order_vars.empty()) return;
  // Fresh solvers: a unit learnt by an earlier search would strengthen
  // one side's propagation.
  sat::Solver p_phi, p_clauses;
  p_phi.AddCnf(phi);
  p_clauses.AddCnf(clauses);
  Rng rng(seed);
  for (int p = 0; p < probes; ++p) {
    std::vector<sat::Lit> base;
    if (rng.Chance(0.5)) base = guards;
    const int n = 1 + static_cast<int>(rng.Below(4));
    for (int k = 0; k < n; ++k) {
      base.emplace_back(order_vars[rng.Below(order_vars.size())],
                        rng.Chance(0.5));
    }
    const bool ok = p_phi.BeginProbe(base);
    ASSERT_EQ(ok, p_clauses.BeginProbe(base)) << what << " probe " << p;
    if (!ok) continue;
    for (sat::Var v = 0; v < phi.num_vars(); ++v) {
      ASSERT_EQ(p_phi.ProbeValue(v), p_clauses.ProbeValue(v))
          << what << " probe " << p << " var " << v;
    }
    p_phi.EndProbe();
    p_clauses.EndProbe();
  }
}

}  // namespace ccr::testing

#endif  // CCR_TESTS_ORDER_AXIOMS_H_
