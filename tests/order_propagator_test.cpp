// Tests for the strict-partial-order propagator (src/sat/order_domain.h):
// on real corpus entities the solver and DeduceOrder answer exactly as
// they do over the written-out axiom clauses, and a domain far beyond
// what the clause form could hold resolves and matches Lemma 6.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "order_axioms.h"
#include "src/ccr.h"
#include "src/core/session.h"

namespace ccr {
namespace {

// A few entities of each default corpus, and two Person entities at the
// 300-400 tuple scale where domains reach ~30 values, grounded as a
// session grounds them (guarded CFDs), against the clause form of the
// same Φ.
TEST(OrderPropagatorTest, CorporaAgreeWithClauseForm) {
  PersonOptions larger;
  larger.num_entities = 2;
  larger.min_tuples = 300;
  larger.max_tuples = 400;
  const std::vector<Dataset> corpora = {GeneratePerson(), GenerateNba(),
                                        GenerateCareer(),
                                        GeneratePerson(larger)};
  InstantiationOptions guarded;
  guarded.guard_cfds = true;
  for (const Dataset& ds : corpora) {
    for (int e = 0; e < std::min<int>(3, ds.entities.size()); ++e) {
      auto inst = Instantiation::Build(ds.MakeSpec(e), guarded);
      ASSERT_TRUE(inst.ok());
      testing::ExpectOrderFormsAgree(*inst, BuildCnf(*inst), 0x0D0 + e,
                                     /*probes=*/10,
                                     ds.name + " entity " + std::to_string(e));
    }
  }
}

// A single order domain over `d` values and its variables.
sat::Cnf OrderDomainCnf(int d) {
  sat::Cnf cnf;
  cnf.EnsureOrderDomains(1);
  std::vector<sat::Var> vars;
  for (int n = 0; n < d; ++n) {
    vars.clear();
    for (int i = 0; i < 2 * n; ++i) vars.push_back(cnf.NewVar());
    cnf.AppendOrderValue(0, vars);
  }
  return cnf;
}

bool Satisfies(const sat::Solver& s, const sat::Cnf& cnf) {
  for (int c = 0; c < cnf.num_clauses(); ++c) {
    bool sat = false;
    for (sat::Lit l : cnf.clause(c)) sat |= s.ModelValue(l.var()) != l.negated();
    if (!sat) return false;
  }
  return true;
}

// Random clauses and assumptions over small order domains, solved
// incrementally on both forms: the verdicts agree, every model satisfies
// the written-out axioms, and every failed-assumption core and learnt
// clause is implied by them — conflict analysis over the lazily built
// reasons is sound.
TEST(OrderPropagatorTest, RandomFormulasAgreeWithClauseForm) {
  Rng rng(0x0DE5);
  int unsat_cores = 0;
  int64_t conflicts = 0;
  for (int round = 0; round < 60; ++round) {
    const int d = 3 + static_cast<int>(rng.Below(4));
    sat::Cnf phi = OrderDomainCnf(d);
    const int n_vars = phi.num_vars();
    const auto random_lit = [&] {
      return sat::Lit(static_cast<sat::Var>(rng.Below(n_vars)),
                      rng.Chance(0.5));
    };
    for (int c = 0; c < 2 + static_cast<int>(rng.Below(5)); ++c) {
      const sat::Lit a = random_lit(), b = random_lit();
      phi.AddBinary(a, b);
    }
    const sat::Cnf clauses = testing::MaterializeOrderAxioms(phi);
    sat::Solver s_phi, s_clauses;
    s_phi.AddCnf(phi);
    s_clauses.AddCnf(clauses);
    for (int q = 0; q < 8; ++q) {
      std::vector<sat::Lit> assume;
      for (int k = 0; k < 1 + static_cast<int>(rng.Below(5)); ++k) {
        assume.push_back(random_lit());
      }
      const sat::SolveResult r = s_phi.SolveWithAssumptions(assume);
      ASSERT_EQ(r, s_clauses.SolveWithAssumptions(assume))
          << "round " << round << " query " << q;
      if (r == sat::SolveResult::kSat) {
        EXPECT_TRUE(Satisfies(s_phi, clauses)) << "round " << round;
        continue;
      }
      if (s_phi.IsUnsatForever()) break;
      // FailedAssumptions holds the negated failing assumptions.
      std::vector<sat::Lit> core;
      for (sat::Lit l : s_phi.FailedAssumptions()) core.push_back(~l);
      sat::Solver check;
      check.AddCnf(clauses);
      EXPECT_EQ(check.SolveWithAssumptions(core), sat::SolveResult::kUnsat)
          << "round " << round << " query " << q;
      ++unsat_cores;
    }
    // Every learnt clause is implied by the written-out formula.
    conflicts += s_phi.stats().conflicts;
    for (const std::vector<sat::Lit>& learnt : s_phi.LearntClauses()) {
      std::vector<sat::Lit> refute;
      for (sat::Lit l : learnt) refute.push_back(~l);
      sat::Solver check;
      check.AddCnf(clauses);
      EXPECT_EQ(check.SolveWithAssumptions(refute), sat::SolveResult::kUnsat)
          << "round " << round;
    }
  }
  EXPECT_GT(unsat_cores, 20);
  EXPECT_GT(conflicts, 20);
}

// Domain values whose variables the solver already fixed (here by unit
// clauses fed first) still propagate through the rules once synced.
TEST(OrderPropagatorTest, SyncPropagatesAssignedVariables) {
  const sat::Cnf phi = OrderDomainCnf(3);
  const sat::OrderDomain& dom = phi.order_domain(0);
  sat::Solver s;
  while (s.num_vars() < phi.num_vars()) s.NewVar();
  ASSERT_TRUE(s.AddClause({sat::Lit::Pos(dom.VarOf(0, 1))}));
  ASSERT_TRUE(s.AddClause({sat::Lit::Pos(dom.VarOf(1, 2))}));
  s.AddCnf(phi);
  ASSERT_TRUE(s.BeginProbe({}));
  EXPECT_EQ(s.ProbeValue(dom.VarOf(0, 2)), sat::Lbool::kTrue);
  EXPECT_EQ(s.ProbeValue(dom.VarOf(2, 0)), sat::Lbool::kFalse);
  EXPECT_EQ(s.ProbeValue(dom.VarOf(1, 0)), sat::Lbool::kFalse);
  s.EndProbe();
}

// One attribute k with 520 values in 13 groups g of 40: k is current in
// group order (σ1), g is current in k order (σ2), and a CFD says the
// most current group makes k = 519 the true value. The clause form
// would need d(d-1)(d-2) ≈ 1.4·10⁸ transitivity clauses for k alone.
Specification LargeDomainSpec() {
  Schema schema = Schema::Make({"k", "g"}).value();
  EntityInstance e(schema, "large");
  for (int i = 0; i < 520; ++i) {
    EXPECT_TRUE(e.Add(Tuple({Value::Int(i), Value::Int(i / 40)})).ok());
  }
  Specification se;
  se.temporal = TemporalInstance(std::move(e));
  CurrencyConstraint k_by_group(0);
  k_by_group.AddAttrCompare(1, CmpOp::kLt);
  se.sigma.push_back(std::move(k_by_group));
  CurrencyConstraint group_by_k(1);
  group_by_k.AddAttrCompare(0, CmpOp::kLt);
  se.sigma.push_back(std::move(group_by_k));
  se.gamma.emplace_back(std::vector<std::pair<int, Value>>{{1, Value::Int(12)}},
                        0, Value::Int(519));
  return se;
}

TEST(OrderPropagatorTest, LargeDomainMatchesLemma6) {
  const Specification se = LargeDomainSpec();
  auto r = Resolve(se, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->valid);
  EXPECT_TRUE(r->complete);
  EXPECT_EQ(r->true_values[0], Value::Int(519));
  EXPECT_EQ(r->true_values[1], Value::Int(12));

  auto session = ResolutionSession::Create(se);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->CheckValidity().valid);
  const DeducedOrders od = session->Deduce();
  const Instantiation& inst = session->instantiation();
  const int d = static_cast<int>(inst.varmap.domain(0).size());
  ASSERT_GE(d, 500);

  // Lemma 6 on a fixed sample of pairs: i ≺ j is deduced exactly when
  // Φ ∧ guards ∧ ¬x_ij is unsatisfiable.
  sat::Solver solver;
  solver.AddCnf(session->cnf());
  std::vector<sat::Lit> assume = inst.guard_assumptions();
  Rng rng(0x1A46E);
  int entailed = 0;
  for (int n = 0; n < 50; ++n) {
    const int i = static_cast<int>(rng.Below(d));
    // Every fifth pair asks about the CFD's value.
    const int j = n % 5 == 0 ? inst.varmap.ValueIndex(0, Value::Int(519))
                             : static_cast<int>(rng.Below(d));
    if (i == j) continue;
    assume.push_back(sat::Lit::Neg(inst.varmap.VarOf(0, i, j)));
    const bool unsat =
        solver.SolveWithAssumptions(assume) == sat::SolveResult::kUnsat;
    assume.pop_back();
    EXPECT_EQ(od.per_attr[0].Less(i, j), unsat) << i << " < " << j;
    entailed += unsat ? 1 : 0;
  }
  // The sample holds both answers.
  EXPECT_GT(entailed, 5);
  EXPECT_LT(entailed, 45);
}

}  // namespace
}  // namespace ccr
