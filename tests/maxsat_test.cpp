// Tests for the MaxSAT layer: Sinz cardinality encoding and exact partial
// MaxSAT.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/maxsat/maxsat.h"

namespace ccr::maxsat {
namespace {

using sat::Cnf;
using sat::Lit;
using sat::SolveResult;
using sat::Solver;
using sat::Var;

int CountTrue(const Solver& s, const std::vector<Var>& vars) {
  int n = 0;
  for (Var v : vars) n += s.ModelValue(v) ? 1 : 0;
  return n;
}

class AtMostKTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(AtMostKTest, BoundsHold) {
  const auto [n, k] = GetParam();
  Cnf cnf;
  std::vector<Var> vars;
  std::vector<Lit> lits;
  for (int i = 0; i < n; ++i) {
    vars.push_back(cnf.NewVar());
    lits.push_back(Lit::Pos(vars.back()));
  }
  AddAtMostK(&cnf, lits, k);
  // Satisfiable, and every model has at most k true.
  Solver s;
  s.AddCnf(cnf);
  ASSERT_EQ(s.Solve(), SolveResult::kSat);
  EXPECT_LE(CountTrue(s, vars), k);
  // Forcing k of them true is satisfiable; forcing k+1 is not.
  {
    Solver s2;
    s2.AddCnf(cnf);
    std::vector<Lit> assume;
    for (int i = 0; i < k && i < n; ++i) assume.push_back(lits[i]);
    EXPECT_EQ(s2.SolveWithAssumptions(assume), SolveResult::kSat);
    if (k < n) {
      assume.push_back(lits[k]);
      EXPECT_EQ(s2.SolveWithAssumptions(assume), SolveResult::kUnsat);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AtMostKTest,
                         ::testing::Values(std::pair<int, int>{4, 0},
                                           std::pair<int, int>{4, 1},
                                           std::pair<int, int>{4, 2},
                                           std::pair<int, int>{4, 3},
                                           std::pair<int, int>{7, 3},
                                           std::pair<int, int>{10, 5},
                                           std::pair<int, int>{6, 6}));

TEST(MaxSatTest, UnsatisfiableHardDetected) {
  Cnf hard;
  const Var a = hard.NewVar();
  hard.AddUnit(Lit::Pos(a));
  hard.AddUnit(Lit::Neg(a));
  const auto r = SolveMaxSat(hard, {{Lit::Pos(a)}});
  EXPECT_FALSE(r.hard_satisfiable);
}

TEST(MaxSatTest, NoSoftsReturnsModel) {
  Cnf hard;
  const Var a = hard.NewVar();
  hard.AddUnit(Lit::Pos(a));
  const auto r = SolveMaxSat(hard, {});
  ASSERT_TRUE(r.hard_satisfiable);
  EXPECT_EQ(r.num_satisfied, 0);
  ASSERT_EQ(r.model.size(), 1u);
  EXPECT_TRUE(r.model[0]);
}

TEST(MaxSatTest, AllSoftsSatisfiableKeepsAll) {
  Cnf hard;
  const Var a = hard.NewVar(), b = hard.NewVar();
  (void)a;
  (void)b;
  const auto r = SolveMaxSat(hard, {{Lit::Pos(a)}, {Lit::Pos(b)}});
  ASSERT_TRUE(r.hard_satisfiable);
  EXPECT_EQ(r.num_satisfied, 2);
}

TEST(MaxSatTest, DropsMinimumNumberOfSofts) {
  // Hard: exactly one of a, b, c (pairwise exclusion + at least one).
  Cnf hard;
  const Var a = hard.NewVar(), b = hard.NewVar(), c = hard.NewVar();
  hard.AddTernary(Lit::Pos(a), Lit::Pos(b), Lit::Pos(c));
  hard.AddBinary(Lit::Neg(a), Lit::Neg(b));
  hard.AddBinary(Lit::Neg(a), Lit::Neg(c));
  hard.AddBinary(Lit::Neg(b), Lit::Neg(c));
  // Softs want all three: optimum keeps exactly one.
  const auto r =
      SolveMaxSat(hard, {{Lit::Pos(a)}, {Lit::Pos(b)}, {Lit::Pos(c)}});
  ASSERT_TRUE(r.hard_satisfiable);
  EXPECT_EQ(r.num_satisfied, 1);
}

TEST(MaxSatTest, ConflictingPairKeepsLargerSide) {
  // Hard: ¬(a ∧ b). Softs: a, a', b  where a and a' are the same literal —
  // the optimum keeps {a, a'} (2 softs) over {b} (1 soft).
  Cnf hard;
  const Var a = hard.NewVar(), b = hard.NewVar();
  hard.AddBinary(Lit::Neg(a), Lit::Neg(b));
  const auto r =
      SolveMaxSat(hard, {{Lit::Pos(a)}, {Lit::Pos(a)}, {Lit::Pos(b)}});
  ASSERT_TRUE(r.hard_satisfiable);
  EXPECT_EQ(r.num_satisfied, 2);
  EXPECT_TRUE(r.soft_satisfied[0]);
  EXPECT_TRUE(r.soft_satisfied[1]);
  EXPECT_FALSE(r.soft_satisfied[2]);
}

TEST(MaxSatTest, MultiLiteralSoftClauses) {
  Cnf hard;
  const Var a = hard.NewVar(), b = hard.NewVar();
  hard.AddUnit(Lit::Neg(a));
  const auto r = SolveMaxSat(hard, {{Lit::Pos(a), Lit::Pos(b)}});
  ASSERT_TRUE(r.hard_satisfiable);
  EXPECT_EQ(r.num_satisfied, 1);  // satisfied via b
}

// --- incremental MaxSAT on a persistent solver --------------------------

// Random hard CNF + soft clause sets for the equivalence regression.
Cnf RandomCnf(Rng* rng, int n_vars, int n_clauses) {
  Cnf cnf;
  cnf.EnsureVars(n_vars);
  for (int c = 0; c < n_clauses; ++c) {
    std::vector<Lit> clause;
    const int len = 2 + static_cast<int>(rng->Below(2));
    for (int k = 0; k < len; ++k) {
      clause.push_back(
          Lit(static_cast<Var>(rng->Below(n_vars)), rng->Chance(0.5)));
    }
    cnf.AddClause(std::span<const Lit>(clause.data(), clause.size()));
  }
  return cnf;
}

std::vector<std::vector<Lit>> RandomSofts(Rng* rng, int n_vars) {
  std::vector<std::vector<Lit>> softs(1 + rng->Below(6));
  for (auto& soft : softs) {
    const int len = 1 + static_cast<int>(rng->Below(3));
    for (int k = 0; k < len; ++k) {
      soft.push_back(
          Lit(static_cast<Var>(rng->Below(n_vars)), rng->Chance(0.5)));
    }
  }
  return softs;
}

TEST(IncrementalMaxSatTest, MatchesOneShotOnRandomInstances) {
  // À la SolverTest.ResetIsObservablyAFreshSolver: 60 random instances,
  // each solved (a) one-shot on a fresh solver and (b) incrementally on a
  // persistent solver that answers several MaxSAT calls back to back.
  // Released activation literals must make (b) indistinguishable from (a):
  // same optimum, same canonical soft_satisfied set — including when the
  // same softs are re-asked after an unrelated call touched the solver.
  Rng rng(0xD1CE);
  int sat_instances = 0;
  for (int round = 0; round < 60; ++round) {
    const int n_vars = 4 + static_cast<int>(rng.Below(8));
    const Cnf hard = RandomCnf(&rng, n_vars, 3 + rng.Below(24));
    const auto softs_a = RandomSofts(&rng, n_vars);
    const auto softs_b = RandomSofts(&rng, n_vars);

    const MaxSatResult one_shot_a = SolveMaxSat(hard, softs_a);
    const MaxSatResult one_shot_b = SolveMaxSat(hard, softs_b);

    Solver persistent;
    persistent.AddCnf(hard);
    IncrementalMaxSat inc(&persistent);
    const MaxSatResult inc_a = inc.Solve(softs_a);
    const MaxSatResult inc_b = inc.Solve(softs_b);   // after a's scope died
    const MaxSatResult inc_a2 = inc.Solve(softs_a);  // re-ask: must agree

    EXPECT_EQ(one_shot_a.hard_satisfiable, inc_a.hard_satisfiable)
        << "round " << round;
    EXPECT_EQ(one_shot_b.hard_satisfiable, inc_b.hard_satisfiable)
        << "round " << round;
    if (!one_shot_a.hard_satisfiable) continue;
    ++sat_instances;
    EXPECT_EQ(one_shot_a.num_satisfied, inc_a.num_satisfied)
        << "round " << round;
    EXPECT_EQ(one_shot_a.soft_satisfied, inc_a.soft_satisfied)
        << "round " << round;
    EXPECT_EQ(one_shot_b.num_satisfied, inc_b.num_satisfied)
        << "round " << round;
    EXPECT_EQ(one_shot_b.soft_satisfied, inc_b.soft_satisfied)
        << "round " << round;
    EXPECT_EQ(inc_a.num_satisfied, inc_a2.num_satisfied) << "round " << round;
    EXPECT_EQ(inc_a.soft_satisfied, inc_a2.soft_satisfied)
        << "round " << round;
    // The persistent solver itself is unharmed: the hard formula is still
    // satisfiable with no assumptions at all.
    EXPECT_EQ(persistent.Solve(), SolveResult::kSat) << "round " << round;
  }
  EXPECT_GT(sat_instances, 20);
}

TEST(IncrementalMaxSatTest, SoftSatisfiedSizeInvariant) {
  // API invariant: when the hard formula is satisfiable, soft_satisfied
  // covers every soft positionally (Suggest indexes it without guards).
  Cnf hard;
  const Var a = hard.NewVar(), b = hard.NewVar();
  hard.AddBinary(Lit::Neg(a), Lit::Neg(b));
  const auto r =
      SolveMaxSat(hard, {{Lit::Pos(a)}, {Lit::Pos(b)}, {Lit::Pos(a)}});
  ASSERT_TRUE(r.hard_satisfiable);
  EXPECT_EQ(r.soft_satisfied.size(), 3u);
}

TEST(IncrementalMaxSatTest, RespectsExtraAssumptions) {
  // The same formula under different conditioning assumptions: GetSug
  // conditions its MaxSAT calls on session guards this way.
  Cnf hard;
  const Var a = hard.NewVar(), g = hard.NewVar();
  hard.AddBinary(Lit::Neg(g), Lit::Neg(a));  // guard on => ¬a
  Solver solver;
  solver.AddCnf(hard);
  IncrementalMaxSat inc(&solver);

  const std::vector<std::vector<Lit>> softs = {{Lit::Pos(a)}};
  const std::vector<Lit> guard_on = {Lit::Pos(g)};
  const MaxSatResult with_guard =
      inc.Solve(softs, std::span<const Lit>(guard_on.data(), guard_on.size()));
  ASSERT_TRUE(with_guard.hard_satisfiable);
  EXPECT_EQ(with_guard.num_satisfied, 0);  // a forced false under guard

  const MaxSatResult without_guard = inc.Solve(softs);
  ASSERT_TRUE(without_guard.hard_satisfiable);
  EXPECT_EQ(without_guard.num_satisfied, 1);  // a free again
}

}  // namespace
}  // namespace ccr::maxsat
