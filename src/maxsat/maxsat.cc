#include "src/maxsat/maxsat.h"

#include "src/common/status.h"

namespace ccr::maxsat {

using sat::Cnf;
using sat::Lit;
using sat::ScopedVars;
using sat::SolveResult;
using sat::Solver;
using sat::Var;

void AddAtMostK(Cnf* cnf, const std::vector<Lit>& xs, int k) {
  const int n = static_cast<int>(xs.size());
  if (k >= n) return;
  if (k == 0) {
    for (Lit x : xs) cnf->AddUnit(~x);
    return;
  }
  // Sinz sequential counter: r[i][j] <=> at least j+1 of x_0..x_i true.
  std::vector<std::vector<Var>> r(n);
  for (int i = 0; i < n; ++i) {
    r[i].resize(k);
    for (int j = 0; j < k; ++j) r[i][j] = cnf->NewVar();
  }
  // x_0 -> r[0][0]
  cnf->AddBinary(~xs[0], Lit::Pos(r[0][0]));
  for (int j = 1; j < k; ++j) cnf->AddUnit(Lit::Neg(r[0][j]));
  for (int i = 1; i < n; ++i) {
    // x_i -> r[i][0]
    cnf->AddBinary(~xs[i], Lit::Pos(r[i][0]));
    // r[i-1][j] -> r[i][j]
    for (int j = 0; j < k; ++j) {
      cnf->AddBinary(Lit::Neg(r[i - 1][j]), Lit::Pos(r[i][j]));
    }
    // x_i & r[i-1][j-1] -> r[i][j]
    for (int j = 1; j < k; ++j) {
      cnf->AddTernary(~xs[i], Lit::Neg(r[i - 1][j - 1]),
                      Lit::Pos(r[i][j]));
    }
    // x_i & r[i-1][k-1] -> false  (would exceed k)
    cnf->AddBinary(~xs[i], Lit::Neg(r[i - 1][k - 1]));
  }
}

MaxSatResult IncrementalMaxSat::Solve(
    const std::vector<std::vector<Lit>>& soft,
    std::span<const Lit> extra_assumptions) {
  MaxSatResult result;
  const int n = static_cast<int>(soft.size());
  const int num_orig = solver_->num_vars();

  std::vector<Lit> base(extra_assumptions.begin(), extra_assumptions.end());
  if (solver_->SolveWithAssumptions(base) != SolveResult::kSat) {
    return result;
  }
  result.hard_satisfiable = true;
  if (n == 0) {
    result.model.resize(num_orig);
    for (Var v = 0; v < num_orig; ++v) result.model[v] = solver_->ModelValue(v);
    return result;
  }

  // Relaxation: selector si with (Ci ∨ ¬si); dropped literal di = ¬si.
  ScopedVars scope(solver_);
  base.push_back(scope.activation());
  std::vector<Var> sel(n);
  std::vector<Lit> dropped;
  dropped.reserve(n);
  for (int i = 0; i < n; ++i) {
    sel[i] = scope.NewVar();
    std::vector<Lit> clause = soft[i];
    clause.push_back(Lit::Neg(sel[i]));
    scope.AddClause(std::move(clause));
    dropped.push_back(Lit::Neg(sel[i]));
  }

  // Triangular Sinz counter over the dropped literals, encoded once:
  // count[i][j] <= "at least j+1 of d_0..d_i true", clauses only in the
  // counting direction, which is all an "at most k" bound needs. Row i
  // has width i+1 — "at least j+1 of the first i+1" is impossible past
  // that, so the square encoding's dead variables are never allocated.
  // Bound k is then a single assumption ¬count[n-1][k] — the linear
  // search and the canonicalization below reuse the same encoding for
  // every k.
  std::vector<std::vector<Var>> count(n);
  for (int i = 0; i < n; ++i) {
    count[i].resize(i + 1);
    for (int j = 0; j <= i; ++j) count[i][j] = scope.NewVar();
  }
  scope.AddClause({~dropped[0], Lit::Pos(count[0][0])});
  for (int i = 1; i < n; ++i) {
    scope.AddClause({~dropped[i], Lit::Pos(count[i][0])});
    for (int j = 0; j < i; ++j) {
      scope.AddClause({Lit::Neg(count[i - 1][j]), Lit::Pos(count[i][j])});
    }
    for (int j = 1; j <= i; ++j) {
      scope.AddClause({~dropped[i], Lit::Neg(count[i - 1][j - 1]),
                       Lit::Pos(count[i][j])});
    }
  }

  // Bound search: linear climb — the first satisfiable k is the exact
  // optimum (k = n never needs a bound; all softs dropped is satisfiable
  // by the hard check above).
  int best_k = n;
  std::vector<Lit> assume = base;
  for (int k = 0; k < n; ++k) {
    assume.push_back(Lit::Neg(count[n - 1][k]));
    const SolveResult r = solver_->SolveWithAssumptions(assume);
    assume.pop_back();
    if (r == SolveResult::kSat) {
      best_k = k;
      break;
    }
  }

  // Canonical extraction: fix selectors in soft-index order, keeping each
  // iff still satisfiable under the optimum bound. Under bound best_k any
  // model satisfies exactly the softs whose selectors are on (on ⊆
  // satisfied, |on| >= n-k, |satisfied| <= n-k), so this pins down the
  // lexicographically greatest optimal kept set — a semantic property,
  // independent of solver history.
  if (best_k < n) assume.push_back(Lit::Neg(count[n - 1][best_k]));
  for (int i = 0; i < n; ++i) {
    assume.push_back(Lit::Pos(sel[i]));
    if (solver_->SolveWithAssumptions(assume) != SolveResult::kSat) {
      assume.back() = Lit::Neg(sel[i]);
    }
  }
  const SolveResult final_r = solver_->SolveWithAssumptions(assume);
  CCR_CHECK(final_r == SolveResult::kSat);

  result.model.resize(num_orig);
  for (Var v = 0; v < num_orig; ++v) result.model[v] = solver_->ModelValue(v);
  result.soft_satisfied.assign(n, false);
  result.num_satisfied = 0;
  for (int i = 0; i < n; ++i) {
    // A soft counts as satisfied if its literals hold in the model
    // (selector choice aside, this is what callers care about).
    for (Lit l : soft[i]) {
      CCR_DCHECK(l.var() < num_orig);
      if (result.model[l.var()] != l.negated()) {
        result.soft_satisfied[i] = true;
        ++result.num_satisfied;
        break;
      }
    }
  }
  return result;
}

MaxSatResult SolveMaxSat(const Cnf& hard,
                         const std::vector<std::vector<Lit>>& soft,
                         const sat::SolverOptions& options) {
  Solver solver(options);
  solver.AddCnf(hard);
  IncrementalMaxSat inc(&solver);
  return inc.Solve(soft);
}

}  // namespace ccr::maxsat
