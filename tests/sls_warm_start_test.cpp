// Tests for saved-phase seeding (Solver::SeedFromLocalSearch): the
// seeding-on/off ablation (byte-identical ExperimentResults on all three
// corpora), the phase-check contract (a model of saved phases is
// published and answers the next solve; the check never changes what a
// later search returns; phases that break an order axiom are never
// published).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/ccr.h"
#include "src/common/rng.h"
#include "src/eval/result_io.h"

namespace ccr {
namespace {

using sat::Lit;
using sat::SolveResult;
using sat::Solver;
using sat::SolverOptions;
using sat::Var;

Dataset AblationCorpus(const std::string& kind) {
  if (kind == "nba") {
    NbaOptions o;
    o.num_entities = 20;
    o.min_tuples = 3;
    o.max_tuples = 10;
    o.seed = 0xAB1;
    return GenerateNba(o);
  }
  if (kind == "career") {
    CareerOptions o;
    o.num_entities = 20;
    o.min_tuples = 3;
    o.max_tuples = 10;
    o.seed = 0xAB2;
    return GenerateCareer(o);
  }
  PersonOptions o;
  o.num_entities = 20;
  o.min_tuples = 4;
  o.max_tuples = 12;
  o.seed = 0xAB3;
  return GeneratePerson(o);
}

std::string ResolveCorpusToJson(const Dataset& ds,
                                const SolverOptions& solver) {
  ExperimentOptions eopts;
  eopts.max_rounds = 3;
  eopts.answers_per_round = 1;
  eopts.resolve.solver = solver;
  const ExperimentResult r = RunExperiment(ds, eopts);
  ResultJsonOptions jopts;
  jopts.include_timings = false;
  return ExperimentResultToJson(r, jopts);
}

// Turning saved-phase seeding off must not move a single byte of any
// resolution on any corpus.
TEST(SlsAblationEquivalenceTest, SlsOnOffResolvesIdentically) {
  for (const std::string kind : {"person", "nba", "career"}) {
    const Dataset ds = AblationCorpus(kind);
    const std::string baseline = ResolveCorpusToJson(ds, SolverOptions{});
    SolverOptions off;
    off.use_sls_seeding = false;
    EXPECT_EQ(ResolveCorpusToJson(ds, off), baseline) << kind << " sls off";
  }
}

// Phase-check contract (a): saved phases that form a model under the
// assumptions are published into the witness ring, and the next solve
// under the same assumptions is answered from it without search.
TEST(PhaseCheckTest, ModelPhasesArePublished) {
  Solver s;  // seeding and the model cache on by default
  const Var a = s.NewVar(), b = s.NewVar(), c = s.NewVar(), d = s.NewVar();
  // A fresh solver's saved phases are all true. Under ¬a every clause
  // still holds: the first through b, the second through c ∨ d.
  ASSERT_TRUE(s.AddClause({Lit::Pos(a), Lit::Pos(b), Lit::Neg(c)}));
  ASSERT_TRUE(s.AddClause({Lit::Neg(a), Lit::Pos(c), Lit::Pos(d)}));
  ASSERT_TRUE(s.AddClause({Lit::Neg(b), Lit::Pos(d)}));
  const std::vector<Lit> assume = {Lit::Neg(a)};
  ASSERT_TRUE(s.SeedFromLocalSearch(assume));
  EXPECT_EQ(s.stats().sls_seeded_models, 1);
  EXPECT_EQ(s.stats().sls_flips, 0);
  // Assumptions that contradict each other are never published.
  const std::vector<Lit> contradictory = {Lit::Pos(b), Lit::Neg(b)};
  EXPECT_FALSE(s.SeedFromLocalSearch(contradictory));
  EXPECT_EQ(s.stats().sls_seeded_models, 1);
  const int64_t decisions = s.stats().decisions;
  ASSERT_EQ(s.SolveWithAssumptions(assume), SolveResult::kSat);
  EXPECT_EQ(s.stats().model_cache_hits, 1);
  EXPECT_EQ(s.stats().decisions, decisions);
  EXPECT_FALSE(s.ModelValue(a));
  EXPECT_TRUE(s.ModelValue(b));
  EXPECT_TRUE(s.ModelValue(c));
  EXPECT_TRUE(s.ModelValue(d));

  // Phases that miss a clause are not published.
  ASSERT_TRUE(s.AddClause({Lit::Neg(c), Lit::Neg(d)}));
  EXPECT_FALSE(s.SeedFromLocalSearch(assume));
  EXPECT_EQ(s.stats().sls_seeded_models, 1);
}

// Phase-check contract (c): the order axioms are part of the formula
// without being clauses, so phases that satisfy every clause but break
// transitivity are not a model and must not be published — a published
// witness feeds Deduce's model sweeps and Suggest.
TEST(PhaseCheckTest, NonTransitivePhasesAreNotPublished) {
  // One order domain over values a, b, c, and one clause (x_ab ∨ x_ba).
  sat::Cnf cnf;
  const Var ab = cnf.NewVar(), ba = cnf.NewVar(), ac = cnf.NewVar(),
            ca = cnf.NewVar(), bc = cnf.NewVar(), cb = cnf.NewVar();
  cnf.EnsureOrderDomains(1);
  cnf.AppendOrderValue(0, std::vector<Var>{});
  cnf.AppendOrderValue(0, std::vector<Var>{ab, ba});
  cnf.AppendOrderValue(0, std::vector<Var>{ac, ca, bc, cb});
  cnf.AddBinary(Lit::Pos(ab), Lit::Pos(ba));
  Solver s;
  s.AddCnf(cnf);
  // a < b and b < c but not a < c: every clause holds, transitivity not.
  const std::vector<Lit> broken = {Lit::Pos(ab), Lit::Pos(bc), Lit::Neg(ac),
                                   Lit::Neg(ba), Lit::Neg(cb), Lit::Neg(ca)};
  EXPECT_FALSE(s.SeedFromLocalSearch(broken));
  EXPECT_EQ(s.stats().sls_seeded_models, 0);
  // The same phases with a < c form the total order a < b < c.
  const std::vector<Lit> chain = {Lit::Pos(ab), Lit::Pos(bc), Lit::Pos(ac),
                                  Lit::Neg(ba), Lit::Neg(cb), Lit::Neg(ca)};
  EXPECT_TRUE(s.SeedFromLocalSearch(chain));
  EXPECT_EQ(s.stats().sls_seeded_models, 1);
}

// Phase-check contract (b): the check reads the saved phases and never
// writes them, so a solver that runs it before every solve returns the
// same model as a twin that never runs it, on every solve of a random
// incremental sequence. The witness cache is off in both, so every solve
// searches and any phase write would show up in the models.
TEST(PhaseCheckTest, SeedingNeverChangesAModel) {
  Rng rng(0xC0FFEE);
  SolverOptions on;
  on.use_model_cache = false;
  SolverOptions off = on;
  off.use_sls_seeding = false;
  const int n_vars = 14;
  Solver seeded(on), plain(off);
  int models_found = 0;
  for (int step = 0; step < 120; ++step) {
    // Grow both formulas by the same random clause.
    const int len = 2 + static_cast<int>(rng.Below(2));
    std::vector<Lit> clause;
    for (int k = 0; k < len; ++k) {
      clause.push_back(
          Lit(static_cast<Var>(rng.Below(n_vars)), rng.Chance(0.5)));
    }
    const bool alive = seeded.AddClause(clause);
    ASSERT_EQ(plain.AddClause(clause), alive) << "step " << step;
    if (!alive) break;
    std::vector<Lit> assume;
    const int n_assume = static_cast<int>(rng.Below(3));
    for (int k = 0; k < n_assume; ++k) {
      assume.push_back(
          Lit(static_cast<Var>(rng.Below(n_vars)), rng.Chance(0.5)));
    }
    if (seeded.SeedFromLocalSearch(assume)) ++models_found;
    const SolveResult r = seeded.SolveWithAssumptions(assume);
    ASSERT_EQ(plain.SolveWithAssumptions(assume), r) << "step " << step;
    if (r != SolveResult::kSat) continue;
    for (Var v = 0; v < n_vars; ++v) {
      ASSERT_EQ(seeded.ModelValue(v), plain.ModelValue(v))
          << "step " << step << " var " << v;
    }
  }
  // The check must actually have found models of the phases, or the
  // comparison above proves nothing.
  EXPECT_GT(models_found, 5);
  // With the cache off nothing is published.
  EXPECT_EQ(seeded.stats().sls_seeded_models, 0);
}

}  // namespace
}  // namespace ccr
