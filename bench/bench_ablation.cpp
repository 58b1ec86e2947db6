// Ablations of the design choices called out in docs/ARCHITECTURE.md
// ("Semantic decisions") and of the solver pieces around them:
//   A1. DeduceOrder negative-unit handling — paper mode (Fig. 5 lines 6-7
//       add the reversed order) vs strict mode (negative units only reduce
//       the formula).
//   A2. MaxClique exact branch-and-bound vs greedy heuristic in Suggest.
//   A3. The CDCL solver on Φ(Se), against a pigeonhole contrast.

#include "bench_util.h"

namespace {

using namespace ccr;
using namespace ccr::bench;

void AblateDeduceMode(const Dataset& ds) {
  PrintHeader("A1 — DeduceOrder negative-unit handling");
  for (bool paper_mode : {true, false}) {
    double ms = 0;
    int64_t pairs = 0;
    int resolved = 0;
    Timer t;
    for (size_t i = 0; i < ds.entities.size(); ++i) {
      const Specification se = ds.MakeSpec(static_cast<int>(i));
      auto inst = Instantiation::Build(se);
      CCR_CHECK(inst.ok());
      const sat::Cnf phi = BuildCnf(*inst);
      DeduceOptions opts;
      opts.paper_negative_units = paper_mode;
      const DeducedOrders od = DeduceOrder(*inst, phi, opts);
      pairs += od.CountPairs();
      for (int v : ExtractTrueValueIndices(inst->varmap, od)) {
        resolved += v >= 0 ? 1 : 0;
      }
    }
    ms = t.ElapsedMs();
    std::printf("  %-12s: %8.1f ms, %lld deduced pairs, %d true values\n",
                paper_mode ? "paper-mode" : "strict-mode", ms,
                static_cast<long long>(pairs), resolved);
  }
}

void AblateClique(const Dataset& ds) {
  PrintHeader("A2 — MaxClique exact vs greedy in Suggest");
  for (bool exact : {true, false}) {
    double ms = 0;
    size_t suggested_attrs = 0;
    size_t derivable = 0;
    Timer t;
    for (size_t i = 0; i < ds.entities.size(); ++i) {
      const Specification se = ds.MakeSpec(static_cast<int>(i));
      auto inst = Instantiation::Build(se);
      CCR_CHECK(inst.ok());
      const sat::Cnf phi = BuildCnf(*inst);
      const DeducedOrders od = DeduceOrder(*inst, phi);
      const auto known = ExtractTrueValueIndices(inst->varmap, od);
      const auto candidates = CandidateValues(inst->varmap, od);
      SuggestOptions opts;
      opts.exact_clique = exact;
      const Suggestion sug = Suggest(*inst, phi, candidates, known, opts);
      suggested_attrs += sug.attrs.size();
      derivable += sug.derivable_attrs.size();
    }
    ms = t.ElapsedMs();
    std::printf("  %-12s: %8.1f ms, %zu attrs to ask, %zu derivable\n",
                exact ? "exact-bnb" : "greedy", ms, suggested_attrs,
                derivable);
  }
}

void AblateSolverFeatures(const Dataset& ds) {
  PrintHeader("A3 — SAT solver on Φ(Se)");
  double ms = 0;
  int64_t conflicts = 0;
  for (size_t i = 0; i < ds.entities.size(); ++i) {
    const Specification se = ds.MakeSpec(static_cast<int>(i));
    auto inst = Instantiation::Build(se);
    CCR_CHECK(inst.ok());
    const sat::Cnf phi = BuildCnf(*inst);
    Timer t;
    const ValidityResult r = IsValidCnf(phi);
    ms += t.ElapsedMs();
    conflicts += r.solver_conflicts;
    CCR_CHECK(r.valid);
  }
  std::printf("  %-12s: %8.1f ms, %lld conflicts\n", "full", ms,
              static_cast<long long>(conflicts));
  std::printf("  (valid Φ(Se) instances are propagation-dominated — "
              "conflict-driven search\n   pays off on adversarial inputs; "
              "contrast:)\n");
  // Pigeonhole contrast: PHP(8,7) is hard without conflict-driven search.
  const int holes = 7;
  sat::Cnf php;
  auto var = [&](int p, int h) { return p * holes + h; };
  for (int p = 0; p <= holes; ++p) {
    std::vector<sat::Lit> clause;
    for (int h = 0; h < holes; ++h) {
      clause.push_back(sat::Lit::Pos(var(p, h)));
    }
    php.AddClause(std::span<const sat::Lit>(clause.data(), clause.size()));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 <= holes; ++p1) {
      for (int p2 = p1 + 1; p2 <= holes; ++p2) {
        php.AddBinary(sat::Lit::Neg(var(p1, h)), sat::Lit::Neg(var(p2, h)));
      }
    }
  }
  Timer t;
  const ValidityResult r = IsValidCnf(php);
  std::printf("  %-12s: %8.1f ms, %lld conflicts on PHP(8,7)\n", "full",
              t.ElapsedMs(), static_cast<long long>(r.solver_conflicts));
  CCR_CHECK(!r.valid);
}

}  // namespace

int main() {
  const int scale = BenchScale();
  NbaOptions nopts;
  nopts.num_entities = 30 * scale;
  const Dataset nba = GenerateNba(nopts);
  PersonOptions popts;
  popts.num_entities = 20 * scale;
  popts.min_tuples = 10;
  popts.max_tuples = 60;
  popts.p_status_gap = 0.4;
  const Dataset person = GeneratePerson(popts);

  AblateDeduceMode(person);
  AblateClique(person);
  AblateSolverFeatures(nba);
  return 0;
}
