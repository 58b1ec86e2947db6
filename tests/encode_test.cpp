// Tests for src/encode: VarMap, Instantiation (Ω(Se)), CNF builder (Φ(Se)).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "paper_fixture.h"
#include "src/core/deduce.h"
#include "src/encode/cnf_builder.h"
#include "src/encode/instantiation.h"
#include "src/sat/solver.h"

namespace ccr {
namespace {

using testing::EdithSpec;
using testing::GeorgeSpec;
using testing::PaperSchema;

class VarMapTest : public ::testing::Test {
 protected:
  Specification se_ = EdithSpec();
  VarMap vm_ = VarMap::Build(se_);
  int status_ = PaperSchema().IndexOf("status");
  int city_ = PaperSchema().IndexOf("city");
  int kids_ = PaperSchema().IndexOf("kids");
  int ac_ = PaperSchema().IndexOf("AC");
};

TEST_F(VarMapTest, DomainsMatchActiveDomains) {
  EXPECT_EQ(vm_.domain(status_).size(), 3u);  // working, retired, deceased
  EXPECT_EQ(vm_.domain(kids_).size(), 2u);    // 0, 3 (null excluded)
  EXPECT_EQ(vm_.active_domain_size(status_), 3);
}

TEST_F(VarMapTest, CfdConstantsAreIncludedWhenReachable) {
  // ψ1/ψ2 RHS cities LA and NY are already in adom(city); domain stays 3.
  EXPECT_EQ(vm_.domain(city_).size(), 3u);
  EXPECT_EQ(vm_.ValueIndex(city_, Value::Str("LA")), 2);
  // Both CFDs are applicable: 213 and 212 appear in adom(AC).
  EXPECT_EQ(vm_.applicable_cfds().size(), 2u);
}

TEST_F(VarMapTest, UnreachableCfdIsPruned) {
  Specification se = EdithSpec();
  auto extra = ParseCfd(PaperSchema(), "AC = 999 -> city = 'Nowhere'");
  ASSERT_TRUE(extra.ok());
  se.gamma.push_back(std::move(extra).value());
  const VarMap vm = VarMap::Build(se);
  // AC 999 never occurs: the CFD can never fire, its RHS constant must not
  // pollute the city domain.
  EXPECT_EQ(vm.domain(city_).size(), 3u);
  EXPECT_EQ(vm.ValueIndex(city_, Value::Str("Nowhere")), -1);
  EXPECT_EQ(vm.applicable_cfds().size(), 2u);
}

TEST_F(VarMapTest, ReachableCfdConstantExtendsDomain) {
  Specification se = EdithSpec();
  auto extra = ParseCfd(PaperSchema(), "AC = 213 -> county = 'LA County'");
  ASSERT_TRUE(extra.ok());
  se.gamma.push_back(std::move(extra).value());
  const VarMap vm = VarMap::Build(se);
  const int county = PaperSchema().IndexOf("county");
  EXPECT_EQ(vm.domain(county).size(), 4u);  // 3 adom + introduced constant
  EXPECT_GE(vm.ValueIndex(county, Value::Str("LA County")), 0);
  EXPECT_EQ(vm.active_domain_size(county), 3);
}

TEST_F(VarMapTest, CfdChainingFixpoint) {
  // A CFD whose LHS constant is only *introduced* by another CFD must
  // still be applicable (fixpoint, not single pass).
  Specification se = EdithSpec();
  auto c1 = ParseCfd(PaperSchema(), "AC = 213 -> county = 'LA County'");
  auto c2 = ParseCfd(PaperSchema(), "county = 'LA County' -> zip = '90001'");
  ASSERT_TRUE(c1.ok() && c2.ok());
  se.gamma.push_back(std::move(c1).value());
  se.gamma.push_back(std::move(c2).value());
  const VarMap vm = VarMap::Build(se);
  const int zip = PaperSchema().IndexOf("zip");
  EXPECT_GE(vm.ValueIndex(zip, Value::Str("90001")), 0);
  EXPECT_EQ(vm.applicable_cfds().size(), 4u);
}

TEST_F(VarMapTest, VarOfDecodeRoundTrip) {
  for (int a = 0; a < vm_.num_attrs(); ++a) {
    const int d = static_cast<int>(vm_.domain(a).size());
    for (int i = 0; i < d; ++i) {
      for (int j = 0; j < d; ++j) {
        if (i == j) continue;
        const sat::Var v = vm_.VarOf(a, i, j);
        ASSERT_GE(v, 0);
        ASSERT_LT(v, vm_.num_vars());
        const OrderAtom atom = vm_.Decode(v);
        EXPECT_EQ(atom.attr, a);
        EXPECT_EQ(atom.less, i);
        EXPECT_EQ(atom.more, j);
      }
    }
  }
}

TEST_F(VarMapTest, DistinctAtomsGetDistinctVars) {
  std::vector<sat::Var> vars;
  for (int a = 0; a < vm_.num_attrs(); ++a) {
    const int d = static_cast<int>(vm_.domain(a).size());
    for (int i = 0; i < d; ++i) {
      for (int j = 0; j < d; ++j) {
        if (i != j) vars.push_back(vm_.VarOf(a, i, j));
      }
    }
  }
  std::sort(vars.begin(), vars.end());
  EXPECT_EQ(std::adjacent_find(vars.begin(), vars.end()), vars.end());
}

class InstantiationTest : public ::testing::Test {
 protected:
  static int CountBySource(const Instantiation& inst, GroundSource src) {
    int n = 0;
    for (const auto& gc : inst.constraints) n += (gc.source == src) ? 1 : 0;
    return n;
  }
};

TEST_F(InstantiationTest, EdithGroundsTheExampleConstraints) {
  const Specification se = EdithSpec();
  auto inst = Instantiation::Build(se);
  ASSERT_TRUE(inst.ok());
  // Example 7: ϕ1 on (r1, r2) yields (true -> working ≺ retired): an
  // unconditional currency-constraint instance.
  const VarMap& vm = inst->varmap;
  const int status = PaperSchema().IndexOf("status");
  const int working = vm.ValueIndex(status, Value::Str("working"));
  const int retired = vm.ValueIndex(status, Value::Str("retired"));
  bool found_unconditional = false;
  for (const auto& gc : inst->constraints) {
    if (gc.source == GroundSource::kCurrencyConstraint && gc.body.empty() &&
        gc.head_kind == GroundHead::kAtom && gc.head.attr == status &&
        gc.head.less == working && gc.head.more == retired) {
      found_unconditional = true;
    }
  }
  EXPECT_TRUE(found_unconditional);
}

TEST_F(InstantiationTest, Example8CfdEncoding) {
  // ψ1 for Edith: two instance constraints
  //   212 ≺ 213 & 415 ≺ 213 -> NY ≺ LA  and  ... -> SFC ≺ LA.
  const Specification se = EdithSpec();
  auto inst = Instantiation::Build(se);
  ASSERT_TRUE(inst.ok());
  const VarMap& vm = inst->varmap;
  const int city = PaperSchema().IndexOf("city");
  const int ac = PaperSchema().IndexOf("AC");
  const int la = vm.ValueIndex(city, Value::Str("LA"));
  int cfd_heads_to_la = 0;
  for (const auto& gc : inst->constraints) {
    if (gc.source != GroundSource::kCfd) continue;
    if (gc.head.attr == city && gc.head.more == la) {
      ++cfd_heads_to_la;
      // Body: both other AC values dominated by 213.
      EXPECT_EQ(gc.body.size(), 2u);
      for (const auto& atom : gc.body) {
        EXPECT_EQ(atom.attr, ac);
        EXPECT_EQ(vm.domain(ac)[atom.more], Value::Int(213));
      }
    }
  }
  EXPECT_EQ(cfd_heads_to_la, 2);  // NY ≺ LA and SFC ≺ LA variants
}

TEST_F(InstantiationTest, OrderPredicateGrounding) {
  // ϕ6 on (r1, r2): working ≺ retired -> 212 ≺ 415 (Example 7).
  const Specification se = EdithSpec();
  auto inst = Instantiation::Build(se);
  ASSERT_TRUE(inst.ok());
  const VarMap& vm = inst->varmap;
  const int status = PaperSchema().IndexOf("status");
  const int ac = PaperSchema().IndexOf("AC");
  const int working = vm.ValueIndex(status, Value::Str("working"));
  const int retired = vm.ValueIndex(status, Value::Str("retired"));
  const int ac212 = vm.ValueIndex(ac, Value::Int(212));
  const int ac415 = vm.ValueIndex(ac, Value::Int(415));
  bool found = false;
  for (const auto& gc : inst->constraints) {
    if (gc.source != GroundSource::kCurrencyConstraint) continue;
    if (gc.body.size() == 1 && gc.body[0].attr == status &&
        gc.body[0].less == working && gc.body[0].more == retired &&
        gc.head_kind == GroundHead::kAtom && gc.head.attr == ac &&
        gc.head.less == ac212 && gc.head.more == ac415) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(InstantiationTest, NullHeadsAreVacuous) {
  // ϕ4 with t1 = r3 (kids null): null < 0 and null < 3 hold, but the head
  // r3 ≺kids rX carries no value-level content (null is not in the
  // domain). No ground constraint may mention a null.
  const Specification se = EdithSpec();
  auto inst = Instantiation::Build(se);
  ASSERT_TRUE(inst.ok());
  const VarMap& vm = inst->varmap;
  for (const auto& gc : inst->constraints) {
    for (const auto& atom : gc.body) {
      EXPECT_GE(atom.less, 0);
      EXPECT_LT(atom.less, static_cast<int>(vm.domain(atom.attr).size()));
    }
    if (gc.head_kind == GroundHead::kAtom) {
      EXPECT_GE(gc.head.less, 0);
      EXPECT_NE(gc.head.less, gc.head.more);
    }
  }
}

TEST_F(InstantiationTest, TupleProjectionDeduplication) {
  // Duplicating tuples must not change the number of currency-constraint
  // instances (grounding is over distinct projections).
  Specification se = EdithSpec();
  auto base = Instantiation::Build(se);
  ASSERT_TRUE(base.ok());
  const int base_count =
      CountBySource(*base, GroundSource::kCurrencyConstraint);

  Specification dup = EdithSpec();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        dup.temporal.AddTuple(dup.instance().tuple(i)).ok());
  }
  auto dupped = Instantiation::Build(dup);
  ASSERT_TRUE(dupped.ok());
  EXPECT_EQ(CountBySource(*dupped, GroundSource::kCurrencyConstraint),
            base_count);
}

TEST_F(InstantiationTest, CurrencyOrdersBecomeUnitConstraints) {
  Specification se = EdithSpec();
  // Explicit temporal information: r1 ≺city r2.
  ASSERT_TRUE(se.temporal.AddOrder(PaperSchema().IndexOf("city"), 0, 1).ok());
  auto inst = Instantiation::Build(se);
  ASSERT_TRUE(inst.ok());
  int order_units = 0;
  for (const auto& gc : inst->constraints) {
    if (gc.source == GroundSource::kCurrencyOrder) {
      EXPECT_TRUE(gc.body.empty());
      ++order_units;
    }
  }
  EXPECT_EQ(order_units, 1);
}

// Edith with σ whose attribute sets repeat non-adjacently: ϕ1 and ϕ2 share
// {status} with {status, job} between them, and {job} recurs likewise.
Specification SharedAttrSetSpec() {
  Specification se;
  se.temporal = TemporalInstance(testing::MakeEdith());
  se.gamma = testing::PaperGamma();
  for (const char* text : {
           "t1[status] = 'working' & t2[status] = 'retired' -> status",
           "prec(status) -> job",
           "t1[status] = 'retired' & t2[status] = 'deceased' -> status",
           "t1[job] = 'nurse' & t2[job] = 'n/a' -> job",
           "prec(city) -> AC",
           "t1[job] = 'n/a' & t2[job] = 'teacher' -> job",
       }) {
    auto phi = ParseCurrencyConstraint(PaperSchema(), text);
    EXPECT_TRUE(phi.ok()) << text;
    se.sigma.push_back(std::move(phi).value());
  }
  return se;
}

// The family-(2) constraints of `inst` in canonical (seq) order, each as
// (source_index, seq, rendered rule).
std::vector<std::tuple<int, uint64_t, std::string>> SigmaRules(
    const Instantiation& inst) {
  std::vector<std::tuple<int, uint64_t, std::string>> rules;
  for (const GroundConstraint& gc : inst.constraints) {
    if (gc.source != GroundSource::kCurrencyConstraint) continue;
    rules.emplace_back(gc.source_index, gc.seq,
                       gc.ToString(inst.varmap, PaperSchema()));
  }
  std::sort(rules.begin(), rules.end(), [](const auto& x, const auto& y) {
    return std::get<1>(x) < std::get<1>(y);
  });
  return rules;
}

TEST_F(InstantiationTest, ExtendWithMatchesBuildOnSharedAttributeSets) {
  InstantiationOptions guarded;
  guarded.guard_cfds = true;
  Specification se = SharedAttrSetSpec();
  auto inst = Instantiation::Build(se, guarded);
  ASSERT_TRUE(inst.ok());
  const int status = PaperSchema().IndexOf("status");
  const int job = PaperSchema().IndexOf("job");
  const int city = PaperSchema().IndexOf("city");

  // Three answer deltas, each a user tuple t_o ranked above every earlier
  // tuple in its answered attributes: an existing status, then a new job,
  // then a new job and city together.
  const std::vector<std::vector<std::pair<int, Value>>> answers = {
      {{status, Value::Str("deceased")}},
      {{job, Value::Str("teacher")}},
      {{job, Value::Str("retired")}, {city, Value::Str("Boston")}},
  };
  for (const auto& answer : answers) {
    PartialTemporalOrder ot;
    std::vector<Value> values(PaperSchema().size());
    const int t_o = se.instance().size();
    for (const auto& [attr, v] : answer) {
      values[attr] = v;
      for (int t = 0; t < t_o; ++t) ot.orders.emplace_back(attr, t, t_o);
    }
    ot.new_tuples.push_back(Tuple(std::move(values)));
    auto next = Extend(se, ot);
    ASSERT_TRUE(next.ok());
    se = std::move(next).value();
    auto delta = inst->ExtendWith(se, ot, guarded);
    ASSERT_TRUE(delta.ok());
    EXPECT_FALSE(delta->needs_rebuild);
  }

  auto rebuilt = Instantiation::Build(se, guarded);
  ASSERT_TRUE(rebuilt.ok());
  const auto extended_rules = SigmaRules(*inst);
  EXPECT_GT(extended_rules.size(), 0u);
  EXPECT_EQ(extended_rules, SigmaRules(*rebuilt));
}

TEST(CnfBuilderTest, NullHeadSemantics) {
  // A rule whose head orders a value before a null (the more-current
  // tuple's email is missing): vacuous by default, a contradiction under
  // strict null semantics (see InstantiationOptions::strict_null_order).
  Schema schema = Schema::Make({"status", "email"}).value();
  EntityInstance inst(schema, "e");
  ASSERT_TRUE(inst.Add(Tuple({Value::Str("working"), Value::Str("a@x")})).ok());
  ASSERT_TRUE(inst.Add(Tuple({Value::Str("retired"), Value::Null()})).ok());
  Specification se;
  se.temporal = TemporalInstance(std::move(inst));
  auto phi = ParseCurrencyConstraint(
      schema, "t1[status] = 'working' & t2[status] = 'retired' -> email");
  ASSERT_TRUE(phi.ok());
  se.sigma.push_back(std::move(phi).value());

  // Default (operational) semantics: the rule is dropped, Se stays valid.
  auto ground = Instantiation::Build(se);
  ASSERT_TRUE(ground.ok());
  for (const auto& gc : ground->constraints) {
    EXPECT_NE(gc.head_kind, GroundHead::kFalse);
  }
  {
    sat::Solver solver;
    solver.AddCnf(BuildCnf(*ground));
    EXPECT_EQ(solver.Solve(), sat::SolveResult::kSat);
  }

  // Strict semantics: (body -> false); here the body is empty after the
  // comparisons evaluate, so Φ(Se) contains the empty clause.
  InstantiationOptions strict;
  strict.strict_null_order = true;
  auto strict_ground = Instantiation::Build(se, strict);
  ASSERT_TRUE(strict_ground.ok());
  bool found_false_head = false;
  for (const auto& gc : strict_ground->constraints) {
    if (gc.head_kind == GroundHead::kFalse) found_false_head = true;
  }
  EXPECT_TRUE(found_false_head);
  sat::Solver solver;
  solver.AddCnf(BuildCnf(*strict_ground));
  EXPECT_EQ(solver.Solve(), sat::SolveResult::kUnsat);
}

// --- guarded CFD grounding ----------------------------------------------

// Two-attribute spec with CFD A=a1 -> B=b1 over two tuples.
Specification GuardSpec() {
  Schema schema = Schema::Make({"A", "B"}).value();
  EntityInstance e(schema, "guard-entity");
  EXPECT_TRUE(e.Add(Tuple({Value::Str("a1"), Value::Str("b1")})).ok());
  EXPECT_TRUE(e.Add(Tuple({Value::Str("a2"), Value::Str("b2")})).ok());
  Specification se;
  se.temporal = TemporalInstance(std::move(e));
  se.gamma.emplace_back(
      std::vector<std::pair<int, Value>>{{0, Value::Str("a1")}}, 1,
      Value::Str("b1"));
  return se;
}

// Φ(Se) holds one clause per ground constraint plus one unit per retired
// CFD guard, and no axiom clauses: each attribute's domain is the CNF's
// order domain, over exactly the VarMap's atom variables.
void ExpectOrderDomainsMatch(const Instantiation& inst, const sat::Cnf& cnf,
                             int64_t retired_guard_units) {
  const VarMap& vm = inst.varmap;
  EXPECT_EQ(cnf.num_clauses(),
            static_cast<int64_t>(inst.constraints.size()) +
                retired_guard_units);
  ASSERT_EQ(cnf.num_order_domains(), vm.num_attrs());
  for (int a = 0; a < vm.num_attrs(); ++a) {
    const sat::OrderDomain& dom = cnf.order_domain(a);
    const int d = static_cast<int>(vm.domain(a).size());
    ASSERT_EQ(dom.size(), d) << "attr " << a;
    for (int i = 0; i < d; ++i) {
      for (int j = 0; j < d; ++j) {
        if (i == j) continue;
        EXPECT_EQ(dom.VarOf(i, j), vm.VarOf(a, i, j));
      }
    }
  }
  EXPECT_EQ(cnf.num_vars(), vm.num_vars());
}

TEST(CnfBuilderTest, StructuralAxiomCounts) {
  auto inst = Instantiation::Build(EdithSpec());
  ASSERT_TRUE(inst.ok());
  ExpectOrderDomainsMatch(*inst, BuildCnf(*inst), 0);

  // An extension that grows a CFD's LHS domain retires one guard and
  // appends the new value to its attribute's order domain.
  InstantiationOptions guarded;
  guarded.guard_cfds = true;
  auto ginst = Instantiation::Build(GuardSpec(), guarded);
  ASSERT_TRUE(ginst.ok());
  sat::Cnf cnf = BuildCnf(*ginst);
  PartialTemporalOrder ot;
  ot.new_tuples.push_back(Tuple({Value::Str("a3"), Value::Null()}));
  ot.orders.emplace_back(0, 0, 2);
  ot.orders.emplace_back(0, 1, 2);
  auto next = Extend(GuardSpec(), ot);
  ASSERT_TRUE(next.ok());
  auto delta = ginst->ExtendWith(*next, ot, guarded);
  ASSERT_TRUE(delta.ok());
  ASSERT_EQ(delta->retired_guards.size(), 1u);
  ExtendCnf(*ginst, *delta, &cnf);
  EXPECT_EQ(cnf.order_domain(0).size(), 3);
  ExpectOrderDomainsMatch(*ginst, cnf, 1);
}

TEST(GuardedGroundingTest, CfdClausesCarryGuardLiterals) {
  InstantiationOptions guarded;
  guarded.guard_cfds = true;
  auto inst = Instantiation::Build(GuardSpec(), guarded);
  ASSERT_TRUE(inst.ok());
  ASSERT_EQ(inst->guard_assumptions().size(), 1u);
  const sat::Lit guard = inst->guard_assumptions()[0];
  EXPECT_FALSE(inst->varmap.IsOrderVar(guard.var()));

  int guarded_cfd_rules = 0;
  for (const GroundConstraint& gc : inst->constraints) {
    if (gc.source == GroundSource::kCfd) {
      EXPECT_EQ(gc.guard, guard.var());
      ++guarded_cfd_rules;
    } else {
      EXPECT_EQ(gc.guard, sat::kVarUndef);
    }
  }
  EXPECT_GT(guarded_cfd_rules, 0);

  // The guarded CNF widens exactly the CFD clauses by one literal.
  const sat::Cnf guarded_cnf = BuildCnf(*inst);
  auto plain_inst = Instantiation::Build(GuardSpec());
  ASSERT_TRUE(plain_inst.ok());
  const sat::Cnf plain_cnf = BuildCnf(*plain_inst);
  EXPECT_EQ(guarded_cnf.num_clauses(), plain_cnf.num_clauses());
  EXPECT_EQ(guarded_cnf.num_literals(),
            plain_cnf.num_literals() + guarded_cfd_rules);
}

TEST(GuardedGroundingTest, LhsGrowthRetiresAndRegrounds) {
  InstantiationOptions guarded;
  guarded.guard_cfds = true;
  auto inst = Instantiation::Build(GuardSpec(), guarded);
  ASSERT_TRUE(inst.ok());
  const sat::Lit old_guard = inst->guard_assumptions()[0];
  sat::Cnf cnf = BuildCnf(*inst);

  // New value in A — the CFD's LHS attribute.
  PartialTemporalOrder ot;
  ot.new_tuples.push_back(Tuple({Value::Str("a3"), Value::Null()}));
  ot.orders.emplace_back(0, 0, 2);
  ot.orders.emplace_back(0, 1, 2);
  auto next = Extend(GuardSpec(), ot);
  ASSERT_TRUE(next.ok());
  auto delta = inst->ExtendWith(*next, ot, guarded);
  ASSERT_TRUE(delta.ok());
  EXPECT_FALSE(delta->needs_rebuild);
  ASSERT_EQ(delta->retired_guards.size(), 1u);
  EXPECT_EQ(delta->retired_guards[0], old_guard.var());

  // A fresh guard replaced the retired one.
  ASSERT_EQ(inst->guard_assumptions().size(), 1u);
  const sat::Lit new_guard = inst->guard_assumptions()[0];
  EXPECT_NE(new_guard.var(), old_guard.var());

  // The re-grounded rules dominate the grown domain (one more body atom)
  // and carry the fresh guard; the stale rules keep the old one.
  int stale = 0, fresh_rules = 0;
  for (const GroundConstraint& gc : inst->constraints) {
    if (gc.source != GroundSource::kCfd) continue;
    if (gc.guard == old_guard.var()) {
      ++stale;
      EXPECT_EQ(gc.body.size(), 1u);  // dominated {a2} only
    } else {
      EXPECT_EQ(gc.guard, new_guard.var());
      ++fresh_rules;
      EXPECT_EQ(gc.body.size(), 2u);  // dominates {a2, a3}
    }
  }
  EXPECT_GT(stale, 0);
  EXPECT_GE(fresh_rules, stale);

  // Extending the CNF and seeding the active guard reproduces, literally,
  // what a from-scratch unguarded grounding of the extended spec deduces.
  ExtendCnf(*inst, *delta, &cnf);
  const DeducedOrders od_guarded =
      DeduceOrder(*inst, cnf, {}, inst->guard_assumptions());
  auto fresh = Instantiation::Build(*next);
  ASSERT_TRUE(fresh.ok());
  const sat::Cnf fresh_cnf = BuildCnf(*fresh);
  const DeducedOrders od_fresh = DeduceOrder(*fresh, fresh_cnf);
  EXPECT_EQ(od_guarded.CountPairs(), od_fresh.CountPairs());

  // And satisfiability under the active guard matches the rebuilt truth.
  sat::Solver guarded_solver;
  guarded_solver.AddCnf(cnf);
  const std::vector<sat::Lit>& assume = inst->guard_assumptions();
  EXPECT_EQ(guarded_solver.SolveWithAssumptions(
                std::span<const sat::Lit>(assume.data(), assume.size())),
            sat::SolveResult::kSat);
  sat::Solver fresh_solver;
  fresh_solver.AddCnf(fresh_cnf);
  EXPECT_EQ(fresh_solver.Solve(), sat::SolveResult::kSat);
}

TEST(GuardedGroundingTest, BuildIntoRecyclesArena) {
  // BuildInto on a warm Instantiation must be observably identical to a
  // fresh Build — same constraints, same domains, same var counts.
  // The specs alternate between no σ, the paper's σ (seven attribute
  // sets) and σ over four other sets, so stale projection tables or σ ->
  // table indices in the arena would show up as different constraints.
  const std::vector<Specification> specs = {GuardSpec(), GeorgeSpec(),
                                            SharedAttrSetSpec(), GeorgeSpec(),
                                            GuardSpec()};
  Instantiation arena;
  for (const Specification& se : specs) {
    ASSERT_TRUE(Instantiation::BuildInto(se, &arena).ok());
    auto fresh = Instantiation::Build(se);
    ASSERT_TRUE(fresh.ok());
    ASSERT_EQ(arena.constraints.size(), fresh->constraints.size());
    const Schema& schema = se.schema();
    for (size_t i = 0; i < arena.constraints.size(); ++i) {
      EXPECT_EQ(arena.constraints[i].source, fresh->constraints[i].source);
      EXPECT_EQ(arena.constraints[i].source_index,
                fresh->constraints[i].source_index);
      EXPECT_EQ(arena.constraints[i].seq, fresh->constraints[i].seq);
      EXPECT_EQ(arena.constraints[i].ToString(arena.varmap, schema),
                fresh->constraints[i].ToString(fresh->varmap, schema));
    }
    EXPECT_EQ(arena.varmap.num_vars(), fresh->varmap.num_vars());
    for (int a = 0; a < arena.varmap.num_attrs(); ++a) {
      EXPECT_EQ(arena.varmap.domain(a), fresh->varmap.domain(a));
    }
    EXPECT_EQ(BuildCnf(arena).num_clauses(), BuildCnf(*fresh).num_clauses());
    EXPECT_EQ(BuildCnf(arena).num_literals(),
              BuildCnf(*fresh).num_literals());
  }
}

}  // namespace
}  // namespace ccr
