#include "perfbench/traced_session.h"

#include <utility>

#include "src/core/deduce.h"
#include "src/encode/cnf_builder.h"

namespace ccr::perfbench {

namespace {

// ResolutionSession grounds with CFD guards (SessionGroundingOptions in
// src/core/session.cc).
InstantiationOptions GroundingOptions() {
  InstantiationOptions opts;
  opts.guard_cfds = true;
  return opts;
}

}  // namespace

TracedSession::TracedSession(const ResolveOptions& options, Tracer* tracer,
                             int64_t id)
    : options_(options), tracer_(tracer), id_(id) {}

Status TracedSession::Create(const Specification& se) {
  spec_ = se;
  if (options_.scratch != nullptr) {
    inst_ = options_.scratch->AcquireInstantiation();
    cnf_ = options_.scratch->AcquireCnf();
    solver_ = options_.scratch->AcquireSolver(options_.solver);
  } else {
    owned_inst_ = std::make_unique<Instantiation>();
    owned_cnf_ = std::make_unique<sat::Cnf>();
    owned_solver_ = std::make_unique<sat::Solver>(options_.solver);
    inst_ = owned_inst_.get();
    cnf_ = owned_cnf_.get();
    solver_ = owned_solver_.get();
  }
  {
    ScopedSpan span(tracer_, "encode.ground_build", id_);
    CCR_RETURN_NOT_OK(
        Instantiation::BuildInto(spec_, inst_, GroundingOptions()));
  }
  {
    ScopedSpan span(tracer_, "encode.cnf_build", id_);
    BuildCnfInto(*inst_, cnf_);
  }
  FeedSolver();
  if (options_.solver.use_inprocessing) {
    ScopedSpan span(tracer_, "sat.prime", id_);
    solver_->PrimeInprocessing();
  }
  if (options_.solver.use_sls_seeding && !options_.naive_deduce) {
    ScopedSpan span(tracer_, "sat.sls_seed", id_);
    solver_->SeedFromLocalSearch(inst_->guard_assumptions());
  }
  return Status::OK();
}

void TracedSession::FeedSolver() {
  ScopedSpan span(tracer_, "sat.feed", id_);
  solver_->AddCnfFrom(*cnf_, fed_clauses_);
  fed_clauses_ = cnf_->num_clauses();
}

ValidityResult TracedSession::CheckValidity() {
  ScopedSpan span(tracer_, "core.validity", id_);
  return IsValidShared(solver_, *cnf_, inst_->guard_assumptions());
}

DeducedOrders TracedSession::Deduce() {
  DeducedOrders od;
  {
    ScopedSpan span(tracer_, "core.deduce", id_);
    if (options_.naive_deduce) {
      od = NaiveDeduceShared(*inst_, solver_, inst_->guard_assumptions());
    } else {
      DeduceScratch* scratch =
          options_.scratch != nullptr
              ? options_.scratch->AcquireDeduceScratch()
              : nullptr;
      od = DeduceOrder(*inst_, *cnf_, options_.deduce,
                       inst_->guard_assumptions(), scratch);
    }
  }
  deduced_pairs_ += od.CountPairs();
  return od;
}

Suggestion TracedSession::MakeSuggestion(
    const std::vector<std::vector<int>>& candidates,
    const std::vector<int>& known_true) {
  ScopedSpan span(tracer_, "core.suggest", id_);
  return SuggestOnSolver(*inst_, solver_, inst_->guard_assumptions(),
                         candidates, known_true, options_.suggest);
}

Status TracedSession::ExtendWith(const PartialTemporalOrder& ot) {
  Specification next;
  {
    ScopedSpan span(tracer_, "core.glue", id_);
    CCR_ASSIGN_OR_RETURN(next, Extend(spec_, ot));
    // Suggestion scopes allocated variables on the solver directly; the
    // VarMap must hand out ids past them (as ResolutionSession does).
    while (inst_->varmap.num_vars() < solver_->num_vars()) {
      inst_->varmap.NewAuxVar();
    }
    cnf_->EnsureVars(inst_->varmap.num_vars());
  }
  InstantiationDelta delta;
  {
    ScopedSpan span(tracer_, "encode.ground_extend", id_);
    CCR_ASSIGN_OR_RETURN(delta,
                         inst_->ExtendWith(next, ot, GroundingOptions()));
  }
  if (delta.needs_rebuild) {
    return Status::Internal("guarded grounding asked for a rebuild");
  }
  {
    ScopedSpan span(tracer_, "encode.cnf_extend", id_);
    ExtendCnf(*inst_, delta, cnf_);
  }
  retired_guard_units_ += static_cast<int64_t>(delta.retired_guards.size());
  FeedSolver();
  {
    ScopedSpan span(tracer_, "sat.simplify", id_);
    solver_->Simplify();
  }
  if (options_.solver.use_sls_seeding && !options_.naive_deduce &&
      !solver_->IsUnsatForever()) {
    ScopedSpan span(tracer_, "sat.sls_seed", id_);
    solver_->SeedFromLocalSearch(inst_->guard_assumptions());
  }
  ++extensions_;
  spec_ = std::move(next);
  return Status::OK();
}

void TracedSession::AddCounts(LayerCounts* counts) const {
  int64_t constraint_clauses = 0;
  for (const GroundConstraint& gc : inst_->constraints) {
    ++constraint_clauses;
    switch (gc.source) {
      case GroundSource::kCurrencyConstraint:
        ++counts->sigma_constraints;
        break;
      case GroundSource::kCfd:
        ++counts->gamma_constraints;
        break;
      case GroundSource::kCurrencyOrder:
        ++counts->order_units;
        break;
    }
  }
  counts->clauses += cnf_->num_clauses();
  counts->axiom_clauses +=
      cnf_->num_clauses() - constraint_clauses - retired_guard_units_;
  counts->extensions += extensions_;
  counts->deduced_pairs += deduced_pairs_;
  counts->arena_peak_words =
      std::max(counts->arena_peak_words,
               static_cast<int64_t>(solver_->arena_peak_words()));
  const sat::SolverStats& st = solver_->stats();
  counts->sls_flips += st.sls_flips;
  counts->conflicts += st.conflicts;
  counts->decisions += st.decisions;
  counts->propagations += st.propagations;
  counts->assumption_solves += st.assumption_solves;
  counts->model_cache_hits += st.model_cache_hits;
}

Result<ResolveResult> TracedResolve(const Specification& se,
                                    UserOracle* oracle,
                                    const ResolveOptions& options,
                                    Tracer* tracer, int64_t id,
                                    LayerCounts* counts) {
  const int n_attrs = se.schema().size();
  ResolveResult result;
  result.true_values.assign(n_attrs, Value::Null());
  result.resolved.assign(n_attrs, false);
  result.user_provided.assign(n_attrs, false);

  TracedSession session(options, tracer, id);
  {
    ScopedSpan entity(tracer, "entity", id);
    CCR_RETURN_NOT_OK(session.Create(se));
    for (int round = 0; round <= options.max_rounds; ++round) {
      const ValidityResult validity = session.CheckValidity();
      if (!validity.valid) {
        if (round == 0) result.valid = false;
        break;
      }
      const DeducedOrders od = session.Deduce();
      const VarMap& vm = session.instantiation().varmap;
      std::vector<int> true_idx;
      int resolvable = 0;
      {
        ScopedSpan span(tracer, "core.glue", id);
        true_idx = ExtractTrueValueIndices(vm, od);
        resolvable = CountResolvableAttrs(vm);
      }
      int resolved_count = 0;
      for (int a = 0; a < n_attrs; ++a) {
        if (true_idx[a] >= 0) {
          result.true_values[a] = vm.domain(a)[true_idx[a]];
          result.resolved[a] = true;
          ++resolved_count;
        }
      }
      result.rounds_used = round;
      if (resolved_count >= resolvable) {
        result.complete = true;
        break;
      }
      if (oracle == nullptr || round == options.max_rounds) break;

      std::vector<std::vector<int>> candidates;
      {
        ScopedSpan span(tracer, "core.glue", id);
        candidates = CandidateValues(vm, od);
      }
      const Suggestion suggestion =
          session.MakeSuggestion(candidates, true_idx);
      std::vector<UserOracle::Answer> answers;
      {
        ScopedSpan span(tracer, "oracle", id);
        answers = oracle->Provide(session.spec(), suggestion, vm);
      }
      if (answers.empty()) break;
      PartialTemporalOrder ot;
      {
        ScopedSpan span(tracer, "core.glue", id);
        CCR_ASSIGN_OR_RETURN(ot, MakeAnswerDelta(session.spec(), answers));
      }
      for (const UserOracle::Answer& ans : answers) {
        result.user_provided[ans.attr] = true;
      }
      CCR_RETURN_NOT_OK(session.ExtendWith(ot));
    }
  }
  session.AddCounts(counts);
  return result;
}

service::RoundOutcome TracedRound(TracedSession* session) {
  service::RoundOutcome outcome;
  const ValidityResult validity = session->CheckValidity();
  outcome.valid = validity.valid;
  if (!validity.valid) return outcome;

  Tracer* tracer = session->tracer();
  const VarMap& vm = session->instantiation().varmap;
  const DeducedOrders od = session->Deduce();
  std::vector<int> true_idx;
  int resolvable = 0;
  {
    ScopedSpan span(tracer, "core.glue", session->id());
    true_idx = ExtractTrueValueIndices(vm, od);
    resolvable = CountResolvableAttrs(vm);
  }
  for (int a = 0; a < vm.num_attrs(); ++a) {
    if (true_idx[a] >= 0) {
      outcome.resolved.emplace_back(a, vm.domain(a)[true_idx[a]]);
    }
  }
  outcome.complete = static_cast<int>(outcome.resolved.size()) >= resolvable;
  if (outcome.complete) return outcome;

  std::vector<std::vector<int>> candidates;
  {
    ScopedSpan span(tracer, "core.glue", session->id());
    candidates = CandidateValues(vm, od);
  }
  const Suggestion suggestion = session->MakeSuggestion(candidates, true_idx);
  outcome.has_suggestion = true;
  outcome.suggested_attrs = suggestion.attrs;
  outcome.derivable_attrs = suggestion.derivable_attrs;
  for (size_t i = 0; i < suggestion.attrs.size(); ++i) {
    std::vector<Value> values;
    for (const int idx : suggestion.candidates[i]) {
      values.push_back(vm.domain(suggestion.attrs[i])[idx]);
    }
    outcome.suggested_values.push_back(std::move(values));
  }
  return outcome;
}

Verdict VerdictOf(const ResolveResult& result) {
  Verdict v;
  v.valid = result.valid;
  v.complete = result.complete;
  v.true_values = result.true_values;
  v.resolved = result.resolved;
  v.user_provided = result.user_provided;
  v.rounds_used = result.rounds_used;
  return v;
}

void ReportLayerMetrics(const Tracer& tracer, int passes,
                        const LayerCounts& counts, RunReport* report) {
  static const char* const kLayerSpans[] = {
      "encode.ground_build", "encode.ground_extend", "encode.cnf_build",
      "encode.cnf_extend",   "sat.feed",             "sat.simplify",
      "sat.prime",           "sat.sls_seed",         "core.validity",
      "core.deduce",         "core.suggest",         "core.glue",
  };
  const std::map<std::string, double> total = tracer.TotalMs();
  for (const char* name : kLayerSpans) {
    const auto it = total.find(name);
    const double ms = it == total.end() ? 0.0 : it->second;
    report->Set(std::string(name) + "_ms", ms / passes, "ms",
                static_cast<int64_t>(tracer.DurationsMs(name).size()));
  }
  const std::pair<const char*, int64_t> kCounts[] = {
      {"encode.sigma_constraints", counts.sigma_constraints},
      {"encode.gamma_constraints", counts.gamma_constraints},
      {"encode.order_units", counts.order_units},
      {"encode.clauses", counts.clauses},
      {"encode.axiom_clauses", counts.axiom_clauses},
      {"encode.extensions", counts.extensions},
      {"core.deduced_pairs", counts.deduced_pairs},
      {"sat.sls_flips", counts.sls_flips},
      {"sat.conflicts", counts.conflicts},
      {"sat.decisions", counts.decisions},
      {"sat.propagations", counts.propagations},
      {"sat.assumption_solves", counts.assumption_solves},
      {"sat.model_cache_hits", counts.model_cache_hits},
  };
  for (const auto& [name, value] : kCounts) {
    report->Set(name, static_cast<double>(value), "count");
  }
  report->Set("sat.arena_peak_words",
              static_cast<double>(counts.arena_peak_words), "words");
}

}  // namespace ccr::perfbench
