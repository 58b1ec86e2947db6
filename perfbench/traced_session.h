// The traced mirror of the default resolution pipeline.
//
// TracedSession makes the same public calls, in the same order and with
// the same options, as ResolutionSession (src/core/session.cc), and
// TracedResolve / TracedRound drive it the way Resolve
// (src/core/resolver.cc) and service::RunSessionRound do. Every call into
// a layer is wrapped in a span, so the traced run shows where a
// resolution's time goes without any timer inside src/. The mirror's
// verdicts are checked against the untraced program's on every entity; a
// mismatch means the mirror drifted from the code it mirrors and fails the
// run.

#ifndef CCR_PERFBENCH_TRACED_SESSION_H_
#define CCR_PERFBENCH_TRACED_SESSION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "perfbench/spans.h"
#include "src/core/resolver.h"
#include "src/core/session.h"
#include "src/service/session_runtime.h"

namespace ccr::perfbench {

/// Work counts of the traced pipeline. For a fixed input they repeat
/// exactly from run to run.
struct LayerCounts {
  int64_t sigma_constraints = 0;  // ground constraints from Σ
  int64_t gamma_constraints = 0;  // ground constraints from Γ
  int64_t order_units = 0;        // ground constraints from the orders
  int64_t clauses = 0;            // Φ's clauses at session end
  int64_t axiom_clauses = 0;      // clauses that encode no constraint
  int64_t extensions = 0;         // ExtendWith calls
  int64_t deduced_pairs = 0;      // Σ |Od| over DeduceOrder calls
  int64_t arena_peak_words = 0;   // max over sessions
  int64_t sls_flips = 0;
  int64_t conflicts = 0;
  int64_t decisions = 0;
  int64_t propagations = 0;
  int64_t assumption_solves = 0;
  int64_t model_cache_hits = 0;

  bool operator==(const LayerCounts&) const = default;
};

/// Mirror of ResolutionSession with a span around every layer call.
class TracedSession {
 public:
  /// `tracer` may be null (no spans). `id` tags the spans.
  TracedSession(const ResolveOptions& options, Tracer* tracer, int64_t id);

  Status Create(const Specification& se);
  ValidityResult CheckValidity();
  DeducedOrders Deduce();
  Suggestion MakeSuggestion(const std::vector<std::vector<int>>& candidates,
                            const std::vector<int>& known_true);
  Status ExtendWith(const PartialTemporalOrder& ot);

  /// Adds this session's grounding, CNF and solver counts to `counts`.
  void AddCounts(LayerCounts* counts) const;

  const Specification& spec() const { return spec_; }
  const Instantiation& instantiation() const { return *inst_; }
  Tracer* tracer() const { return tracer_; }
  int64_t id() const { return id_; }

 private:
  void FeedSolver();

  ResolveOptions options_;
  Tracer* tracer_;
  int64_t id_;
  Specification spec_;
  std::unique_ptr<Instantiation> owned_inst_;
  std::unique_ptr<sat::Cnf> owned_cnf_;
  std::unique_ptr<sat::Solver> owned_solver_;
  Instantiation* inst_ = nullptr;
  sat::Cnf* cnf_ = nullptr;
  sat::Solver* solver_ = nullptr;
  int fed_clauses_ = 0;
  int64_t retired_guard_units_ = 0;
  int64_t extensions_ = 0;
  int64_t deduced_pairs_ = 0;
};

/// Mirror of Resolve(se, oracle, options) on the session engine. Opens an
/// "entity" root span tagged `id` and adds the session's counts.
Result<ResolveResult> TracedResolve(const Specification& se,
                                    UserOracle* oracle,
                                    const ResolveOptions& options,
                                    Tracer* tracer, int64_t id,
                                    LayerCounts* counts);

/// Mirror of service::RunSessionRound.
service::RoundOutcome TracedRound(TracedSession* session);

/// The parts of a ResolveResult that make up its verdict.
struct Verdict {
  bool valid = false;
  bool complete = false;
  std::vector<Value> true_values;
  std::vector<bool> resolved;
  std::vector<bool> user_provided;
  int rounds_used = 0;

  bool operator==(const Verdict&) const = default;
};

Verdict VerdictOf(const ResolveResult& result);

/// Sets the engine-layer metrics of a traced run: per-layer span time
/// summed over `passes` passes over the corpus and divided by `passes`
/// (ms per pass), and the counts of one pass.
void ReportLayerMetrics(const Tracer& tracer, int passes,
                        const LayerCounts& counts, RunReport* report);

}  // namespace ccr::perfbench

#endif  // CCR_PERFBENCH_TRACED_SESSION_H_
