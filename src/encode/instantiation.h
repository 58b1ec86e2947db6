// Instantiation(Se): grounding a specification into the instance
// constraints Ω(Se) of §V-A.
//
// Ω(Se) conceptually contains four families:
//   (1a) unit constraints for the partial currency orders in It;
//   (1b) transitivity and (1c) asymmetry of each ≺^v_A;
//   (2)  currency constraints instantiated on tuple pairs;
//   (3)  constant CFDs expanded per competing value b.
// Families (2), (3) and (1a) are materialized here — they carry the
// provenance that TrueDer (§V-C) partitions into derivation rules.
// Families (1b)/(1c) are pure functions of the domains and are never
// written out as clauses: cnf_builder.h hands each attribute's domain to
// the CNF as an order domain, and the solver and DeduceOrder enforce the
// two families by propagation (src/sat/order_domain.h).
//
// Grounding deduplicates tuple pairs by their projection onto the
// attributes a constraint mentions, so the cost is bounded by distinct
// value combinations instead of |It|^2 — this is what makes the paper's
// 10k-tuple Person entities (Fig. 8(a)) tractable. Constraints that
// mention the same attribute set share one projection table: a tuple is
// hashed once per distinct set (7 for the Person spec's 983 constraints),
// not once per constraint.
//
// The framework loop (Fig. 4) re-grounds the *same* specification plus a
// small user delta every round, so the instantiation retains its grounding
// state (projection tables, emitted units, CFD applicability) and
// ExtendWith grounds only the delta, appending constraints and domain
// values without disturbing anything already emitted. Build is the same
// extension run from an empty state over every tuple: one routine grounds
// the tuples [first, n) for both, so appended constraints follow the
// canonical order a from-scratch Build produces (see `seq`) and downstream
// rule mining is bit-compatible with a full rebuild.

#ifndef CCR_ENCODE_INSTANTIATION_H_
#define CCR_ENCODE_INSTANTIATION_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/constraints/specification.h"
#include "src/encode/varmap.h"

namespace ccr {

/// How a ground constraint concludes.
enum class GroundHead {
  kAtom,     // body -> head atom            (orders, currency rules, CFDs)
  kFalse,    // body -> false                (head was unsatisfiable)
};

/// Where a ground constraint came from (provenance for TrueDer).
enum class GroundSource {
  kCurrencyOrder,       // partial order pair in It
  kCurrencyConstraint,  // some ϕ ∈ Σ on a tuple pair
  kCfd,                 // some ψ ∈ Γ and a competing value
};

/// \brief One materialized instance constraint: conjunction of positive
/// order atoms implying a head atom (or false).
struct GroundConstraint {
  GroundSource source = GroundSource::kCurrencyOrder;
  int source_index = -1;  // index into Σ or Γ; -1 for order pairs
  std::vector<OrderAtom> body;
  GroundHead head_kind = GroundHead::kAtom;
  OrderAtom head;
  /// Guard selector (guarded grounding only): the CNF clause is emitted as
  /// (¬guard ∨ clause) and holds only while the guard is assumed true.
  /// One guard is shared by all rules of a (CFD, LHS-pattern-version); a
  /// version whose guard has been retired stays in `constraints` but is
  /// permanently deactivated in the formula. kVarUndef = unguarded.
  sat::Var guard = sat::kVarUndef;
  /// Canonical emission rank within its family. For family (2) this packs
  /// (constraint index, projection-pair generation); TrueDer sorts by it so
  /// incremental appends and full rebuilds mine identical rule orders.
  uint64_t seq = 0;

  std::string ToString(const VarMap& vm, const Schema& schema) const;
};

/// Grounding options.
struct InstantiationOptions {
  /// How to ground a rule whose head demands that a *null* be more
  /// current than a value (e.g. prec(status) -> job onto a tuple with a
  /// missing job). Nulls rank lowest (§II-A), so under the strict reading
  /// the head is unsatisfiable and the rule becomes (body -> false). The
  /// default is the operational reading of the paper's value-level
  /// encoding: nulls carry no value-level content and the ground rule is
  /// vacuous — required for the framework's user tuples t_o, which are
  /// null outside the answered attributes (§III Remark (1)).
  bool strict_null_order = false;
  /// Guard every grounded CFD rule body with a per-(CFD, LHS-pattern)
  /// selector variable (see GroundConstraint::guard). With guards on, the
  /// one non-append-only delta — a new value in an applicable CFD's LHS
  /// attribute — no longer forces a rebuild: ExtendWith retires the old
  /// guard and appends re-grounded guarded rules. Callers must then pass
  /// guard_assumptions() to every solve/deduction over the encoding. The
  /// ResolutionSession runs guarded; one-shot paths stay unguarded and
  /// keep needs_rebuild semantics. Must match across Build/ExtendWith.
  bool guard_cfds = false;
};

/// Hash over a projection (vector of values), used by the grounding's
/// tuple-pair deduplication tables.
struct ProjHash {
  size_t operator()(const std::vector<Value>& vs) const {
    size_t h = 0x9e3779b97f4a7c15ULL;
    for (const Value& v : vs) h = h * 1315423911ULL + v.Hash();
    return h;
  }
};

/// \brief What an ExtendWith call changed — consumed by ExtendCnf to
/// append exactly the matching clauses.
struct InstantiationDelta {
  /// True when the delta cannot be grounded append-only (a new domain
  /// value landed in the LHS attribute of an already-grounded CFD, which
  /// would strengthen existing rule bodies) — unguarded grounding only;
  /// with InstantiationOptions::guard_cfds that case is expressed by
  /// `retired_guards` instead and this is always false. When set, nothing
  /// was mutated; the caller must rebuild from scratch.
  bool needs_rebuild = false;
  /// Constraints [first_new_constraint, constraints.size()) are new.
  int first_new_constraint = 0;
  /// Guards of CFD versions invalidated by this delta (their LHS domain
  /// grew). ExtendCnf asserts each one off with a permanent unit clause;
  /// the re-grounded replacement rules are among the new constraints.
  std::vector<sat::Var> retired_guards;
};

/// \brief Ω(Se): the var map plus the materialized constraint families.
struct Instantiation {
  VarMap varmap;
  std::vector<GroundConstraint> constraints;

  /// Grounds `se`. Fails only on malformed constraints (e.g. attribute
  /// indices out of range); an unsatisfiable Se still grounds fine and is
  /// detected later by IsValid.
  static Result<Instantiation> Build(const Specification& se,
                                     const InstantiationOptions& options = {});

  /// In-place Build: grounds `se` into `*out`, recycling the projection
  /// tables, hash-table buckets and vectors `*out` has already grown
  /// (SessionScratch's cross-entity Instantiation arena). Observably
  /// identical to assigning a fresh Build. On error `*out` is left in an
  /// unspecified (but destructible/reusable) state.
  static Status BuildInto(const Specification& se, Instantiation* out,
                          const InstantiationOptions& options = {});

  /// Active CFD guard literals (guarded grounding only; empty otherwise).
  /// Every solve or unit-propagation pass over the guarded CNF must
  /// assume these true — a retired guard is instead asserted off inside
  /// the formula by ExtendCnf.
  const std::vector<sat::Lit>& guard_assumptions() const {
    return active_guards_;
  }

  /// Incrementally grounds Se ⊕ Ot. `extended_se` must be
  /// Extend(previous, delta) for the specification this instantiation was
  /// built from (or last extended to); only `delta`'s tuples and orders
  /// are grounded. Appends domain values / variables / constraints; never
  /// reorders or mutates existing ones. When the returned delta has
  /// needs_rebuild set, this instantiation is unchanged and the caller
  /// must Build(extended_se) instead.
  Result<InstantiationDelta> ExtendWith(
      const Specification& extended_se, const PartialTemporalOrder& delta,
      const InstantiationOptions& options = {});

 private:
  // The deduplicated projections of the grounded tuples onto one attribute
  // set, shared by every σ that mentions exactly those attributes. Ids are
  // first-occurrence order, so a table is the one each of its σ would
  // build alone and pair indices (hence `seq`) do not depend on sharing.
  struct ProjectionTable {
    std::vector<int> attrs;
    std::unordered_map<std::vector<Value>, int, ProjHash> proj_ids;
    std::vector<Tuple> projections;  // full-width, nulls off-projection
  };

  // Family (2) for tuples [first_tuple, |It|): projects them into every
  // table, then grounds each σ, σ-major, on the projection pairs that
  // involve a projection this call added. Build passes 0, ExtendWith the
  // number of tuples already grounded.
  void GroundSigma(const Specification& se, int first_tuple,
                   const InstantiationOptions& options);
  void GroundSigmaPair(const CurrencyConstraint& phi, int ci,
                       const ProjectionTable& table, int p, int q,
                       const InstantiationOptions& options);
  // Family (1a): the tuple order t_less ≺_attr t_more as a value-level
  // unit rule, emitted once per distinct value pair.
  void GroundOrderUnit(const EntityInstance& ie, int attr, int t_less,
                       int t_more);
  void GroundCfd(int gi, const Specification& se, int first_b);

  std::vector<ProjectionTable> tables_;  // one per distinct attribute set
  std::vector<int> sigma_table_;         // per sigma index: its table
  std::unordered_set<uint64_t> unit_seen_;  // family (1a) dedup keys
  std::vector<bool> cfd_applicable_;        // per gamma index
  std::vector<bool> cfd_lhs_attr_;  // attr is LHS of an applicable CFD
  int num_tuples_ = 0;              // tuples grounded so far
  bool guarded_ = false;            // InstantiationOptions::guard_cfds
  std::vector<sat::Var> cfd_guard_;  // current guard per gamma index
  std::vector<sat::Lit> active_guards_;  // live guard literals, stable order
};

}  // namespace ccr

#endif  // CCR_ENCODE_INSTANTIATION_H_
