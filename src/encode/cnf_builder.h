// ConvertToCNF: Φ(Se) from Ω(Se) (§V-A).
//
// Every materialized ground constraint (b1 ∧ ... ∧ bk → h) becomes
// the clause (¬b1 ∨ ... ∨ ¬bk ∨ h); transitivity and asymmetry of ≺^v_A
// are streamed straight into the CNF from the domains. By Lemma 5 of the
// paper, Se is valid iff Φ(Se) is satisfiable (a consistent strict partial
// order always extends to a total order).

#ifndef CCR_ENCODE_CNF_BUILDER_H_
#define CCR_ENCODE_CNF_BUILDER_H_

#include "src/encode/instantiation.h"
#include "src/sat/cnf.h"

namespace ccr {

/// Builds Φ(Se) over the variables of `inst.varmap`.
sat::Cnf BuildCnf(const Instantiation& inst);

/// Builds Φ(Se) into `*cnf` (cleared first, keeping its buffer capacity).
/// Identical output to BuildCnf; the out-parameter form lets a recycled
/// formula (SessionScratch) be refilled without fresh allocations. This is
/// ExtendCnf from the empty formula: every constraint is new and every
/// domain grew from size 0.
void BuildCnfInto(const Instantiation& inst, sat::Cnf* cnf);

/// Appends to `cnf` exactly the clauses Φ(Se ⊕ Ot) gains from an
/// Instantiation::ExtendWith call: one unit per retired CFD guard
/// (guarded grounding — deactivates the stale rule version), one clause
/// per new ground constraint, plus the asymmetry/transitivity axioms for
/// atom pairs/triples that touch a newly added domain value. `cnf` must be
/// the formula previously built (and possibly already extended) from
/// `inst`.
void ExtendCnf(const Instantiation& inst, const InstantiationDelta& delta,
               sat::Cnf* cnf);

}  // namespace ccr

#endif  // CCR_ENCODE_CNF_BUILDER_H_
