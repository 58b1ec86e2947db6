// DIMACS CNF serialization, for interoperability with external SAT tooling
// and for snapshotting Φ(Se) instances in tests.

#ifndef CCR_SAT_DIMACS_H_
#define CCR_SAT_DIMACS_H_

#include <string>

#include "src/common/status.h"
#include "src/sat/cnf.h"

namespace ccr::sat {

/// Renders `cnf` in DIMACS format ("p cnf <vars> <clauses>" header,
/// 1-based signed literals, 0-terminated clauses). The order domains'
/// asymmetry and transitivity axioms are written out as clauses after
/// the formula's own, so the text stands alone.
std::string ToDimacs(const Cnf& cnf);

/// Parses DIMACS text into plain clauses (no order domains). Accepts
/// comment lines ('c ...') and tolerates a missing header; literal 0
/// terminates each clause.
Result<Cnf> FromDimacs(const std::string& text);

}  // namespace ccr::sat

#endif  // CCR_SAT_DIMACS_H_
