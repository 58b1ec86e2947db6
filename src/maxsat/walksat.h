// WalkSAT-style stochastic local search for (Max)SAT.
//
// The paper's GetSug uses the Walksat solver of Selman & Kautz [24]; this
// module reimplements that algorithm: greedy flips with random noise,
// scored by the number of clauses a flip breaks. It doubles as an
// approximate MaxSAT engine (best assignment seen = most clauses
// satisfied), which the ablation bench compares against the exact engine
// in maxsat.h. It runs on a CNF with pooled WalkSatScratch buffers; the
// resolution pipeline never calls it.

#ifndef CCR_MAXSAT_WALKSAT_H_
#define CCR_MAXSAT_WALKSAT_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/sat/cnf.h"
#include "src/sat/literal.h"

namespace ccr::maxsat {

/// WalkSAT parameters. Validated by RunWalkSat: max_flips and tries must
/// be positive and noise must lie in [0, 1] — violations surface as
/// Status::InvalidArgument, never as silent clamping.
struct WalkSatOptions {
  int64_t max_flips = 100000;  // per try
  int tries = 3;               // random restarts
  double noise = 0.5;          // probability of a random (vs greedy) flip
  uint64_t seed = 0x5eed;
};

/// Result of a WalkSAT run.
struct WalkSatResult {
  /// Best assignment found (indexed by variable).
  std::vector<bool> model;
  /// Number of clauses unsatisfied under `model` (0 means satisfying).
  int best_unsat = 0;
  /// True iff a fully satisfying assignment was found.
  bool satisfied = false;
};

/// \brief Reusable buffers for the CNF-form RunWalkSat.
///
/// Owned by SessionScratch (AcquireWalkSatScratch, the same pooling
/// pattern as AcquireInstantiation) so repeated runs — the ablation bench
/// loops over every entity — stop paying per-call occurrence-list and
/// counter allocations. The occurrence index is a flat CSR layout, not a
/// vector-of-vectors, so clearing it between runs is O(1) per buffer.
struct WalkSatScratch {
  std::vector<uint8_t> assign;     // per var
  std::vector<int> true_count;     // per clause
  std::vector<int> occ_start;      // lit index -> CSR offset
  std::vector<int> occ;            // CSR clause ids
  std::vector<int> cursor;         // CSR fill cursors
  std::vector<int> unsat_clauses;  // stack of unsatisfied clause ids
  std::vector<int> unsat_pos;      // clause -> index in unsat_clauses, -1
  std::vector<sat::Var> zero_break;  // freebie candidates per flip
};

/// Runs WalkSAT on `cnf`. With weights absent, this maximizes the number
/// of satisfied clauses; callers implementing partial MaxSAT replicate
/// hard clauses to weight them (as the original Walksat-based MaxSat
/// pipelines did). `scratch` (optional) pools the working buffers across
/// calls. Deterministic under options.seed.
Result<WalkSatResult> RunWalkSat(const sat::Cnf& cnf,
                                 const WalkSatOptions& options,
                                 WalkSatScratch* scratch = nullptr);

}  // namespace ccr::maxsat

#endif  // CCR_MAXSAT_WALKSAT_H_
