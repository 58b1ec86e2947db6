// The pinned corpora of the benchmark's workloads.
//
// Each workload resolves one fixed corpus: its generator options and
// entity count are fixed here, and only the generator seed comes from the
// command line. A run grows by repeating passes over the corpus, never by
// generating more entities — Career's Σ is pooled from the corpus's
// citations, so its per-entity cost depends on the entity count.
//
// Every corpus joins four independently generated datasets of the same
// shape. The generators derive Σ and Γ from the seed as well as the
// entities — Career's pooled Σ ranges over 450–700 σ from seed to seed at
// 65 authors — so one draw per seed would make the workload's cost hang on
// that draw's constraints. Four draws keep each dataset at the paper's
// scale and average the workload over four constraint sets.

#ifndef CCR_PERFBENCH_CORPUS_H_
#define CCR_PERFBENCH_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/data/dataset.h"

namespace ccr::perfbench {

enum class CorpusKind { kPerson, kCareer, kNba };

/// Generator options of one corpus.
struct CorpusSpec {
  CorpusKind kind = CorpusKind::kNba;
  int entities = 0;  // per dataset
  int min_tuples = 0;
  int max_tuples = 0;
  double mean_tuples = 0;  // Career and NBA only
};

/// A batch workload: Resolve over every entity of the corpus, in order,
/// on one thread with a SessionScratch, answered by the ground-truth
/// oracle.
struct BatchWorkload {
  const char* name;
  CorpusSpec corpus;
  int max_rounds;
  int answers_per_round;
  /// Entities resolved before timing starts (warm caches and allocators).
  int warmup_entities;
  /// Entities re-resolved by the rebuild engine after timing.
  int reference_entities;
};

/// The batch workload called `name`, or null.
const BatchWorkload* FindBatchWorkload(const std::string& name);

/// The corpus of serve-evict: NBA entities of about 60 tuples.
CorpusSpec ServeCorpus();

/// The entities of a corpus as the program receives them: one
/// specification each (empty currency orders, its dataset's full Σ and Γ),
/// plus the ground truth the simulated user answers from.
struct Corpus {
  std::vector<Specification> specs;
  std::vector<std::vector<Value>> truths;
  int64_t sigma = 0;  // Σ sizes summed over the datasets
  int64_t gamma = 0;  // Γ sizes summed over the datasets
};

/// Datasets joined into every corpus.
inline constexpr int kDatasets = 4;

/// Generates `spec`'s corpus: kDatasets datasets joined; deterministic in
/// `seed`.
Corpus GenerateCorpus(const CorpusSpec& spec, uint64_t seed);

}  // namespace ccr::perfbench

#endif  // CCR_PERFBENCH_CORPUS_H_
