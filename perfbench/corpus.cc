#include "perfbench/corpus.h"

#include "src/data/career_generator.h"
#include "src/data/nba_generator.h"
#include "src/data/person_generator.h"

namespace ccr::perfbench {

namespace {

// Person: the paper's 983 σ over 7 attribute sets, so grounding dominates.
// Career: the generator's default 65 authors, whose citations yield
// ~450–700 constant-compare σ on one attribute. NBA: the paper's largest
// entity sizes, interactive (one answer per round, up to 8 rounds).
const BatchWorkload kBatchWorkloads[] = {
    {"person-batch", {CorpusKind::kPerson, 24, 1000, 1200, 0}, 3, 1 << 20,
     2, 4},
    {"career-batch", {CorpusKind::kCareer, 65, 1000, 1200, 1100}, 3,
     1 << 20, 4, 8},
    {"nba-interactive", {CorpusKind::kNba, 128, 100, 136, 118}, 8, 1, 16,
     32},
};

}  // namespace

const BatchWorkload* FindBatchWorkload(const std::string& name) {
  for (const BatchWorkload& w : kBatchWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

CorpusSpec ServeCorpus() { return {CorpusKind::kNba, 64, 55, 65, 60}; }

namespace {

Dataset GenerateDataset(const CorpusSpec& spec, uint64_t seed) {
  switch (spec.kind) {
    case CorpusKind::kPerson: {
      PersonOptions o;
      o.num_entities = spec.entities;
      o.min_tuples = spec.min_tuples;
      o.max_tuples = spec.max_tuples;
      o.seed = seed;
      return GeneratePerson(o);
    }
    case CorpusKind::kCareer: {
      CareerOptions o;
      o.num_entities = spec.entities;
      o.min_tuples = spec.min_tuples;
      o.max_tuples = spec.max_tuples;
      o.mean_tuples = spec.mean_tuples;
      o.seed = seed;
      return GenerateCareer(o);
    }
    case CorpusKind::kNba: {
      NbaOptions o;
      o.num_entities = spec.entities;
      o.min_tuples = spec.min_tuples;
      o.max_tuples = spec.max_tuples;
      o.mean_tuples = spec.mean_tuples;
      o.seed = seed;
      return GenerateNba(o);
    }
  }
  return {};
}

}  // namespace

Corpus GenerateCorpus(const CorpusSpec& spec, uint64_t seed) {
  Corpus c;
  for (int d = 0; d < kDatasets; ++d) {
    const Dataset ds = GenerateDataset(spec, seed * kDatasets + d);
    for (size_t i = 0; i < ds.entities.size(); ++i) {
      c.specs.push_back(ds.MakeSpec(static_cast<int>(i)));
      c.truths.push_back(ds.entities[i].truth);
    }
    c.sigma += static_cast<int64_t>(ds.sigma.size());
    c.gamma += static_cast<int64_t>(ds.gamma.size());
  }
  return c;
}

}  // namespace ccr::perfbench
