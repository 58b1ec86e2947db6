// Batch workloads: person-batch, career-batch, nba-interactive.
//
// Timed run (tracing off): Resolve on every entity of the pinned corpus in
// order, pass after pass, on one thread with a SessionScratch — what
// RunExperiment does at num_threads = 1 — until the time is up, pausing
// between segments to sample the set-up (bench.h). Each call is timed from
// outside. After timing, every call's verdict must equal the
// first pass's verdict for that entity, and a fixed sample of entities is
// re-resolved by the rebuild engine (ResolveOptions::use_session = false),
// whose verdicts must match.
//
// Traced run: alternating passes of untraced Resolve and the traced mirror
// (traced_session.h) over the corpus. The mirror's verdict must equal
// Resolve's on every entity, and each pass's counts must equal the first
// pass's.

#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "perfbench/corpus.h"
#include "perfbench/traced_session.h"
#include "src/core/session.h"

namespace ccr::perfbench {

namespace {

uint64_t OracleSeed(int entity) {
  // RunExperiment's per-entity oracle seed (oracle_seed + index).
  return 0xACE + static_cast<uint64_t>(entity);
}

void ReportCorpus(const Corpus& c, RunReport* report) {
  report->facts["corpus_entities"] = static_cast<double>(c.specs.size());
  report->facts["corpus_sigma"] = static_cast<double>(c.sigma);
  report->facts["corpus_gamma"] = static_cast<double>(c.gamma);
}

ResolveOptions BatchResolveOptions(const BatchWorkload& w,
                                   SessionScratch* scratch) {
  ResolveOptions o;
  o.max_rounds = w.max_rounds;
  o.scratch = scratch;
  return o;
}

void RunTimed(const BatchWorkload& w, const RunConfig& cfg,
              RunReport* report) {
  SetUpSampler sampler([&] {
    const Clock::time_point t0 = Clock::now();
    const Corpus sample = GenerateCorpus(w.corpus, cfg.seed);
    return SecondsSince(t0);
  });
  std::vector<double> setup_s;
  sampler.Sample(&setup_s, report);
  const Corpus c = GenerateCorpus(w.corpus, cfg.seed);
  ReportCorpus(c, report);
  const int n = static_cast<int>(c.specs.size());
  SessionScratch scratch;
  const ResolveOptions opts = BatchResolveOptions(w, &scratch);

  auto resolve = [&](int i) -> Result<ResolveResult> {
    TruthOracle oracle(c.truths[i], w.answers_per_round, 1.0, OracleSeed(i));
    return Resolve(c.specs[i], &oracle, opts);
  };

  for (int i = 0; i < std::min(w.warmup_entities, n); ++i) {
    (void)resolve(i);
  }

  struct Call {
    int entity;
    bool ok;
    Verdict verdict;
  };
  std::vector<Call> calls;
  std::vector<double> entity_ms;
  int64_t tuples = 0;
  double wall_s = 0;
  const double segment_s = cfg.seconds / (kSetupPoints - 1);
  for (int segment = 0, k = 0; segment < kSetupPoints - 1; ++segment) {
    if (segment > 0) sampler.Sample(&setup_s, report);
    const Clock::time_point start = Clock::now();
    Clock::time_point end = start;
    for (; SecondsSince(start) < segment_s; ++k) {
      const int i = k % n;
      const Clock::time_point t0 = Clock::now();
      Result<ResolveResult> rr = resolve(i);
      end = Clock::now();
      calls.push_back(
          {i, rr.ok(), rr.ok() ? VerdictOf(rr.value()) : Verdict{}});
      if (!rr.ok()) continue;
      entity_ms.push_back(MsBetween(t0, end));
      tuples += c.specs[i].instance().size();
    }
    wall_s += MsBetween(start, end) / 1000.0;
  }
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  sampler.Sample(&setup_s, report);
  report->Set("setup_s", Median(setup_s), "s",
              static_cast<int64_t>(setup_s.size()));

  // Correctness, off the timed path. Every call must repeat its entity's
  // first verdict; sampled entities must match the rebuild engine.
  std::vector<const Verdict*> first(static_cast<size_t>(n), nullptr);
  for (const Call& call : calls) {
    ++report->attempted;
    if (!call.ok) {
      ++report->failed;
      continue;
    }
    const Verdict*& f = first[static_cast<size_t>(call.entity)];
    if (f == nullptr) {
      f = &call.verdict;
    } else if (!(*f == call.verdict)) {
      ++report->failed;
    }
  }
  ResolveOptions reference = BatchResolveOptions(w, nullptr);
  reference.use_session = false;
  const int sample = std::min(w.reference_entities, n);
  for (int s = 0; s < sample; ++s) {
    const int i = s * n / sample;
    if (first[static_cast<size_t>(i)] == nullptr) continue;
    ++report->attempted;
    TruthOracle oracle(c.truths[i], w.answers_per_round, 1.0,
                       OracleSeed(i));
    Result<ResolveResult> rr = Resolve(c.specs[i], &oracle, reference);
    if (!rr.ok() ||
        !(VerdictOf(rr.value()) == *first[static_cast<size_t>(i)])) {
      ++report->failed;
    }
  }

  const int64_t done = static_cast<int64_t>(entity_ms.size());
  report->Set("entity_ms_p50", Percentile(entity_ms, 0.5), "ms", done);
  report->Set("entity_ms_p90", Percentile(entity_ms, 0.9), "ms", done);
  report->Set("tuples_per_s", static_cast<double>(tuples) / wall_s,
              "tuples/s", done);
  report->Set("sessions_per_s", static_cast<double>(done) / wall_s, "1/s",
              done);
  report->facts["passes"] = static_cast<double>(done) / n;
  report->facts["timed_wall_s"] = wall_s;
}

void RunTraced(const BatchWorkload& w, const RunConfig& cfg,
               RunReport* report) {
  const Corpus c = GenerateCorpus(w.corpus, cfg.seed);
  ReportCorpus(c, report);
  const int n = static_cast<int>(c.specs.size());
  SessionScratch scratch;
  const ResolveOptions opts = BatchResolveOptions(w, &scratch);

  for (int i = 0; i < std::min(w.warmup_entities, n); ++i) {
    TruthOracle oracle(c.truths[i], w.answers_per_round, 1.0,
                       OracleSeed(i));
    (void)Resolve(c.specs[i], &oracle, opts);
  }

  Tracer tracer;
  LayerCounts first_counts;
  double untraced_ms = 0;
  int passes = 0;
  const Clock::time_point start = Clock::now();
  constexpr int kMaxPasses = 10;
  while (passes < kMaxPasses &&
         (passes == 0 || SecondsSince(start) < cfg.seconds)) {
    LayerCounts counts;
    for (int i = 0; i < n; ++i) {
      report->attempted += 2;
      TruthOracle plain_oracle(c.truths[i], w.answers_per_round,
                               1.0, OracleSeed(i));
      const Clock::time_point t0 = Clock::now();
      Result<ResolveResult> plain = Resolve(c.specs[i], &plain_oracle, opts);
      untraced_ms += MsBetween(t0, Clock::now());

      TruthOracle traced_oracle(c.truths[i], w.answers_per_round,
                                1.0, OracleSeed(i));
      Result<ResolveResult> traced = TracedResolve(
          c.specs[i], &traced_oracle, opts, &tracer, i, &counts);
      if (!plain.ok()) ++report->failed;
      if (!traced.ok() ||
          (plain.ok() &&
           !(VerdictOf(traced.value()) == VerdictOf(plain.value())))) {
        ++report->failed;
      }
    }
    if (passes == 0) {
      first_counts = counts;
    } else if (!(counts == first_counts)) {
      ++report->failed;  // counts must repeat exactly
    }
    ++passes;
  }

  ReportLayerMetrics(tracer, passes, first_counts, report);
  const std::map<std::string, double> total = tracer.TotalMs();
  const std::map<std::string, double> self = tracer.SelfMs();
  const double entity_ms = total.at("entity");
  // The simulated user is not a layer: leave its time out of both sides.
  const auto oracle = total.find("oracle");
  const double layer_wall =
      entity_ms - (oracle == total.end() ? 0.0 : oracle->second);
  report->Set("trace.coverage", 1.0 - self.at("entity") / layer_wall,
              "ratio", static_cast<int64_t>(passes) * n);
  report->Set("trace.overhead", entity_ms / untraced_ms, "ratio",
              static_cast<int64_t>(passes) * n);
  report->facts["passes"] = passes;
  if (!cfg.trace_dir.empty()) {
    tracer.WriteJsonl(cfg.trace_dir + "/" + w.name + "-seed" +
                          std::to_string(cfg.seed) + ".jsonl",
                      start);
  }
}

}  // namespace

bool RunBatchWorkload(const RunConfig& config, RunReport* report) {
  const BatchWorkload* w = FindBatchWorkload(config.workload);
  if (w == nullptr) return false;
  if (config.trace) {
    RunTraced(*w, config, report);
  } else {
    RunTimed(*w, config, report);
  }
  return true;
}

}  // namespace ccr::perfbench
