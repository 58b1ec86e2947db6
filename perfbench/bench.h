// Shared types of the end-to-end resolution benchmark (ccr_perfbench).
//
// A run executes one workload for a fixed time and reports named metrics,
// each with its unit and the number of samples behind it. A run with
// tracing off reports the end-to-end metrics; a traced run reports the
// per-layer metrics. Both report how many operations were attempted and
// how many failed (an engine or wire error, a rejected request, or an
// output that differs from its reference).

#ifndef CCR_PERFBENCH_BENCH_H_
#define CCR_PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace ccr::perfbench {

/// Command-line settings of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory the traced run writes its span dump into (empty = none).
  std::string trace_dir;
};

/// One reported number.
struct Metric {
  double value = 0;
  std::string unit;
  /// Samples the value summarizes (1 for a single measurement).
  int64_t samples = 1;
};

/// Everything a run reports.
struct RunReport {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Extra facts about the run (corpus shape, passes, ...), printed in the
  /// detail line only.
  std::map<std::string, double> facts;

  void Set(const std::string& name, double value, const std::string& unit,
           int64_t samples = 1) {
    metrics[name] = Metric{value, unit, samples};
  }
};

/// The host's speed drifts over seconds, so a timed run samples its
/// set-up at kSetupPoints moments spread over the run: before the timed
/// phase, between its kSetupPoints - 1 equal segments (the timed clock
/// stopped), and after it. Each moment sets up kSetupRepsPerPoint times in
/// a SetUpSampler; setup_s is the median of all of them.
inline constexpr int kSetupPoints = 10;
inline constexpr int kSetupRepsPerPoint = 2;

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank percentile (p in [0, 1]) of `values`; 0 when empty.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(idx, values.size() - 1)];
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Process peak resident set size so far, in MB.
double PeakRssMb();

/// Takes set-up samples in a helper process, forked when the sampler is
/// made. Make it before the workload allocates or starts threads: the
/// helper then sets up in a heap like a fresh process's, and the memory it
/// allocates never reaches this process's heap or peak RSS, so samples
/// taken mid-run leave the workload as it was.
class SetUpSampler {
 public:
  /// `set_up` runs in the helper and returns the seconds one set-up took,
  /// or a negative value if it failed.
  explicit SetUpSampler(const std::function<double()>& set_up);
  /// Stops the helper and waits until it has ended.
  ~SetUpSampler();
  SetUpSampler(const SetUpSampler&) = delete;
  SetUpSampler& operator=(const SetUpSampler&) = delete;

  /// Sets up kSetupRepsPerPoint times and appends the seconds to
  /// `setup_s`. Each set-up counts as an attempted operation in `report`,
  /// and one that fails as a failed one.
  void Sample(std::vector<double>* setup_s, RunReport* report);

 private:
  int pid_ = -1;
  int command_fd_ = -1;  // to the helper: one byte per set-up
  int reply_fd_ = -1;    // from the helper: one double per set-up
};

/// Runs the named batch workload (person-batch, career-batch,
/// nba-interactive). Returns false for an unknown name.
bool RunBatchWorkload(const RunConfig& config, RunReport* report);

/// Runs serve-evict. Returns false for an unknown name.
bool RunServeWorkload(const RunConfig& config, RunReport* report);

}  // namespace ccr::perfbench

#endif  // CCR_PERFBENCH_BENCH_H_
