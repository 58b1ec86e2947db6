// ccr_perfbench: the end-to-end resolution benchmark.
//
//   ccr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace-dir DIR] [--git-sha SHA]
//
// Workloads: person-batch, career-batch, nba-interactive (batch.cc) and
// serve-evict (serve.cc). Prints a run-record line, then a detail line:
// ops, ops_failed, every metric measured with its unit and sample count,
// and facts about the run. The end-to-end metrics come from --trace 0,
// the per-layer ones from --trace 1. perfbench/run.py builds this binary,
// forwards its arguments and turns the detail line into the result line
// BENCHMARK.json declares.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "perfbench/bench.h"

namespace ccr::perfbench {

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

SetUpSampler::SetUpSampler(const std::function<double()>& set_up) {
  int command[2];
  int reply[2];
  if (pipe(command) != 0) return;
  if (pipe(reply) != 0) {
    close(command[0]);
    close(command[1]);
    return;
  }
  std::fflush(stdout);  // the helper must not inherit unwritten output
  const pid_t pid = fork();
  if (pid == 0) {
    close(command[1]);
    close(reply[0]);
    char c = 0;
    while (read(command[0], &c, 1) == 1) {
      const double seconds = set_up();
      if (write(reply[1], &seconds, sizeof seconds) != sizeof seconds) break;
    }
    _exit(0);
  }
  close(command[0]);
  close(reply[1]);
  if (pid < 0) {
    close(command[1]);
    close(reply[0]);
    return;
  }
  pid_ = pid;
  command_fd_ = command[1];
  reply_fd_ = reply[0];
}

SetUpSampler::~SetUpSampler() {
  if (pid_ < 0) return;
  close(command_fd_);  // the helper reads end-of-file and exits
  close(reply_fd_);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

void SetUpSampler::Sample(std::vector<double>* setup_s, RunReport* report) {
  for (int rep = 0; rep < kSetupRepsPerPoint; ++rep) {
    ++report->attempted;
    const char command = 's';
    double seconds = -1;
    if (pid_ < 0 || write(command_fd_, &command, 1) != 1 ||
        read(reply_fd_, &seconds, sizeof seconds) != sizeof seconds ||
        seconds < 0) {
      ++report->failed;
      continue;
    }
    setup_s->push_back(seconds);
  }
}

namespace {

bool OptimizedBuild() {
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return false;
#else
  const std::string type = PERFBENCH_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo";
#endif
}

void Usage() {
  std::fprintf(stderr,
               "usage: ccr_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR] [--git-sha SHA]\n"
               "workloads: person-batch career-batch nba-interactive "
               "serve-evict\n");
}

// JSON string body for the few free-form strings of the run record.
std::string Escaped(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

int Main(int argc, char** argv) {
  RunConfig cfg;
  std::string git_sha = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      cfg.trace = value == "1";
    } else if (arg == "--trace-dir") {
      cfg.trace_dir = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (!have_workload || cfg.seconds <= 0) {
    Usage();
    return 2;
  }
  if (!OptimizedBuild()) {
    std::fprintf(stderr,
                 "ccr_perfbench: refusing to report from a %s build "
                 "(assertions or sanitizers on); build Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  std::printf(
      "{\"run_record\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"nproc\": %ld, "
      "\"hardware_concurrency\": %u, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"compiler_version\": \"%s\", "
      "\"git_sha\": \"%s\"}}\n",
      Escaped(cfg.workload).c_str(),
      static_cast<unsigned long long>(cfg.seed), cfg.seconds,
      cfg.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN),
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_CXX_ID, Escaped(__VERSION__).c_str(),
      Escaped(git_sha).c_str());
  std::fflush(stdout);

  RunReport report;
  if (!RunBatchWorkload(cfg, &report) && !RunServeWorkload(cfg, &report)) {
    std::fprintf(stderr, "ccr_perfbench: unknown workload '%s'\n",
                 cfg.workload.c_str());
    Usage();
    return 2;
  }

  // Detail line: everything measured, with sample counts.
  std::printf("{\"detail\": {\"ops\": %lld, \"ops_failed\": %lld, "
              "\"metrics\": {",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  bool first = true;
  for (const auto& [name, m] : report.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                "\"samples\": %lld}",
                first ? "" : ", ", name.c_str(), m.value, m.unit.c_str(),
                static_cast<long long>(m.samples));
    first = false;
  }
  std::printf("}, \"facts\": {");
  first = true;
  for (const auto& [name, v] : report.facts) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), v);
    first = false;
  }
  std::printf("}}}\n");
  return 0;
}

}  // namespace
}  // namespace ccr::perfbench

int main(int argc, char** argv) { return ccr::perfbench::Main(argc, argv); }
