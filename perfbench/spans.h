// In-memory span recorder for the benchmark's traced runs.
//
// A span is one timed call into a layer's public function, recorded from
// the benchmark's own code around that call: name, start, end, the span
// that was open when it began (its parent), and the entity or session it
// served. Spans stay in memory while the run measures and are written out
// once it ends. A span's self time is its duration minus the part its
// children cover.

#ifndef CCR_PERFBENCH_SPANS_H_
#define CCR_PERFBENCH_SPANS_H_

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "perfbench/bench.h"

namespace ccr::perfbench {

struct Span {
  const char* name = "";  // string literal
  int parent = -1;        // index into the same recorder, -1 = root
  int64_t id = 0;         // entity or session the span served
  Clock::time_point start;
  Clock::time_point end;

  double Ms() const { return MsBetween(start, end); }
};

/// Records spans of one thread. Not thread-safe: give each thread its own
/// recorder and Append them after the threads join.
class Tracer {
 public:
  int Begin(const char* name, int64_t id) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.id = id;
    s.start = Clock::now();
    spans_.push_back(s);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int index) {
    spans_[static_cast<size_t>(index)].end = Clock::now();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Moves `other`'s spans in, keeping their parent links.
  void Append(const Tracer& other) {
    const int base = static_cast<int>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent >= 0) s.parent += base;
      spans_.push_back(s);
    }
  }

  /// Summed duration (ms) of every span, by name.
  std::map<std::string, double> TotalMs() const {
    std::map<std::string, double> out;
    for (const Span& s : spans_) out[s.name] += s.Ms();
    return out;
  }

  /// Summed self time (ms) of every span, by name.
  std::map<std::string, double> SelfMs() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].Ms();
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.Ms();
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
    return out;
  }

  /// Durations (ms) of the spans named `name`.
  std::vector<double> DurationsMs(const char* name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (std::string(s.name) == name) out.push_back(s.Ms());
    }
    return out;
  }

  /// Writes one JSON object per span (times in µs since `origin`).
  bool WriteJsonl(const std::string& path, Clock::time_point origin) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"i\": %zu, \"name\": \"%s\", \"parent\": %d, "
                   "\"id\": %lld, \"start_us\": %.3f, \"end_us\": %.3f}\n",
                   i, s.name, s.parent, static_cast<long long>(s.id),
                   1000.0 * MsBetween(origin, s.start),
                   1000.0 * MsBetween(origin, s.end));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t id)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name, id) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace ccr::perfbench

#endif  // CCR_PERFBENCH_SPANS_H_
