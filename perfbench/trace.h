// Span recorder for the benchmark's traced mode.
//
// One span per call into a retrace module: name (module first, e.g.
// "replay.reproduce"), start, end, the span that was open when it began
// (its parent), and optional integer counters recorded at the same
// boundary. Spans stay in memory and are written once, when the run ends,
// as Chrome trace-event JSON ("X" events; `args` carries id, parent and
// counters), so the file opens in chrome://tracing or Perfetto and is easy
// to post-process. A disabled tracer records nothing and costs one branch
// per call site.
#ifndef RETRACE_PERFBENCH_TRACE_H_
#define RETRACE_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  size_t size() const { return spans_.size(); }

  // Opens a span under the innermost open one; returns its id (-1 when
  // disabled).
  int Begin(std::string name) {
    if (!enabled_) {
      return -1;
    }
    const Clock::time_point entered = Clock::now();
    Span span;
    span.id = static_cast<int>(spans_.size());
    span.parent = open_.empty() ? -1 : open_.back();
    span.name = std::move(name);
    spans_.push_back(std::move(span));
    open_.push_back(spans_.back().id);
    // The span starts after the tracer's own work; that work is counted
    // in self_s() instead.
    const Clock::time_point start = Clock::now();
    spans_.back().start_us = Us(start);
    self_ += start - entered;
    return spans_.back().id;
  }

  // Closes the innermost open span, which must be `id` (ScopedSpan
  // closes spans in LIFO order).
  void End(int id) {
    if (id < 0) {
      return;
    }
    const Clock::time_point end = Clock::now();
    spans_[id].end_us = Us(end);
    open_.pop_back();
    self_ += Clock::now() - end;
  }

  void Count(int id, const char* key, uint64_t value) {
    if (id >= 0) {
      const Clock::time_point entered = Clock::now();
      spans_[id].counters.emplace_back(key, value);
      self_ += Clock::now() - entered;
    }
  }

  // Time spent inside Begin, End and Count so far: the tracer's own cost,
  // apart from the clock reads that bound each span.
  double self_s() const { return std::chrono::duration<double>(self_).count(); }

  // Writes every span; false when the file cannot be written.
  bool Write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      return false;
    }
    std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d",
                   s.name.c_str(), Module(s.name).c_str(), s.start_us, s.end_us - s.start_us,
                   s.id, s.parent);
      for (const auto& [key, value] : s.counters) {
        std::fprintf(out, ", \"%s\": %llu", key, static_cast<unsigned long long>(value));
      }
      std::fprintf(out, "}}%s\n", i + 1 == spans_.size() ? "" : ",");
    }
    std::fprintf(out, "]}\n");
    return std::fclose(out) == 0;
  }

 private:
  struct Span {
    int id = -1;
    int parent = -1;
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    std::vector<std::pair<const char*, uint64_t>> counters;
  };

  static std::string Module(const std::string& name) {
    const size_t dot = name.find('.');
    return dot == std::string::npos ? name : name.substr(0, dot);
  }

  double Us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  Clock::duration self_{};
};

// Closes its span on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.Begin(std::move(name))) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Count(const char* key, uint64_t value) { tracer_.Count(id_, key, value); }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // RETRACE_PERFBENCH_TRACE_H_
