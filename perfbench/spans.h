// The benchmark's own span recorder for the traced run: spans (name, start,
// end, parent, request id) recorded around the benchmark's calls into each
// layer, kept in memory and written out as a Chrome trace when the run ends.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;  ///< index of the enclosing span; -1 = root
    int request = -1;
  };

  /// Opens a span and returns its id; close it with End(id). Single
  /// threaded: the traced run calls layers from one thread.
  int Begin(const std::string& name, int parent, int request);
  void End(int id);

  /// Records an already-measured interval (e.g. a strand's time read from
  /// the program's report) as a closed child span.
  int Add(const std::string& name, Clock::time_point start, double ms,
          int parent, int request);

  double DurationMs(int id) const;
  /// Self time in ms of span `id`: its duration minus the part of it
  /// covered by its child spans.
  double SelfTimeMs(int id) const;

  /// Chrome trace-event JSON with each span's parent and request id.
  bool WriteChromeTrace(const std::string& path) const;


 private:
  std::vector<Span> spans_;
};

/// RAII helper around SpanRecorder::Begin/End; a null recorder records
/// nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name, int parent,
             int request)
      : recorder_(recorder),
        id_(recorder ? recorder->Begin(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
