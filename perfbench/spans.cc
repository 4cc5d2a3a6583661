#include "spans.h"

#include <algorithm>
#include <fstream>

namespace perfbench {
namespace {

double Ms(SpanRecorder::Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

int SpanRecorder::Begin(const std::string& name, int parent, int request) {
  const auto now = Clock::now();
  spans_.push_back({name, now, now, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int id) { spans_[id].end = Clock::now(); }

int SpanRecorder::Add(const std::string& name, Clock::time_point start,
                      double ms, int parent, int request) {
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(ms));
  spans_.push_back({name, start, end, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanRecorder::DurationMs(int id) const {
  return Ms(spans_[id].end - spans_[id].start);
}

double SpanRecorder::SelfTimeMs(int id) const {
  const Span& span = spans_[id];
  // Union of the children's intervals, clipped to this span.
  std::vector<std::pair<Clock::time_point, Clock::time_point>> children;
  for (const Span& child : spans_) {
    if (child.parent != id) continue;
    const auto lo = std::max(child.start, span.start);
    const auto hi = std::min(child.end, span.end);
    if (lo < hi) children.emplace_back(lo, hi);
  }
  std::sort(children.begin(), children.end());
  Clock::duration covered{0};
  Clock::time_point reach = span.start;
  for (const auto& [lo, hi] : children) {
    const auto from = std::max(lo, reach);
    if (hi > from) {
      covered += hi - from;
      reach = hi;
    }
  }
  return Ms(span.end - span.start - covered);
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  const Clock::time_point epoch =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  os << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << Ms(s.start - epoch) * 1000.0 << ",\"dur\":"
       << Ms(s.end - s.start) * 1000.0 << ",\"args\":{\"id\":" << i
       << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
