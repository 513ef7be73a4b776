#include "span_trace.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "common/json_writer.h"

namespace aer::e2e {

SpanTrace::SpanTrace(std::string run_id)
    : run_id_(std::move(run_id)), origin_(Clock::now()) {}

int SpanTrace::ThreadIndexLocked(std::thread::id id) {
  const auto it = std::find(threads_.begin(), threads_.end(), id);
  if (it != threads_.end()) return static_cast<int>(it - threads_.begin());
  threads_.push_back(id);
  return static_cast<int>(threads_.size()) - 1;
}

int SpanTrace::Begin(std::string name, int parent, bool detail) {
  SpanRecord span;
  span.name = std::move(name);
  span.parent = parent;
  span.detail = detail;
  const std::lock_guard<std::mutex> lock(mu_);
  span.thread = ThreadIndexLocked(std::this_thread::get_id());
  span.start = Clock::now();
  span.end = span.start;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanTrace::End(int id) {
  const Clock::time_point now = Clock::now();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = now;
}

std::vector<SpanRecord> SpanTrace::Spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double SpanTrace::Seconds(const SpanRecord& span) {
  return std::chrono::duration<double>(span.end - span.start).count();
}

double SpanTrace::SelfSeconds(const std::vector<SpanRecord>& spans, int id) {
  const SpanRecord& self = spans[static_cast<std::size_t>(id)];
  std::vector<std::pair<Clock::time_point, Clock::time_point>> children;
  for (const SpanRecord& span : spans) {
    if (span.parent != id || span.detail) continue;
    children.emplace_back(std::max(span.start, self.start),
                          std::min(span.end, self.end));
  }
  std::sort(children.begin(), children.end());
  Clock::duration covered{0};
  Clock::time_point reach = self.start;
  for (const auto& [start, end] : children) {
    const Clock::time_point from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return Seconds(self) - std::chrono::duration<double>(covered).count();
}

bool SpanTrace::WriteChromeTrace(const std::string& path) const {
  const std::vector<SpanRecord> spans = Spans();
  JsonValue events = JsonValue::Array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    const auto micros = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    const std::string layer = span.name.substr(0, span.name.find('.'));
    JsonValue args = JsonValue::Object();
    args.Set("run_id", JsonValue::String(run_id_));
    args.Set("span_id", JsonValue::Int(static_cast<std::int64_t>(i)));
    args.Set("parent", JsonValue::Int(span.parent));
    args.Set("detail", JsonValue::Bool(span.detail));
    JsonValue event = JsonValue::Object();
    event.Set("name", JsonValue::String(span.name));
    event.Set("cat", JsonValue::String(layer));
    event.Set("ph", JsonValue::String("X"));
    event.Set("ts", JsonValue::Number(micros(span.start)));
    event.Set("dur", JsonValue::Number(micros(span.end) - micros(span.start)));
    event.Set("pid", JsonValue::Int(1));
    event.Set("tid", JsonValue::Int(span.thread));
    event.Set("args", std::move(args));
    events.Append(std::move(event));
  }
  JsonValue root = JsonValue::Object();
  root.Set("traceEvents", std::move(events));
  root.Set("displayTimeUnit", JsonValue::String("ms"));

  std::ofstream out(path);
  if (!out.is_open()) return false;
  out << root.ToString();
  return out.good();
}

}  // namespace aer::e2e
