#include "spans.h"

#include <chrono>
#include <cstdio>
#include <memory>

namespace perfbench {

namespace {

thread_local uint64_t t_current_span = 0;
thread_local uint64_t t_current_request = 0;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder* recorder = new SpanRecorder();
  return *recorder;
}

void SpanRecorder::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kCapacity) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (spans_.empty()) spans_.reserve(kCapacity);
  spans_.push_back(span);
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

scisparql::Status SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"),
                                          &std::fclose);
  if (f == nullptr) {
    return scisparql::Status::IoError("cannot write spans to " + path);
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f.get(),
                 "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"id\": %llu, \"parent\": %llu, \"request\": %llu}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return scisparql::Status::OK();
}

RequestScope::RequestScope(uint64_t id) : saved_(t_current_request) {
  t_current_request = id;
}

RequestScope::~RequestScope() { t_current_request = saved_; }

ScopedSpan::ScopedSpan(const char* name)
    : recording_(SpanRecorder::Get().enabled()) {
  span_.name = name;
  span_.start_ns = NowNs();
  if (recording_) {
    SpanRecorder& rec = SpanRecorder::Get();
    span_.id = rec.NextId();
    span_.parent = t_current_span;
    span_.request =
        t_current_request != 0 ? t_current_request : rec.solo_request();
    saved_parent_ = t_current_span;
    t_current_span = span_.id;
  }
}

ScopedSpan::~ScopedSpan() {
  if (!recording_) return;
  span_.end_ns = NowNs();
  t_current_span = saved_parent_;
  SpanRecorder::Get().Record(span_);
}

}  // namespace perfbench
