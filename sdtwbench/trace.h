#ifndef SDTWBENCH_TRACE_H_
#define SDTWBENCH_TRACE_H_

/// \file trace.h
/// \brief In-memory span recorder written out as Chrome trace-event JSON.
///
/// Spans are recorded by sdtw_bench around its calls into each library
/// layer: name, layer (the trace-event category), start, end, the span
/// that caused it, and the request id shared by one request's spans.
/// Counts measured at the same boundary ride along as span arguments.
/// Spans stay in memory until Write, so recording costs a lock and a
/// vector append.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/mutex.h"
#include "core/thread_annotations.h"

namespace sdtwbench {

class Tracer {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;
  using Args = std::vector<std::pair<std::string, double>>;

  explicit Tracer(bool enabled)
      : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }

  /// A fresh span id (ids start at 1; 0 means "no parent").
  std::uint64_t NewId();

  /// Records a finished span; a no-op when disabled. `id` comes from
  /// NewId() when children need to name this span as their parent, else 0
  /// allocates one.
  void Record(const char* name, const char* layer, TimePoint start,
              TimePoint end, std::uint64_t parent = 0, std::uint64_t id = 0,
              std::uint64_t request = 0, Args args = {});

  /// Writes every span as a Chrome trace-event JSON object. Fails, writing
  /// nothing, when two spans share an id or a span names a parent that
  /// was never recorded: the hierarchy would be wrong.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    const char* layer;
    double start_us;
    double end_us;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
    Args args;
  };

  const bool enabled_;
  const TimePoint origin_;
  mutable sdtw::core::Mutex mu_;
  std::uint64_t next_id_ SDTW_GUARDED_BY(mu_) = 1;
  std::vector<Span> spans_ SDTW_GUARDED_BY(mu_);
};

}  // namespace sdtwbench

#endif  // SDTWBENCH_TRACE_H_
