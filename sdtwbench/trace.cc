#include "trace.h"

#include <cstdio>
#include <unordered_set>

namespace sdtwbench {

std::uint64_t Tracer::NewId() {
  sdtw::core::MutexLock lock(mu_);
  return next_id_++;
}

void Tracer::Record(const char* name, const char* layer, TimePoint start,
                    TimePoint end, std::uint64_t parent, std::uint64_t id,
                    std::uint64_t request, Args args) {
  if (!enabled_) return;
  const auto us = [this](TimePoint t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  sdtw::core::MutexLock lock(mu_);
  if (id == 0) id = next_id_++;
  spans_.push_back(
      {name, layer, us(start), us(end), id, parent, request, std::move(args)});
}

bool Tracer::Write(const std::string& path) const {
  std::vector<Span> spans;
  {
    sdtw::core::MutexLock lock(mu_);
    spans = spans_;
  }
  std::unordered_set<std::uint64_t> ids;
  for (const Span& s : spans) {
    if (!ids.insert(s.id).second) {
      std::fprintf(stderr, "trace: two spans share id %llu\n",
                   static_cast<unsigned long long>(s.id));
      return false;
    }
  }
  for (const Span& s : spans) {
    if (s.parent != 0 && ids.count(s.parent) == 0) {
      std::fprintf(stderr, "trace: span %llu names missing parent %llu\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
      return false;
    }
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu",
                 s.name, s.layer,
                 // Requests overlap in time; spreading them over lanes
                 // keeps a trace viewer's rows readable. The hierarchy
                 // is carried by args.parent, not by the lane.
                 static_cast<unsigned long long>(
                     s.request == 0 ? 0 : 1 + s.request % 32),
                 s.start_us, s.end_us - s.start_us,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
    for (const auto& [key, value] : s.args) {
      std::fprintf(f, ", \"%s\": %.17g", key.c_str(), value);
    }
    std::fprintf(f, "}}%s\n", i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace sdtwbench
