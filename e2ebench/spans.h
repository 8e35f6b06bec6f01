// Span recorder for the benchmark's traced run. Spans are recorded only
// from the benchmark's own files, around its calls into the program's
// public functions; they stay in memory and are written out at exit.
#ifndef E2EBENCH_SPANS_H_
#define E2EBENCH_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "stats.h"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0: a root, or resolved later through `key`
  uint64_t req = 0;     ///< shared by every span of one request; 0 = none
  const char* name = "";  ///< string literal
  Clock::time_point start{};
  Clock::time_point end{};
  /// The input the span worked on (a column). A span recorded where its
  /// cause is not known yet (an encode inside a batch) names its input;
  /// Resolve() links it to the span registered for that input.
  const void* key = nullptr;
  /// Work done at this boundary (tokens, for a tokenize span).
  uint64_t count = 0;
};

struct SelfTime {
  std::string name;
  Samples self_ms;  ///< duration minus the part covered by child spans
  Samples total_ms;
};

class SpanLog {
 public:
  SpanLog() { spans_.reserve(1 << 16); }

  uint64_t NextId() { return last_id_.fetch_add(1) + 1; }
  /// Thread-safe.
  void Add(std::initializer_list<Span> spans) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.insert(spans_.end(), spans);
  }
  /// Registers the span caused by work on `key` (parent id, request id).
  void Link(const void* key, uint64_t parent, uint64_t req) {
    std::lock_guard<std::mutex> lock(mu_);
    links_[key] = {parent, req};
  }

  /// Call once recording has stopped: resolves key links and propagates
  /// request ids from parents to children.
  void Resolve();
  /// Per span name, in first-seen order.
  std::vector<SelfTime> SelfTimes() const;
  /// CSV: id,parent,req,name,start_us,end_us,count (times relative to the
  /// first span).
  bool Write(const std::string& path) const;
  const std::vector<Span>& spans() const { return spans_; }

 private:
  struct KeyLink {
    uint64_t parent = 0;
    uint64_t req = 0;
  };
  std::mutex mu_;
  std::atomic<uint64_t> last_id_{0};
  std::vector<Span> spans_;
  std::unordered_map<const void*, KeyLink> links_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_SPANS_H_
