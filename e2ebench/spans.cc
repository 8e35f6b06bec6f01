#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace e2ebench {

void SpanLog::Resolve() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Span& s : spans_) {
    if (s.parent != 0 || s.key == nullptr) continue;
    const auto it = links_.find(s.key);
    if (it == links_.end()) continue;
    s.parent = it->second.parent;
    s.req = it->second.req;
  }
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) index[spans_[i].id] = i;
  // Children inherit their request id; chains are a few spans deep.
  for (Span& s : spans_) {
    uint64_t p = s.parent;
    while (s.req == 0 && p != 0) {
      const auto it = index.find(p);
      if (it == index.end()) break;
      s.req = spans_[it->second].req;
      p = spans_[it->second].parent;
    }
  }
}

std::vector<SelfTime> SpanLog::SelfTimes() const {
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::vector<SelfTime> out;
  std::unordered_map<std::string, size_t> slot;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
  for (const Span& s : spans_) {
    // Union of the children's intervals clipped to this span: parallel
    // children (a batch encoded on a pool) overlap each other.
    cover.clear();
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        const auto a = std::max(c->start, s.start);
        const auto b = std::min(c->end, s.end);
        if (a < b) cover.emplace_back(a, b);
      }
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0;
    Clock::time_point reach = s.start;
    for (const auto& [a, b] : cover) {
      const auto from = std::max(a, reach);
      if (b > from) {
        covered += MsBetween(from, b);
        reach = b;
      }
    }
    const double total = MsBetween(s.start, s.end);
    auto [it, fresh] = slot.try_emplace(s.name, out.size());
    if (fresh) out.push_back(SelfTime{s.name, {}, {}});
    out[it->second].self_ms.Add(total - covered);
    out[it->second].total_ms.Add(total);
  }
  return out;
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  std::fprintf(f, "id,parent,req,name,start_us,end_us,count\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%llu,%llu,%llu,%s,%.1f,%.1f,%llu\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.req), s.name,
                 MsBetween(origin, s.start) * 1e3,
                 MsBetween(origin, s.end) * 1e3,
                 static_cast<unsigned long long>(s.count));
  }
  return std::fclose(f) == 0;
}

}  // namespace e2ebench
