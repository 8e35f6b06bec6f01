#include "util/lock_rank.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>
#include <vector>

#include "util/metrics.h"
#include "util/mutex.h"

namespace deepjoin {
namespace lock_rank {

namespace {

/// One entry of a thread's held-locks stack, newest last.
struct HeldLock {
  const void* mu = nullptr;
  const char* name = nullptr;  // nullptr for unranked locks
  int rank = rank::kUnranked;
  const char* file = "";
  unsigned line = 0;
};

struct ThreadState {
  std::vector<HeldLock> held;
  // Set while a hook body runs: the graph's own internal locking (and any
  // metric the hooks might someday touch) must not re-enter the hooks —
  // re-entry would self-deadlock on the very mutex being instrumented.
  bool in_hook = false;
};

ThreadState& Tls() {
  thread_local ThreadState state;
  return state;
}

/// RAII for ThreadState::in_hook.
class HookScope {
 public:
  explicit HookScope(ThreadState& s) : s_(s) { s_.in_hook = true; }
  ~HookScope() { s_.in_hook = false; }

 private:
  ThreadState& s_;
};

const char* NameOrUnranked(const char* name) {
  return name != nullptr ? name : "(unranked)";
}

[[noreturn]] void Die(const std::string& report) {
  std::fprintf(stderr, "[dj_lock_rank] FATAL: %s\n", report.c_str());
  std::abort();
}

std::string Site(const char* file, unsigned line) {
  return std::string(file) + ":" + std::to_string(line);
}

std::string DescribeHeld(const std::vector<HeldLock>& held) {
  std::string out;
  for (const HeldLock& h : held) {
    out += "\n  held: " + std::string(NameOrUnranked(h.name)) +
           " (rank " + std::to_string(h.rank) + ") acquired at " +
           Site(h.file, h.line);
  }
  return out;
}

/// Total acquisitions observed (ranked + unranked), published on demand.
std::atomic<unsigned long long> g_acquires{0};

/// Core of OnAcquire/OnTryAcquire. `enforce_rank` is false for TryLock.
void AcquireImpl(const void* mu, const char* name, int rank, const char* file,
                 unsigned line, bool enforce_rank) {
  ThreadState& s = Tls();
  if (s.in_hook) return;
  HookScope in_hook(s);
  g_acquires.fetch_add(1, std::memory_order_relaxed);

  // Re-entry on the same instance deadlocks std::mutex outright; report it
  // regardless of rank (TryLock included — a same-thread try_lock of a
  // held std::mutex is undefined behaviour).
  for (const HeldLock& h : s.held) {
    if (h.mu == mu) {
      Die("re-entrant acquisition of lock '" +
          std::string(NameOrUnranked(name)) + "' at " + Site(file, line) +
          " (already held, acquired at " + Site(h.file, h.line) + ")" +
          DescribeHeld(s.held));
    }
  }

  if (enforce_rank && rank != rank::kUnranked) {
    const HeldLock* deepest = nullptr;
    for (const HeldLock& h : s.held) {
      if (h.rank == rank::kUnranked) continue;
      if (deepest == nullptr || h.rank > deepest->rank) deepest = &h;
    }
    if (deepest != nullptr && deepest->rank >= rank) {
      Die("lock-rank inversion: acquiring '" + std::string(name) +
          "' (rank " + std::to_string(rank) + ") at " + Site(file, line) +
          " while holding '" + std::string(NameOrUnranked(deepest->name)) +
          "' (rank " + std::to_string(deepest->rank) + ") acquired at " +
          Site(deepest->file, deepest->line) +
          "; locks must be acquired in strictly increasing rank order" +
          DescribeHeld(s.held));
    }
  }

  // Record acquired-while-holding edges between named locks. Rank
  // validation makes these edges run uphill, so a cycle here means either
  // a TryLock-only ordering or a bug in the validator itself — fail loudly
  // rather than let the graph silently contradict the discipline.
  if (name != nullptr) {
    for (const HeldLock& h : s.held) {
      if (h.name == nullptr) continue;
      std::string cycle;
      if (LockOrderGraph::Global().AddEdge(h.name, name, Site(h.file, h.line),
                                           Site(file, line), &cycle)) {
        Die("lock-order cycle closed by acquiring '" + std::string(name) +
            "' at " + Site(file, line) + " while holding '" +
            std::string(h.name) + "': " + cycle + DescribeHeld(s.held));
      }
    }
  }

  s.held.push_back({mu, name, rank, file, line});
}

}  // namespace

// The default for binaries without dj_guard; util/alloc_guard.cc holds the
// strong definition that replaces it.
[[gnu::weak]] std::atomic<bool> internal::g_guard_linked{false};

void OnAcquire(const void* mu, const char* name, int rank, const char* file,
               unsigned line) {
  AcquireImpl(mu, name, rank, file, line, /*enforce_rank=*/true);
}

void OnTryAcquire(const void* mu, const char* name, int rank,
                  const char* file, unsigned line) {
  AcquireImpl(mu, name, rank, file, line, /*enforce_rank=*/false);
}

void OnRelease(const void* mu) {
  ThreadState& s = Tls();
  if (s.in_hook) return;
  // Search from the top: releases usually unwind in LIFO order, but manual
  // Lock/Unlock pairs may interleave, so any held position is legal.
  for (size_t i = s.held.size(); i-- > 0;) {
    if (s.held[i].mu == mu) {
      s.held.erase(s.held.begin() + static_cast<long>(i));
      return;
    }
  }
  // Unmatched release: tolerated rather than fatal — a Mutex handed
  // between threads mid-critical-section is already outside the std::mutex
  // contract, and aborting here would mask the real report.
}

void OnCondVarWait(const void* mu, const char* file, unsigned line) {
  ThreadState& s = Tls();
  if (s.in_hook) return;
  const HeldLock* waited = nullptr;
  for (const HeldLock& h : s.held) {
    if (h.mu == mu) waited = &h;
  }
  if (waited == nullptr) {
    Die("CondVar::Wait at " + Site(file, line) +
        " on a mutex this thread does not hold" + DescribeHeld(s.held));
  }
  if (s.held.size() > 1) {
    // See the CondVar contract in util/mutex.h: the wait releases only
    // `mu`, so every other held lock stays held across an unbounded sleep
    // — the canonical shape of a condvar deadlock.
    Die("CondVar::Wait at " + Site(file, line) + " on '" +
        std::string(NameOrUnranked(waited->name)) +
        "' while holding other locks; waiting may only be done with a "
        "single lock held" +
        DescribeHeld(s.held));
  }
  OnRelease(mu);
}

void RegisterLock(const char* name, int rank, const char* file,
                  unsigned line) {
  ThreadState& s = Tls();
  if (s.in_hook) return;
  HookScope in_hook(s);
  LockOrderGraph::Global().RegisterNode(name, rank, Site(file, line));
}

size_t HeldDepth() { return Tls().held.size(); }

// ---- LockOrderGraph ----

struct LockOrderGraph::Impl {
  // Unnamed on purpose: a named mutex would re-enter RegisterLock (and
  // Global()) from its own constructor while the graph is being built.
  mutable Mutex mu;  // dj_deadlock: allow(unranked-mutex)

  struct Node {
    int rank = rank::kUnranked;
    std::string site;
  };
  struct Edge {
    unsigned long long count = 0;
    std::string from_site;
    std::string to_site;
  };

  // std::map keeps dumps sorted and therefore byte-stable.
  std::map<std::string, Node> nodes DJ_GUARDED_BY(mu);
  std::map<std::pair<std::string, std::string>, Edge> edges
      DJ_GUARDED_BY(mu);

  /// DFS reachability over `edges`: true if `to` can already reach `from`
  /// (so adding from->to would close a cycle). Caller holds `mu`.
  bool Reaches(const std::string& src, const std::string& dst,
               std::vector<std::string>* path) const DJ_REQUIRES(mu) {
    path->push_back(src);
    if (src == dst) return true;
    for (const auto& [key, edge] : edges) {
      (void)edge;
      if (key.first != src) continue;
      bool seen = false;
      for (const std::string& p : *path) {
        if (p == key.second) {
          seen = true;
          break;
        }
      }
      if (seen) continue;
      if (Reaches(key.second, dst, path)) return true;
    }
    path->pop_back();
    return false;
  }
};

LockOrderGraph::LockOrderGraph() : impl_(std::make_unique<Impl>()) {}
LockOrderGraph::~LockOrderGraph() = default;

LockOrderGraph& LockOrderGraph::Global() {
  // Leaked on purpose: mutexes constructed during static destruction (e.g.
  // in other translation units' teardown) still reach a live graph.
  static LockOrderGraph* const graph =
      new LockOrderGraph();  // dj_lint: allow(naked-new)
  return *graph;
}

void LockOrderGraph::RegisterNode(const std::string& name, int rank,
                                  const std::string& site) {
  MutexLock lock(impl_->mu);
  auto it = impl_->nodes.find(name);
  if (it == impl_->nodes.end()) {
    impl_->nodes[name] = {rank, site};
    return;
  }
  if (it->second.rank != rank) {
    Die("lock '" + name + "' registered with rank " +
        std::to_string(it->second.rank) + " at " + it->second.site +
        " and again with rank " + std::to_string(rank) + " at " + site +
        "; a lock name maps to exactly one rank");
  }
}

bool LockOrderGraph::AddEdge(const std::string& from, const std::string& to,
                             const std::string& from_site,
                             const std::string& to_site, std::string* cycle) {
  MutexLock lock(impl_->mu);
  auto [it, inserted] =
      impl_->edges.try_emplace({from, to}, Impl::Edge{0, from_site, to_site});
  ++it->second.count;
  if (!inserted) return false;  // existing edge cannot create a new cycle
  std::vector<std::string> path;
  if (impl_->Reaches(to, from, &path)) {
    if (cycle != nullptr) {
      *cycle = from;
      for (const std::string& n : path) *cycle += " -> " + n;
    }
    return true;
  }
  return false;
}

size_t LockOrderGraph::node_count() const {
  MutexLock lock(impl_->mu);
  return impl_->nodes.size();
}

size_t LockOrderGraph::edge_count() const {
  MutexLock lock(impl_->mu);
  return impl_->edges.size();
}

namespace {

/// Minimal JSON string escaping (quotes, backslashes, control chars) —
/// lock names and file paths are ASCII in practice.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string LockOrderGraph::ToJson() const {
  MutexLock lock(impl_->mu);
  std::string out = "{\"nodes\":[";
  bool first = true;
  for (const auto& [name, node] : impl_->nodes) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + JsonEscape(name) +
           "\",\"rank\":" + std::to_string(node.rank) +
           ",\"declared_at\":\"" + JsonEscape(node.site) + "\"}";
  }
  out += "],\"edges\":[";
  first = true;
  for (const auto& [key, edge] : impl_->edges) {
    if (!first) out += ",";
    first = false;
    out += "{\"from\":\"" + JsonEscape(key.first) + "\",\"to\":\"" +
           JsonEscape(key.second) +
           "\",\"count\":" + std::to_string(edge.count) +
           ",\"from_site\":\"" + JsonEscape(edge.from_site) +
           "\",\"to_site\":\"" + JsonEscape(edge.to_site) + "\"}";
  }
  out += "]}";
  return out;
}

std::string LockOrderGraph::ToDot() const {
  MutexLock lock(impl_->mu);
  std::string out = "digraph lock_order {\n";
  for (const auto& [name, node] : impl_->nodes) {
    out += "  \"" + name + "\" [label=\"" + name +
           "\\nrank=" + std::to_string(node.rank) + "\"];\n";
  }
  for (const auto& [key, edge] : impl_->edges) {
    out += "  \"" + key.first + "\" -> \"" + key.second + "\" [label=\"" +
           std::to_string(edge.count) + "\"];\n";
  }
  out += "}\n";
  return out;
}

void LockOrderGraph::Clear() {
  MutexLock lock(impl_->mu);
  impl_->nodes.clear();
  impl_->edges.clear();
}

void PublishMetrics() {
  metrics::MetricsRegistry& reg = metrics::MetricsRegistry::Global();
  LockOrderGraph& graph = LockOrderGraph::Global();
  reg.GetGauge("dj_lockrank_nodes")
      ->Set(static_cast<double>(graph.node_count()));
  reg.GetGauge("dj_lockrank_edges")
      ->Set(static_cast<double>(graph.edge_count()));
  reg.GetGauge("dj_lockrank_acquires")
      ->Set(static_cast<double>(g_acquires.load(std::memory_order_relaxed)));
}

}  // namespace lock_rank
}  // namespace deepjoin
