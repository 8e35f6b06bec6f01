// Lock-discipline runtime (DESIGN.md §10): named, ranked mutexes with a
// thread-local held-locks stack, enforced acquisition order, and a
// process-wide lock-order graph.
//
// Every long-lived mutex in the tree is declared with a name and a rank
// from the table below:
//
//   Mutex mu_{"threadpool.queue", rank::kPool};
//
// The discipline is a single rule: a thread may only acquire a lock whose
// rank is STRICTLY GREATER than the rank of every lock it already holds.
// Acquisitions in nondecreasing rank order (including re-acquiring a held
// lock) abort with both lock names and acquisition sites. Because every
// observed acquired-while-holding edge then runs "uphill" in rank, the
// observed lock-order graph is acyclic by construction and the process can
// never deadlock on ranked locks.
//
// The checks are switched on by linking, not by a build option: every
// library builds one way, and the wrappers in util/mutex.h call the hooks
// below only when Enabled(). Enabled() reads a flag whose value is fixed
// at link time: false by default, true in any binary that links the
// dj_guard object library (util/alloc_guard.cc), which every test binary,
// tools/dj_stats and tools/dj_lockgraph do. Production binaries pay one
// load and a never-taken branch per wrapper call. The default `Mutex()`
// constructor stays available for portability and for short-lived
// test-local locks; unranked locks participate in the held stack (so
// CondVar::Wait checks still see them) but skip rank validation.
//
// The observed graph is dumped as JSON/DOT by tools/dj_lockgraph and
// surfaces in the MetricsRegistry snapshot (dj_lockrank_* gauges) once
// PublishMetrics() has run. tools/dj_deadlock is the static (lint-time)
// half of the same discipline: it derives the acquired-while-holding graph
// from the source instead of from execution, so orderings on paths no test
// ever runs still fail the build.
#ifndef DEEPJOIN_UTIL_LOCK_RANK_H_
#define DEEPJOIN_UTIL_LOCK_RANK_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>

namespace deepjoin {

// Rank table for every named mutex in the tree. Keep one `constexpr int`
// per line with the lock name in the trailing comment: tools/dj_deadlock
// parses this block to learn the rank of each symbol, and DESIGN.md §10
// documents how to pick a value for a new lock (midpoints between the
// neighbours it nests inside; leaves go high).
namespace rank {
inline constexpr int kServeQueue = 40;      // searcher.serve_queue
inline constexpr int kServeBatcher = 60;    // serve.batcher
inline constexpr int kServeCompletion = 80; // serve.completion
inline constexpr int kPool = 100;           // threadpool.queue
inline constexpr int kSearcherWriter = 150; // searcher.writer
inline constexpr int kWalCommit = 170;      // live_store.wal_commit
inline constexpr int kPoolBatch = 200;      // threadpool.batch
inline constexpr int kSnapshot = 250;       // searcher.snapshot
inline constexpr int kWorkspace = 300;      // transformer.workspace
inline constexpr int kHnswUpdate = 350;     // hnsw.update
inline constexpr int kVisited = 400;        // hnsw.visited_pool
inline constexpr int kHnswLinks = 450;      // hnsw.links
inline constexpr int kEnvFault = 500;       // env.fault_state
inline constexpr int kMetrics = 900;        // metrics.registry (leaf)
/// Rank of a default-constructed (unnamed) Mutex; skips rank validation.
inline constexpr int kUnranked = -1;
}  // namespace rank

namespace lock_rank {

namespace internal {
/// Weakly defined false in lock_rank.cc and strongly defined true in
/// dj_guard, so the linker picks the value and no static initializer can
/// run before it. Never written; read only through Enabled().
extern std::atomic<bool> g_guard_linked;
}  // namespace internal

/// True in binaries that link dj_guard: the hooks below are live.
inline bool Enabled() {
  return internal::g_guard_linked.load(std::memory_order_relaxed);
}

// ---- Hooks called by util/mutex.h (only when Enabled()) ----
// `mu` is an opaque identity pointer; `name` is the registered lock name
// (nullptr for unranked locks); `file:line` is the acquisition site.

/// Validates rank order against this thread's held stack (abort on
/// violation), records the acquired-while-holding edges into the global
/// LockOrderGraph, and pushes the lock. Called before the underlying
/// lock() so an inversion aborts with a report instead of deadlocking.
void OnAcquire(const void* mu, const char* name, int rank, const char* file,
               unsigned line);

/// Pops the lock from this thread's held stack (position-tolerant: locks
/// may be released out of acquisition order).
void OnRelease(const void* mu);

/// Like OnAcquire but for a successful TryLock: records the edge and
/// pushes, but does not enforce rank order — a try-acquire cannot block,
/// so it cannot deadlock (documented in util/mutex.h).
void OnTryAcquire(const void* mu, const char* name, int rank,
                  const char* file, unsigned line);

/// Called by CondVar::Wait before sleeping: verifies `mu` is held and is
/// the ONLY lock this thread holds, then pops it (the wait releases it).
/// Holding a second lock across a wait is a hard error — see the CondVar
/// contract in util/mutex.h for why.
void OnCondVarWait(const void* mu, const char* file, unsigned line);

/// Registers a named lock in the global graph at construction time, and
/// aborts if the same name was previously registered under a different
/// rank (two call sites disagreeing about a lock's rank is a config bug).
void RegisterLock(const char* name, int rank, const char* file,
                  unsigned line);

/// Number of locks the calling thread currently holds (test hook).
size_t HeldDepth();

// ---- Observed lock-order graph ----

/// Directed graph of lock names: an edge a->b means some thread acquired b
/// while holding a. Nodes are registered named locks. Thread-safe; the
/// global instance is fed by the OnAcquire hooks, and free-standing
/// instances back the unit tests. Insertion runs online cycle detection —
/// a cycle cannot arise from rank-validated acquisitions, but TryLock
/// edges skip validation, and the detector keeps the invariant honest.
class LockOrderGraph {
 public:
  LockOrderGraph();
  ~LockOrderGraph();
  LockOrderGraph(const LockOrderGraph&) = delete;
  LockOrderGraph& operator=(const LockOrderGraph&) = delete;

  /// The process-wide graph the mutex hooks feed.
  static LockOrderGraph& Global();

  /// Adds (or re-counts) a node; `site` is the declaration site.
  void RegisterNode(const std::string& name, int rank,
                    const std::string& site);

  /// Adds (or increments) edge from->to with first-observed acquisition
  /// sites. Returns true when the insertion closed a cycle; `*cycle` (if
  /// non-null) then receives "a -> b -> ... -> a".
  bool AddEdge(const std::string& from, const std::string& to,
               const std::string& from_site, const std::string& to_site,
               std::string* cycle = nullptr);

  size_t node_count() const;
  size_t edge_count() const;

  /// {"nodes":[{"name","rank","declared_at"}...],
  ///  "edges":[{"from","to","count","from_site","to_site"}...]},
  /// both sorted by name so dumps are stable.
  std::string ToJson() const;
  /// Graphviz digraph; node labels carry ranks, edge labels carry counts.
  std::string ToDot() const;

  /// Drops all nodes and edges (tests only).
  void Clear();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Copies the graph's node/edge counts and the total acquisition count
/// into the MetricsRegistry (dj_lockrank_nodes, dj_lockrank_edges,
/// dj_lockrank_acquires) so the PR 5 snapshot path exports them.
/// Called on demand (dj_stats, dj_lockgraph) rather than from the hooks:
/// the hooks run during mutex construction inside MetricsRegistry's own
/// initialisation, where touching the registry would recurse.
void PublishMetrics();

}  // namespace lock_rank
}  // namespace deepjoin

#endif  // DEEPJOIN_UTIL_LOCK_RANK_H_
