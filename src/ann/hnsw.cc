#include "ann/hnsw.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/crc32c.h"
#include "util/trace.h"

namespace deepjoin {
namespace ann {

namespace {

// Binary-heap helpers over the pooled, capacity-reusing scratch vectors —
// the one place the query path grows a container (warmup-only). Min-heaps
// order by Neighbor's total order (dist, then id), max-heaps by its
// reverse, exactly like the priority_queues they replaced.
void HeapPushMin(std::vector<Neighbor>& heap, Neighbor n) {
  heap.push_back(n);  // dj_alloc: allow(alloc) -- capacity-reusing scratch
  std::push_heap(heap.begin(), heap.end(), std::greater<>{});
}
void HeapPushMax(std::vector<Neighbor>& heap, Neighbor n) {
  heap.push_back(n);  // dj_alloc: allow(alloc) -- capacity-reusing scratch
  std::push_heap(heap.begin(), heap.end());
}
void HeapPopMin(std::vector<Neighbor>& heap) {
  std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
  heap.pop_back();
}
void HeapPopMax(std::vector<Neighbor>& heap) {
  std::pop_heap(heap.begin(), heap.end());
  heap.pop_back();
}

// Level draws are exponential with mean 1/ln(M); anything this deep in a
// file (or a replayed WAL record) is corruption, and it bounds the
// per-node adjacency allocation.
constexpr i32 kMaxStoredLevel = 63;

}  // namespace

HnswIndex::HnswIndex(const HnswConfig& config)
    : config_(config),
      level_mult_(1.0 / std::log(static_cast<double>(config.M))),
      rng_(config.seed),
      sync_(std::make_unique<Sync>()),
      visited_pool_(std::make_unique<VisitedPool>()) {
  DJ_CHECK(config_.dim > 0 && config_.M >= 2);
  // Round capacity up to whole chunks (at least one) and pre-reserve the
  // chunk pointer arrays: published storage never moves under readers.
  if (config_.max_elements < kChunkSize) config_.max_elements = kChunkSize;
  const size_t num_chunks =
      (static_cast<size_t>(config_.max_elements) + kChunkSize - 1) >>
      kChunkShift;
  config_.max_elements = static_cast<u32>(num_chunks << kChunkShift);
  data_chunks_.reserve(num_chunks);
  node_chunks_.reserve(num_chunks);
}

HnswIndex::HnswIndex(HnswIndex&& other) noexcept
    : config_(other.config_),
      level_mult_(other.level_mult_),
      rng_(other.rng_),
      data_chunks_(std::move(other.data_chunks_)),
      node_chunks_(std::move(other.node_chunks_)),
      count_(other.count_.load(std::memory_order_relaxed)),
      dead_(other.dead_.load(std::memory_order_relaxed)),
      entry_point_(other.entry_point_.load(std::memory_order_relaxed)),
      store_(std::move(other.store_)),
      refine_(std::move(other.refine_)),
      graph_region_(std::move(other.graph_region_)),
      graph_owned_(std::move(other.graph_owned_)),
      graph_check_(std::move(other.graph_check_)),
      g_upper_len_(other.g_upper_len_),
      ro_deleted_(std::move(other.ro_deleted_)),
      sync_(std::move(other.sync_)),
      visited_pool_(std::move(other.visited_pool_)) {
  if (store_ != nullptr) {
    // A small owned graph may live in the string's SSO buffer, which just
    // moved; rebind the views.
    SetGraphPointers(graph_region_ != nullptr ? graph_region_->data()
                                              : graph_owned_.data(),
                     count_.load(std::memory_order_relaxed), g_upper_len_);
  }
}

HnswIndex& HnswIndex::operator=(HnswIndex&& other) noexcept {
  if (this == &other) return *this;
  config_ = other.config_;
  level_mult_ = other.level_mult_;
  rng_ = other.rng_;
  data_chunks_ = std::move(other.data_chunks_);
  node_chunks_ = std::move(other.node_chunks_);
  count_.store(other.count_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  dead_.store(other.dead_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
  entry_point_.store(other.entry_point_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  store_ = std::move(other.store_);
  refine_ = std::move(other.refine_);
  graph_region_ = std::move(other.graph_region_);
  graph_owned_ = std::move(other.graph_owned_);
  graph_check_ = std::move(other.graph_check_);
  g_upper_len_ = other.g_upper_len_;
  ro_deleted_ = std::move(other.ro_deleted_);
  g_levels_ = g_level0_ = g_upper_off_ = g_upper_ = nullptr;
  if (store_ != nullptr) {
    SetGraphPointers(graph_region_ != nullptr ? graph_region_->data()
                                              : graph_owned_.data(),
                     count_.load(std::memory_order_relaxed), g_upper_len_);
  }
  sync_ = std::move(other.sync_);
  visited_pool_ = std::move(other.visited_pool_);
  return *this;
}

void HnswIndex::SetGraphPointers(const void* base, u64 n, u64 upper_len) {
  const u32* w = static_cast<const u32*>(base);
  g_levels_ = w;
  g_level0_ = w + n;
  g_upper_off_ = g_level0_ + n * (1 + 2 * static_cast<u64>(config_.M));
  g_upper_ = g_upper_off_ + n + 1;
  g_upper_len_ = upper_len;
}

void HnswIndex::TouchGraph(const u32* p, u64 nwords) const {
  if (graph_check_ == nullptr || nwords == 0) return;
  const u64 off = static_cast<u64>(reinterpret_cast<const u8*>(p) -
                                   reinterpret_cast<const u8*>(g_levels_));
  graph_check_->Touch(off, nwords * sizeof(u32));
}

i32 HnswIndex::NodeLevelOf(u32 id) const {
  if (store_ == nullptr) return NodeAt(id).level;
  TouchGraph(g_levels_ + id, 1);
  return std::min<i32>(static_cast<i32>(g_levels_[id]), kMaxStoredLevel);
}

bool HnswIndex::tainted() const {
  return (store_ != nullptr && store_->tainted()) ||
         (refine_ != nullptr && refine_->tainted()) ||
         (graph_check_ != nullptr && graph_check_->tainted());
}

void HnswIndex::CopyLinks(u32 id, int level, std::vector<u32>* out) const {
  out->clear();
  if (store_ != nullptr) {
    // Packed read-only graph: no locks (immutable), every count and walk
    // clamped to the stored bounds so corrupt mapped words can never walk
    // out of the section (wrong results, never UB).
    const u64 cap0 = 2 * static_cast<u64>(config_.M);
    if (level == 0) {
      const u32* row = g_level0_ + static_cast<u64>(id) * (1 + cap0);
      TouchGraph(row, 1 + cap0);
      const u64 cnt = std::min<u64>(row[0], cap0);
      out->insert(out->end(), row + 1, row + 1 + cnt);  // dj_alloc: allow(alloc)
      return;
    }
    TouchGraph(g_upper_off_ + id, 2);
    u64 off = g_upper_off_[id];
    const u64 end = std::min<u64>(g_upper_off_[id + 1], g_upper_len_);
    if (off > end) return;  // corrupt offsets: treat as no links
    TouchGraph(g_upper_ + off, end - off);
    for (int lev = 1; off < end; ++lev) {
      const u64 cnt = std::min<u64>(g_upper_[off], end - off - 1);
      if (lev == level) {
        out->insert(out->end(), g_upper_ + off + 1,  // dj_alloc: allow(alloc)
                    g_upper_ + off + 1 + cnt);
        return;
      }
      off += cnt + 1;
    }
    return;
  }
  MutexLock lock(sync_->stripes[StripeOf(id)].link_mu);
  const std::vector<u32>& links = NodeAt(id).links[static_cast<size_t>(level)];
  // Capacity-reusing scratch; growth is warmup-only (degree caps bound it).
  out->insert(out->end(), links.begin(), links.end());  // dj_alloc: allow(alloc)
}

u32 HnswIndex::GreedyClosest(const float* query, u32 entry, int level,
                             VisitedScratch* scratch, SearchWork* work) const {
  u32 cur = entry;
  float cur_dist = Dist(query, cur);
  // Tally into locals (registers) unconditionally — a per-eval branch +
  // store through `work` costs measurable time in this loop; one flush at
  // the end does not.
  u64 dist_evals = 1;
  u64 hops = 0;
  bool improved = true;
  while (improved) {
    improved = false;
    CopyLinks(cur, level, &scratch->link_buf);
    for (u32 nb : scratch->link_buf) {
      if (nb >= scratch->bound) continue;  // published after this query
      const float d = Dist(query, nb);
      ++dist_evals;
      if (d < cur_dist) {
        cur = nb;
        cur_dist = d;
        improved = true;
      }
    }
    if (improved) ++hops;
  }
  if (work != nullptr) {
    work->dist_evals += dist_evals;
    work->hops += hops;
  }
  return cur;
}

std::unique_ptr<HnswIndex::VisitedScratch> HnswIndex::VisitedPool::Acquire(
    size_t n) const {
  std::unique_ptr<VisitedScratch> scratch;
  {
    MutexLock lock(mu_);
    if (!free_.empty()) {
      scratch = std::move(free_.back());
      free_.pop_back();
    }
  }
  // Pool warmup: once every concurrent query owns a scratch, Acquire is
  // always served from the free list; the stamp grows to the index size
  // once and then reuses capacity.
  if (!scratch) scratch = std::make_unique<VisitedScratch>();  // dj_alloc: allow(alloc)
  if (scratch->stamp.size() < n) scratch->stamp.resize(n, 0);  // dj_alloc: allow(alloc)
  if (scratch->epoch == std::numeric_limits<u32>::max()) {
    std::fill(scratch->stamp.begin(), scratch->stamp.end(), 0);
    scratch->epoch = 0;
  }
  ++scratch->epoch;
  return scratch;
}

void HnswIndex::VisitedPool::Release(
    std::unique_ptr<VisitedScratch> scratch) const {
  MutexLock lock(mu_);
  // Pool-vector growth is warmup-only: capacity reaches the maximum
  // number of concurrent queries and then every push reuses a freed slot.
  free_.push_back(std::move(scratch));  // dj_alloc: allow(alloc)
}

void HnswIndex::SearchLayer(const float* query, u32 entry, int ef, int level,
                            std::vector<Neighbor>* out,
                            VisitedScratch* scratch, bool filter_deleted,
                            SearchWork* work) const {
  const u32 epoch = scratch->epoch;
  auto visit = [&stamp = scratch->stamp, epoch](u32 id) {
    if (stamp[id] == epoch) return false;
    stamp[id] = epoch;
    return true;
  };
  auto live = [this, filter_deleted](u32 id) {
    return !filter_deleted || !DeletedAt(id);
  };

  // `candidates`: nearest-first frontier. `results`: farthest-first bounded
  // set of the best `ef` seen so far. Both are heap vectors living in the
  // pooled scratch (see VisitedScratch), popped empty before Release.
  // Tombstoned nodes stay in the frontier (they still route) but never
  // land in `results`.
  std::vector<Neighbor>& candidates = scratch->candidates;
  std::vector<Neighbor>& results = scratch->results;
  candidates.clear();
  results.clear();

  const float d0 = Dist(query, entry);
  visit(entry);
  HeapPushMin(candidates, {d0, entry});
  if (live(entry)) HeapPushMax(results, {d0, entry});

  // Tally into locals (registers) unconditionally — a per-eval branch +
  // store through `work` is measurable in this loop; flushing once is not.
  u64 dist_evals = 1;
  u64 hops = 0;
  while (!candidates.empty()) {
    const Neighbor c = candidates.front();
    if (results.size() >= static_cast<size_t>(ef) &&
        c.dist > results.front().dist) {
      break;
    }
    HeapPopMin(candidates);
    ++hops;
    CopyLinks(c.id, level, &scratch->link_buf);
    for (u32 nb : scratch->link_buf) {
      if (nb >= scratch->bound) continue;  // published after this query
      if (!visit(nb)) continue;
      const float d = Dist(query, nb);
      ++dist_evals;
      if (results.size() < static_cast<size_t>(ef) ||
          d < results.front().dist) {
        HeapPushMin(candidates, {d, nb});
        if (live(nb)) {
          HeapPushMax(results, {d, nb});
          if (results.size() > static_cast<size_t>(ef)) HeapPopMax(results);
        }
      }
    }
  }
  if (work != nullptr) {
    work->dist_evals += dist_evals;
    work->hops += hops;
  }
  // Drain the max-heap back to front: popping a total order yields the
  // ascending-by-distance output the old priority_queue path produced.
  out->clear();
  // Capacity-reusing caller buffer; growth is warmup-only.
  out->resize(results.size());  // dj_alloc: allow(alloc)
  for (size_t i = out->size(); i-- > 0;) {
    (*out)[i] = results.front();
    HeapPopMax(results);
  }
}

std::vector<u32> HnswIndex::SelectNeighbors(
    const float* query, const std::vector<Neighbor>& candidates,
    int m) const {
  (void)query;
  std::vector<u32> kept;
  kept.reserve(static_cast<size_t>(m));
  for (const Neighbor& c : candidates) {
    if (static_cast<int>(kept.size()) >= m) break;
    bool good = true;
    for (u32 r : kept) {
      // Candidate is dominated if it is closer to a kept neighbour than to
      // the query: linking it adds little reach.
      const float d_cr = SquaredL2Distance(VectorAt(c.id), VectorAt(r),
                                           config_.dim);
      if (d_cr < c.dist) {
        good = false;
        break;
      }
    }
    if (good) kept.push_back(c.id);
  }
  // Backfill with nearest skipped candidates if the heuristic was too
  // aggressive (keepPrunedConnections in the paper's terms).
  if (static_cast<int>(kept.size()) < m) {
    for (const Neighbor& c : candidates) {
      if (static_cast<int>(kept.size()) >= m) break;
      if (std::find(kept.begin(), kept.end(), c.id) == kept.end()) {
        kept.push_back(c.id);
      }
    }
  }
  return kept;
}

i32 HnswIndex::DrawLevelLocked() {
  // Clamped so a drawn level is always storable/replayable (the WAL
  // loader rejects levels past kMaxStoredLevel as corruption).
  const i32 level = static_cast<i32>(rng_.Exponential(1.0) * level_mult_);
  return std::min(level, kMaxStoredLevel);
}

i32 HnswIndex::DrawLevel() {
  MutexLock lock(sync_->update_mu);
  return DrawLevelLocked();
}

void HnswIndex::Add(const float* vec) {
  DJ_CHECK_MSG(store_ == nullptr,
               "hnsw Add on a read-only store-backed index");
  MutexLock lock(sync_->update_mu);
  const i32 level = DrawLevelLocked();
  const Status st = InsertWithLevelLocked(vec, level, nullptr);
  // Add is the legacy infallible bulk-build API; callers size
  // max_elements to the build, so exhaustion is a programming error.
  DJ_CHECK_MSG(st.ok(), st.ToString().c_str());
}

Status HnswIndex::Insert(const float* vec, u32* id, i32* level) {
  MutexLock lock(sync_->update_mu);
  const i32 drawn = DrawLevelLocked();
  if (level != nullptr) *level = drawn;
  return InsertWithLevelLocked(vec, drawn, id);
}

Status HnswIndex::InsertWithLevel(const float* vec, i32 level, u32* id) {
  MutexLock lock(sync_->update_mu);
  return InsertWithLevelLocked(vec, level, id);
}

Status HnswIndex::InsertWithLevelLocked(const float* vec, i32 level,
                                        u32* id_out) {
  if (store_ != nullptr) {
    return Status::FailedPrecondition(
        "hnsw Insert: index is read-only (store-backed open; reopen with "
        "MapMode::kOwned float storage for a mutable index)");
  }
  if (level < 0 || level > kMaxStoredLevel) {
    return Status::InvalidArgument("hnsw Insert: level " +
                                   std::to_string(level) + " out of range");
  }
  const u32 id = count_.load(std::memory_order_relaxed);
  if (id >= config_.max_elements) {
    return Status::FailedPrecondition(
        "hnsw Insert: index at max_elements capacity (" +
        std::to_string(config_.max_elements) + ")");
  }

  // Materialise storage for the new node. The chunk pointer arrays were
  // reserved to capacity in the constructor, so these push_backs never
  // reallocate the arrays a concurrent reader is indexing.
  while ((static_cast<u64>(data_chunks_.size()) << kChunkShift) <= id) {
    data_chunks_.push_back(std::make_unique<float[]>(
        static_cast<size_t>(kChunkSize) * config_.dim));
    node_chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
  }
  float* slot = data_chunks_[id >> kChunkShift].get() +
                static_cast<size_t>(id & kChunkMask) * config_.dim;
  std::memcpy(slot, vec, sizeof(float) * static_cast<size_t>(config_.dim));
  Node& node = NodeAt(id);
  node.level = level;
  node.deleted.store(false, std::memory_order_relaxed);
  node.links.assign(static_cast<size_t>(level) + 1, {});
  for (size_t lev = 0; lev < node.links.size(); ++lev) {
    // Reserve past the degree cap so steady-state back-link pushes rarely
    // reallocate while a stripe lock is held (correctness never depends on
    // it: all link access is lock-protected).
    const int max_degree = lev == 0 ? 2 * config_.M : config_.M;
    node.links[lev].reserve(static_cast<size_t>(max_degree) + 1);
  }
  // Publish the node: readers pinning a bound after this store may visit
  // id, whose vector and Node metadata are fully written above. Its links
  // are still empty and nothing points at it yet, so it is unreachable
  // until the wiring below lands (under stripe locks).
  count_.store(id + 1, std::memory_order_release);

  const u64 ep_packed = entry_point_.load(std::memory_order_relaxed);
  if (ep_packed == 0) {
    entry_point_.store(PackEntry(level, id), std::memory_order_release);
    if (id_out != nullptr) *id_out = id;
    return Status::OK();
  }

  const u32 entry = static_cast<u32>(ep_packed);
  const int max_level = static_cast<int>(ep_packed >> 32) - 1;
  const float* q = VectorAt(id);
  auto scratch = visited_pool_->Acquire(id + 1);
  scratch->bound = id + 1;

  u32 ep = entry;
  // Descend through levels above the new node's level.
  for (int lev = max_level; lev > level; --lev) {
    ep = GreedyClosest(q, ep, lev, scratch.get());
  }
  // Connect on each level the node participates in.
  std::vector<Neighbor> candidates;
  for (int lev = std::min(static_cast<int>(level), max_level); lev >= 0;
       --lev) {
    SearchLayer(q, ep, config_.ef_construction, lev, &candidates,
                scratch.get(), /*filter_deleted=*/false);
    const int max_degree = lev == 0 ? 2 * config_.M : config_.M;
    auto neighbors = SelectNeighbors(q, candidates, config_.M);
    {
      MutexLock link_lock(sync_->stripes[StripeOf(id)].link_mu);
      NodeAt(id).links[static_cast<size_t>(lev)].assign(neighbors.begin(),
                                                        neighbors.end());
    }
    for (u32 nb : neighbors) {
      MutexLock link_lock(sync_->stripes[StripeOf(nb)].link_mu);
      auto& back = NodeAt(nb).links[static_cast<size_t>(lev)];
      back.push_back(id);
      if (static_cast<int>(back.size()) > max_degree) {
        // Shrink the neighbour's adjacency with the same heuristic.
        std::vector<Neighbor> cand;
        cand.reserve(back.size());
        const float* nb_vec = VectorAt(nb);
        for (u32 x : back) {
          cand.push_back({SquaredL2Distance(nb_vec, VectorAt(x), config_.dim),
                          x});
        }
        std::sort(cand.begin(), cand.end());
        back = SelectNeighbors(nb_vec, cand, max_degree);
      }
    }
    if (!candidates.empty()) ep = candidates.front().id;
  }
  if (level > max_level) {
    entry_point_.store(PackEntry(level, id), std::memory_order_release);
  }
  visited_pool_->Release(std::move(scratch));
  if (id_out != nullptr) *id_out = id;
  return Status::OK();
}

Status HnswIndex::Remove(u32 id) {
  MutexLock lock(sync_->update_mu);
  if (id >= count_.load(std::memory_order_relaxed)) {
    return Status::NotFound("hnsw Remove: id " + std::to_string(id) +
                            " never assigned");
  }
  if (store_ != nullptr) {
    // Read-only mode still supports tombstoning: deletes touch only this
    // side array, never the mapped graph.
    if (ro_deleted_[id].exchange(1, std::memory_order_acq_rel) == 0) {
      dead_.fetch_add(1, std::memory_order_relaxed);
    }
    return Status::OK();
  }
  Node& node = NodeAt(id);
  if (!node.deleted.load(std::memory_order_relaxed)) {
    node.deleted.store(true, std::memory_order_release);
    dead_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

bool HnswIndex::IsDeleted(u32 id) const {
  return id < count_.load(std::memory_order_acquire) && DeletedAt(id);
}

HnswIndex HnswIndex::CompactedCopy(std::vector<u32>* new_to_old) const {
  // Re-runs construction over the live vectors only (a fresh RNG with the
  // configured seed keeps the rebuild deterministic). Reads nothing but
  // immutable vectors and atomic tombstone flags, so concurrent searches
  // on `this` stay safe; the caller serializes against mutators.
  HnswIndex out(config_);
  const u32 n = count_.load(std::memory_order_acquire);
  new_to_old->clear();
  if (store_ != nullptr) {
    // Store-backed source: rebuild from reconstructed rows (lossy for SQ8
    // — the compacted graph holds the decoded vectors).
    std::vector<float> row(static_cast<size_t>(config_.dim));
    for (u32 id = 0; id < n; ++id) {
      if (DeletedAt(id)) continue;
      store_->Reconstruct(id, row.data());
      out.Add(row.data());
      new_to_old->push_back(id);
    }
    return out;
  }
  for (u32 id = 0; id < n; ++id) {
    if (NodeAt(id).deleted.load(std::memory_order_acquire)) continue;
    out.Add(VectorAt(id));
    new_to_old->push_back(id);
  }
  return out;
}

Result<HnswIndex> HnswIndex::BuildLive(
    HnswConfig config, const float* rows, u64 n,
    const std::vector<i32>& levels, const std::vector<u32>& list_sizes,
    const std::vector<u32>& all_ids, u32 entry, i32 max_level,
    const std::vector<u32>& deleted_ids) {
  if (n > std::numeric_limits<u32>::max() - kChunkSize) {
    return Status::DataLoss("HNSW node count out of range");
  }
  u64 total_lists = 0;
  i32 deepest = -1;
  for (i32 lv : levels) {
    if (lv < 0 || lv > kMaxStoredLevel) {
      return Status::DataLoss("HNSW node level out of range");
    }
    total_lists += static_cast<u64>(lv) + 1;
    deepest = std::max(deepest, lv);
  }
  if (list_sizes.size() != total_lists) {
    return Status::DataLoss("HNSW adjacency list count mismatch");
  }
  u64 total_ids = 0;
  for (u32 s : list_sizes) total_ids += s;
  if (all_ids.size() != total_ids) {
    return Status::DataLoss("HNSW adjacency id count mismatch");
  }
  for (u32 id : all_ids) {
    if (id >= n) return Status::DataLoss("HNSW neighbour id out of range");
  }
  if (n == 0) {
    if (max_level != -1) {
      return Status::DataLoss("HNSW empty index with non-empty entry point");
    }
  } else {
    if (entry >= n || max_level != deepest ||
        levels[entry] != max_level) {
      return Status::DataLoss("HNSW entry point inconsistent with levels");
    }
  }
  for (u32 id : deleted_ids) {
    if (id >= n) return Status::DataLoss("HNSW tombstone id out of range");
  }

  // A file written with a smaller capacity than its node count still
  // loads: capacity covers the nodes on disk.
  if (static_cast<u64>(config.max_elements) < n) {
    config.max_elements = static_cast<u32>(n);
  }
  HnswIndex index(config);
  const size_t num_chunks = (n + kChunkSize - 1) >> kChunkShift;
  for (size_t c = 0; c < num_chunks; ++c) {
    index.data_chunks_.push_back(std::make_unique<float[]>(
        static_cast<size_t>(kChunkSize) * config.dim));
    index.node_chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
  }
  size_t list_idx = 0;
  size_t id_idx = 0;
  for (u64 i = 0; i < n; ++i) {
    const u32 id = static_cast<u32>(i);
    std::memcpy(index.data_chunks_[id >> kChunkShift].get() +
                    static_cast<size_t>(id & kChunkMask) * config.dim,
                rows + i * static_cast<u64>(config.dim),
                sizeof(float) * static_cast<size_t>(config.dim));
    Node& node = index.NodeAt(id);
    node.level = levels[i];
    node.links.resize(static_cast<size_t>(levels[i]) + 1);
    for (auto& adj : node.links) {
      const u32 count = list_sizes[list_idx++];
      adj.assign(all_ids.begin() + static_cast<long>(id_idx),
                 all_ids.begin() + static_cast<long>(id_idx + count));
      id_idx += count;
    }
  }
  u32 dead = 0;
  for (u32 id : deleted_ids) {
    Node& node = index.NodeAt(id);
    if (!node.deleted.load(std::memory_order_relaxed)) {
      node.deleted.store(true, std::memory_order_relaxed);
      ++dead;
    }
  }
  index.count_.store(static_cast<u32>(n), std::memory_order_release);
  index.dead_.store(dead, std::memory_order_relaxed);
  index.entry_point_.store(n == 0 ? 0 : PackEntry(max_level, entry),
                           std::memory_order_release);
  return index;
}

void HnswIndex::PackGraph(std::vector<u32>* words, u64* upper_len) const {
  const u32 n = count_.load(std::memory_order_acquire);
  const u64 cap0 = 1 + 2 * static_cast<u64>(config_.M);  // [cnt][<=2M ids]
  const u64 capu = static_cast<u64>(config_.M);
  std::vector<u32> levels(n, 0);
  std::vector<u32> level0(static_cast<size_t>(n) * cap0, 0);
  std::vector<u32> upper_off(static_cast<size_t>(n) + 1, 0);
  std::vector<u32> upper;
  std::vector<u32> scratch;
  for (u32 id = 0; id < n; ++id) {
    const i32 level = NodeLevelOf(id);
    levels[id] = static_cast<u32>(level);
    CopyLinks(id, 0, &scratch);
    u32* row = level0.data() + static_cast<u64>(id) * cap0;
    const u64 cnt0 = std::min<u64>(scratch.size(), cap0 - 1);
    row[0] = static_cast<u32>(cnt0);
    std::copy(scratch.begin(), scratch.begin() + static_cast<long>(cnt0),
              row + 1);
    upper_off[id] = static_cast<u32>(upper.size());
    for (i32 lev = 1; lev <= level; ++lev) {
      CopyLinks(id, lev, &scratch);
      const u64 cnt = std::min<u64>(scratch.size(), capu);
      upper.push_back(static_cast<u32>(cnt));
      upper.insert(upper.end(), scratch.begin(),
                   scratch.begin() + static_cast<long>(cnt));
    }
    // Offsets are stored as u32 words; the degree caps make overflowing
    // them need >4G upper-level ids, far past the u32 id space the graph
    // itself is limited to.
    DJ_CHECK_MSG(upper.size() <= std::numeric_limits<u32>::max(),
                 "packed upper region exceeds u32 offsets");
  }
  upper_off[n] = static_cast<u32>(upper.size());
  *upper_len = upper.size();
  words->clear();
  words->reserve(levels.size() + level0.size() + upper_off.size() +
                 upper.size());
  words->insert(words->end(), levels.begin(), levels.end());
  words->insert(words->end(), level0.begin(), level0.end());
  words->insert(words->end(), upper_off.begin(), upper_off.end());
  words->insert(words->end(), upper.begin(), upper.end());
}

// hnsw payload := dim:i32 M:i32 efc:i32 efs:i32 seed:u64 max_elements:u32
//                 n:u64 entry:u32 max_level:i32 deleted:u32[]
//                 primary_kind:u32 has_refine:u32 upper_len:u64
//                 graph_section store_payload [refine_store_payload]
//
// The graph travels as ONE page-aligned section so a mapped open touches
// none of it: levels[n] | level0[n*(1+2M)] | upper_off[n+1] |
// upper[upper_len], all u32. level0 rows are fixed-stride [cnt][ids,
// zero-padded]; upper holds each node's level-1..L lists back to back as
// [cnt][ids], located via upper_off.

Status HnswIndex::Save(BinaryWriter& writer,
                       const SaveOptions& options) const {
  static_assert(sizeof(int) == sizeof(i32), "config serialized as i32");
  const u32 n = count_.load(std::memory_order_acquire);
  const u64 ep_packed = entry_point_.load(std::memory_order_acquire);

  // Resolve the row source up front so an impossible combination fails
  // before any bytes are written.
  const StorageKind current =
      store_ != nullptr ? store_->kind() : StorageKind::kFloat;
  const StorageKind want =
      options.storage == StorageKind::kAuto ? current : options.storage;
  bool convert_to_sq8 = false;
  const VectorStore* primary = store_.get();  // nullptr in live mode
  const VectorStore* refine = nullptr;
  bool refine_from_live = false;
  if (want == current) {
    if (want == StorageKind::kSq8) refine = refine_.get();
  } else if (want == StorageKind::kSq8) {
    // float -> SQ8: train quantization over the full corpus at save time.
    convert_to_sq8 = true;
    if (options.keep_float_refine) {
      if (store_ != nullptr) {
        refine = store_.get();
      } else {
        refine_from_live = true;
      }
    }
  } else {
    // SQ8 -> float is only lossless if the exact rows were kept.
    if (refine_ == nullptr || refine_->kind() != StorageKind::kFloat) {
      return Status::FailedPrecondition(
          "cannot save an SQ8 hnsw index as float without a float "
          "refinement store (save with keep_float_refine to retain one)");
    }
    primary = refine_.get();
  }

  std::vector<u32> words;
  u64 upper_len = 0;
  PackGraph(&words, &upper_len);
  std::vector<u32> deleted_ids;
  for (u32 id = 0; id < n; ++id) {
    if (DeletedAt(id)) deleted_ids.push_back(id);
  }

  writer.WriteI32(config_.dim);
  writer.WriteI32(config_.M);
  writer.WriteI32(config_.ef_construction);
  writer.WriteI32(config_.ef_search);
  writer.WriteU64(config_.seed);
  writer.WriteU32(config_.max_elements);
  writer.WriteU64(n);
  writer.WriteU32(ep_packed == 0 ? 0 : static_cast<u32>(ep_packed));
  writer.WriteI32(static_cast<i32>(ep_packed >> 32) - 1);
  writer.WriteU32Array(deleted_ids.data(), deleted_ids.size());
  writer.WriteU32(static_cast<u32>(want));
  writer.WriteU32(refine != nullptr || refine_from_live ? 1 : 0);
  writer.WriteU64(upper_len);
  writer.WriteAlignedSection(words.data(), words.size() * sizeof(u32));

  const int d = config_.dim;
  auto live_row = [this](u64 i) { return VectorAt(static_cast<u32>(i)); };
  if (convert_to_sq8) {
    if (store_ != nullptr) {
      const float* base = store_->float_base();
      DJ_CHECK(base != nullptr);
      const size_t dd = static_cast<size_t>(d);
      DJ_RETURN_IF_ERROR(Sq8Store::SaveFromRows(
          writer, d, n, [base, dd](u64 i) { return base + i * dd; }));
    } else {
      DJ_RETURN_IF_ERROR(Sq8Store::SaveFromRows(writer, d, n, live_row));
    }
  } else if (primary != nullptr) {
    DJ_RETURN_IF_ERROR(primary->Save(writer));
  } else {
    DJ_RETURN_IF_ERROR(FloatStore::SaveFromRows(writer, d, n, live_row));
  }
  if (refine != nullptr) {
    DJ_RETURN_IF_ERROR(refine->Save(writer));
  } else if (refine_from_live) {
    DJ_RETURN_IF_ERROR(FloatStore::SaveFromRows(writer, d, n, live_row));
  }
  return writer.status();
}

Result<std::unique_ptr<HnswIndex>> HnswIndex::LoadPayload(
    BinaryReader& reader, const OpenOptions& options) {
  HnswConfig config;
  DJ_RETURN_IF_ERROR(reader.ReadI32(&config.dim));
  DJ_RETURN_IF_ERROR(reader.ReadI32(&config.M));
  DJ_RETURN_IF_ERROR(reader.ReadI32(&config.ef_construction));
  DJ_RETURN_IF_ERROR(reader.ReadI32(&config.ef_search));
  DJ_RETURN_IF_ERROR(reader.ReadU64(&config.seed));
  DJ_RETURN_IF_ERROR(reader.ReadU32(&config.max_elements));
  // The constructor DJ_CHECKs these invariants; a load path must reject,
  // not abort.
  if (config.dim <= 0 || config.dim > (1 << 20) || config.M < 2 ||
      config.M > (1 << 20) || config.ef_construction <= 0 ||
      config.ef_search <= 0) {
    return Status::DataLoss("HNSW config out of range");
  }
  u64 n = 0;
  u32 entry = 0;
  i32 max_level = -1;
  DJ_RETURN_IF_ERROR(reader.ReadU64(&n));
  DJ_RETURN_IF_ERROR(reader.ReadU32(&entry));
  DJ_RETURN_IF_ERROR(reader.ReadI32(&max_level));
  std::vector<u32> deleted_ids;
  DJ_RETURN_IF_ERROR(reader.ReadU32Array(&deleted_ids));
  u32 kind_raw = 0;
  u32 has_refine = 0;
  u64 upper_len = 0;
  DJ_RETURN_IF_ERROR(reader.ReadU32(&kind_raw));
  DJ_RETURN_IF_ERROR(reader.ReadU32(&has_refine));
  DJ_RETURN_IF_ERROR(reader.ReadU64(&upper_len));

  if (n > std::numeric_limits<u32>::max() - kChunkSize) {
    return Status::DataLoss("HNSW node count out of range");
  }
  if (kind_raw != static_cast<u32>(StorageKind::kFloat) &&
      kind_raw != static_cast<u32>(StorageKind::kSq8)) {
    return Status::DataLoss("hnsw: unknown primary storage kind " +
                            std::to_string(kind_raw));
  }
  if (has_refine > 1) {
    return Status::DataLoss("hnsw: corrupt has_refine flag");
  }
  const StorageKind primary_kind = static_cast<StorageKind>(kind_raw);
  if (primary_kind == StorageKind::kFloat && has_refine != 0) {
    return Status::DataLoss("hnsw: float primary with refinement payload");
  }
  const u64 cap0 = 1 + 2 * static_cast<u64>(config.M);
  // n <= 2^32 and cap0 <= 2^21+1 keep n*(1+cap0) far below 2^63; bounding
  // upper_len keeps the total word count from overflowing too.
  if (upper_len > (u64{1} << 48)) {
    return Status::DataLoss("HNSW packed upper region out of range");
  }
  const u64 expect_words = n + n * cap0 + (n + 1) + upper_len;
  SectionInfo ginfo;
  DJ_RETURN_IF_ERROR(reader.ReadSection(&ginfo));
  if (ginfo.length != expect_words * sizeof(u32)) {
    return Status::DataLoss("HNSW packed graph section length mismatch");
  }

  const StorageKind want =
      options.storage == StorageKind::kAuto ? primary_kind : options.storage;
  if (want == StorageKind::kSq8 && primary_kind == StorageKind::kFloat) {
    return Status::FailedPrecondition(
        "file holds float rows; quantize at save time "
        "(SaveOptions.storage = kSq8), not at open");
  }
  if (want == StorageKind::kFloat && primary_kind == StorageKind::kSq8 &&
      has_refine == 0) {
    return Status::FailedPrecondition(
        "file holds SQ8 only; no float payload to open (saved without "
        "keep_float_refine)");
  }

  if (options.map == MapMode::kOwned && want == StorageKind::kFloat) {
    // Owned float open: decode the packed graph back into live (mutable)
    // chunked storage — the legacy load-then-add semantics.
    std::string gbytes;
    DJ_RETURN_IF_ERROR(reader.ReadSectionBytes(ginfo, &gbytes));
    if (primary_kind == StorageKind::kSq8) {
      auto skipped = SkipVectorStore(reader);
      if (!skipped.ok()) return skipped.status();
    }
    auto store_r = LoadVectorStore(reader, options);
    if (!store_r.ok()) return store_r.status();
    std::unique_ptr<VectorStore> rows_store = std::move(store_r).value();
    if (rows_store->kind() != StorageKind::kFloat ||
        rows_store->dim() != config.dim || rows_store->size() != n) {
      return Status::DataLoss("hnsw: row store does not match header");
    }
    const u32* w = reinterpret_cast<const u32*>(gbytes.data());
    const u32* g_levels = w;
    const u32* g_level0 = w + n;
    const u32* g_upper_off = g_level0 + n * cap0;
    const u32* g_upper = g_upper_off + n + 1;
    std::vector<i32> levels(n);
    std::vector<u32> list_sizes;
    std::vector<u32> all_ids;
    for (u64 i = 0; i < n; ++i) {
      const u32 lw = g_levels[i];
      if (lw > static_cast<u32>(kMaxStoredLevel)) {
        return Status::DataLoss("HNSW node level out of range");
      }
      levels[i] = static_cast<i32>(lw);
      const u32* row = g_level0 + i * cap0;
      if (row[0] > cap0 - 1) {
        return Status::DataLoss("HNSW level-0 list size out of range");
      }
      list_sizes.push_back(row[0]);
      all_ids.insert(all_ids.end(), row + 1, row + 1 + row[0]);
      u64 off = g_upper_off[i];
      const u64 end = g_upper_off[i + 1];
      if (off > end || end > upper_len) {
        return Status::DataLoss("HNSW packed upper offsets inconsistent");
      }
      for (i32 lev = 1; lev <= levels[i]; ++lev) {
        if (off >= end) {
          return Status::DataLoss("HNSW packed upper list missing");
        }
        const u64 cnt = g_upper[off];
        if (cnt > end - off - 1) {
          return Status::DataLoss("HNSW packed upper list size out of range");
        }
        list_sizes.push_back(static_cast<u32>(cnt));
        all_ids.insert(all_ids.end(), g_upper + off + 1,
                       g_upper + off + 1 + cnt);
        off += cnt + 1;
      }
      if (off != end) {
        return Status::DataLoss("HNSW packed upper region has trailing words");
      }
    }
    auto built = BuildLive(config, rows_store->float_base(), n, levels,
                           list_sizes, all_ids, entry, max_level, deleted_ids);
    if (!built.ok()) return built.status();
    return std::make_unique<HnswIndex>(std::move(built).value());
  }

  // Store-backed read-only mode: graph stays packed (mapped or owned
  // bytes), rows stay in their on-disk representation.
  if (static_cast<u64>(config.max_elements) < n) {
    config.max_elements = static_cast<u32>(n);
  }
  HnswIndex index(config);
  if (options.map == MapMode::kMapped) {
    DJ_RETURN_IF_ERROR(reader.env()->NewMappedRegion(
        reader.path(), ginfo.offset, ginfo.length, &index.graph_region_));
    const u8* base = static_cast<const u8*>(index.graph_region_->data());
    const bool eager = options.verify == VerifyMode::kFull;
    if (eager && ginfo.length > 0 &&
        Crc32c(base, ginfo.length) != ginfo.crc) {
      return Status::DataLoss(reader.path() +
                              ": mapped graph section checksum mismatch");
    }
    index.graph_check_ = std::make_unique<LazyValidator>(base, ginfo, eager);
  } else {
    DJ_RETURN_IF_ERROR(reader.ReadSectionBytes(ginfo, &index.graph_owned_));
  }

  std::unique_ptr<VectorStore> store;
  std::unique_ptr<VectorStore> refine;
  if (want == primary_kind) {
    auto store_r = LoadVectorStore(reader, options);
    if (!store_r.ok()) return store_r.status();
    store = std::move(store_r).value();
    if (has_refine != 0) {
      auto refine_r = LoadVectorStore(reader, options);
      if (!refine_r.ok()) return refine_r.status();
      refine = std::move(refine_r).value();
      if (refine->kind() != StorageKind::kFloat ||
          refine->dim() != store->dim() || refine->size() != store->size()) {
        return Status::DataLoss(
            "hnsw: refinement store does not match primary");
      }
    }
  } else {
    // want float over an SQ8 primary (refine presence checked above):
    // the refinement payload becomes the active store.
    auto skipped = SkipVectorStore(reader);
    if (!skipped.ok()) return skipped.status();
    auto store_r = LoadVectorStore(reader, options);
    if (!store_r.ok()) return store_r.status();
    store = std::move(store_r).value();
  }
  if (store->kind() != want || store->dim() != config.dim ||
      store->size() != n) {
    return Status::DataLoss("hnsw: row store does not match header");
  }
  index.store_ = std::move(store);
  index.refine_ = std::move(refine);
  index.SetGraphPointers(index.graph_region_ != nullptr
                             ? index.graph_region_->data()
                             : index.graph_owned_.data(),
                         n, upper_len);
  index.ro_deleted_ = std::make_unique<std::atomic<u8>[]>(
      static_cast<size_t>(std::max<u64>(n, 1)));
  u32 dead = 0;
  for (u32 id : deleted_ids) {
    if (static_cast<u64>(id) >= n) {
      return Status::DataLoss("HNSW tombstone id out of range");
    }
    if (index.ro_deleted_[id].exchange(1, std::memory_order_relaxed) == 0) {
      ++dead;
    }
  }
  if (n == 0) {
    if (max_level != -1) {
      return Status::DataLoss("HNSW empty index with non-empty entry point");
    }
  } else if (static_cast<u64>(entry) >= n || max_level < 0 ||
             max_level > kMaxStoredLevel) {
    // The packed levels words are not sweepable without touching every
    // page, so only the entry itself is validated here; traversals clamp
    // everything they read.
    return Status::DataLoss("HNSW entry point out of range");
  }
  index.count_.store(static_cast<u32>(n), std::memory_order_release);
  index.dead_.store(dead, std::memory_order_relaxed);
  index.entry_point_.store(n == 0 ? 0 : PackEntry(max_level, entry),
                           std::memory_order_release);
  return std::make_unique<HnswIndex>(std::move(index));
}

void HnswIndex::SearchInto(const float* query, size_t k,
                           const AnnSearchParams& params,
                           std::vector<Neighbor>* out) const {
  DJ_TRACE_SPAN("hnsw.search");
  out->clear();
  if (k == 0) return;
  // Entry point first, count second: the writer stores count before entry,
  // so a pinned bound is always past the entry node it routes from.
  const u64 ep_packed = entry_point_.load(std::memory_order_acquire);
  if (ep_packed == 0) return;  // empty (or first insert not yet wired)
  const u32 bound = count_.load(std::memory_order_acquire);

  // The layer traversals tally their work in registers either way (that's
  // free); the pointer only controls whether the tallies are kept and
  // reported below.
  SearchWork tally;
  SearchWork* work = (metrics::Enabled() ||
                      trace::TraceCollector::Current() != nullptr)
                         ? &tally
                         : nullptr;

  auto scratch = visited_pool_->Acquire(bound);
  scratch->bound = bound;
  u32 ep = static_cast<u32>(ep_packed);
  const int top_level = static_cast<int>(ep_packed >> 32) - 1;
  for (int lev = top_level; lev >= 1; --lev) {
    ep = GreedyClosest(query, ep, lev, scratch.get(), work);
  }
  // SQ8 + refinement: over-fetch by refine_factor at the quantized layer,
  // then rerank the candidates with exact float distances below.
  const bool refine = params.refine_factor > 0 && refine_ != nullptr;
  const size_t fetch =
      refine ? k * static_cast<size_t>(params.refine_factor) : k;
  const int ef_base =
      params.ef_search > 0 ? params.ef_search : config_.ef_search;
  const int ef = std::max<int>(ef_base, static_cast<int>(fetch));
  SearchLayer(query, ep, ef, 0, out, scratch.get(), /*filter_deleted=*/true,
              work);
  visited_pool_->Release(std::move(scratch));

  if (work != nullptr) {
    // Function-local statics: the registry lookups allocate once per
    // process, before the steady state the noalloc contract covers.
    static metrics::Counter* const searches =
        metrics::MetricsRegistry::Global().GetCounter(  // dj_alloc: allow(alloc)
            "dj_hnsw_searches_total");
    static metrics::Counter* const dist_evals =
        metrics::MetricsRegistry::Global().GetCounter(  // dj_alloc: allow(alloc)
            "dj_hnsw_dist_evals_total");
    static metrics::Counter* const hops =
        metrics::MetricsRegistry::Global().GetCounter(  // dj_alloc: allow(alloc)
            "dj_hnsw_hops_total");
    // Fraction of the ef result budget actually filled at layer 0; a
    // persistently low occupancy means ef is oversized for the graph.
    static metrics::Histogram* const occupancy =
        metrics::MetricsRegistry::Global().GetHistogram(  // dj_alloc: allow(alloc)
            "dj_hnsw_ef_occupancy",
            {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0});
    searches->Increment();
    dist_evals->Add(tally.dist_evals);
    hops->Add(tally.hops);
    occupancy->Record(static_cast<double>(out->size()) /
                      static_cast<double>(ef));
    trace::Count("hnsw.dist_evals", tally.dist_evals);
    trace::Count("hnsw.hops", tally.hops);
  }

  // Shrink via erase: shrinking never reallocates (resize would trip
  // the growth-call check for no reason).
  if (out->size() > fetch) {
    out->erase(out->begin() + static_cast<long>(fetch), out->end());
  }
  if (refine) RefineResults(*refine_, query, k, out);
}

}  // namespace ann
}  // namespace deepjoin
