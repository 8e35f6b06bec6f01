// dj_lockgraph: dumps the OBSERVED lock-order graph (DESIGN.md §10) after
// driving a small deterministic workload across the tree's concurrent
// layers — ThreadPool Submit/Wait and ParallelFor (threadpool.queue,
// threadpool.batch, metrics.registry), and an HNSW build + concurrent
// searches (hnsw.visited_pool). Every acquired-while-holding edge those
// paths take at runtime lands in lock_rank::LockOrderGraph::Global(), and
// this tool prints it.
//
//   dj_lockgraph [--format=json|dot]
//
// The tool links the dj_guard object library, which turns the hooks on
// (util/lock_rank.h). tools/dj_deadlock derives the same graph statically
// — comparing the two dumps shows which static edges the workload actually
// exercised.
#include <cstdio>
#include <string>
#include <vector>

#include "ann/hnsw.h"
#include "util/lock_rank.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

using namespace deepjoin;

namespace {

/// Submit/Wait, nested ParallelFor, and HNSW build + concurrent searches:
/// one pass through every named lock in the rank table that a unit-sized
/// workload can reach.
void RunWorkload() {
  ThreadPool pool(4);
  for (int i = 0; i < 8; ++i) {
    pool.Submit([] {});
  }
  pool.Wait();
  std::vector<double> sums(64, 0.0);
  pool.ParallelFor(sums.size(), [&](size_t i) { sums[i] = double(i) * i; });

  constexpr int kDim = 16;
  constexpr size_t kVectors = 200;
  ann::HnswConfig hc;
  hc.dim = kDim;
  hc.M = 8;
  hc.ef_construction = 32;
  hc.ef_search = 16;
  ann::HnswIndex index(hc);
  Rng rng(7);
  std::vector<float> data(kVectors * kDim);
  for (float& v : data) {
    v = static_cast<float>(rng.UniformDouble(-1.0, 1.0));
  }
  for (size_t i = 0; i < kVectors; ++i) {
    index.Add(&data[i * kDim]);
  }
  pool.ParallelFor(16, [&](size_t i) {
    (void)index.Search(&data[(i % kVectors) * kDim], 5, ann::AnnSearchParams{});
  });
}

}  // namespace

int main(int argc, char** argv) {
  std::string format = "json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
    } else {
      std::fprintf(stderr, "dj_lockgraph: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (format != "json" && format != "dot") {
    std::fprintf(stderr, "dj_lockgraph: unknown --format=%s\n",
                 format.c_str());
    return 2;
  }

  RunWorkload();
  lock_rank::PublishMetrics();

  const auto& graph = lock_rank::LockOrderGraph::Global();
  std::fprintf(stderr, "dj_lockgraph: %zu nodes, %zu edges observed\n",
               graph.node_count(), graph.edge_count());
  const std::string dump =
      format == "json" ? graph.ToJson() : graph.ToDot();
  std::printf("%s\n", dump.c_str());
  return 0;
}
