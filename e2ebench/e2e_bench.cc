// e2e_bench: end-to-end benchmark of the DeepJoin online pipeline (paper
// §3.3: column -> transform -> tokenize -> encode -> ANN -> column ids),
// served through serve::QueryService. README.md says why each workload
// exists and which layer metric should move which end-to-end metric;
// run.py builds this binary and wraps its report.
//
//   e2e_bench --workload=plm_hnsw_serve|ft_flat_serve|plm_hnsw_live
//             --seed=N --seconds=S --trace=0|1
//             [--smoke] [--work-dir=DIR] [--spans=PATH]
//
// Every layer is measured from outside: the benchmark times its own calls
// into the program's public functions and reads the service's per-request
// Request::queue_ms / exec_ms. With --trace=1 it also records spans (see
// spans.h) around every encode, request and mutation, and reports the
// per-layer metrics. Progress goes to stderr; the last line of stdout is
// one JSON report. Exit status: 0 when every correctness gate holds, 1
// when one fails, 2 on bad usage or a failed setup.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/encoders.h"
#include "core/searcher.h"
#include "core/transform.h"
#include "lake/generator.h"
#include "serve/query_service.h"
#include "spans.h"
#include "stats.h"
#include "text/tokenizer.h"
#include "util/flags.h"
#include "util/kernels.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace e2ebench {
namespace {

using namespace deepjoin;

constexpr size_t kK = 10;
/// The synthetic world (domains, entity families) is fixed; --seed draws
/// the lake, the queries, the arrival times and the mutations from it. A
/// seeded world changes vocabulary and column lengths wholesale, which
/// would move every cost with the seed.
constexpr u64 kWorldSeed = 1;
/// Setups per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Setup pool: with the waiting main thread, 4 threads (= nproc).
constexpr size_t kBuildThreads = 3;
constexpr size_t kSaturationOutstanding = 64;
constexpr size_t kCheckOutstanding = 32;
constexpr size_t kMaxBatch = 32;
constexpr double kMaxWaitMs = 1.0;
constexpr double kHnswRecallFloor = 0.9;
/// The query phases run in this many rounds (see Bench::low_).
constexpr size_t kRounds = 3;
/// The direct single-query probe runs in this many bursts, one after the
/// warmup and one after each query phase.
constexpr size_t kDirectBursts = 10;
/// add_cpu_ms reads the AddColumn CPU times in runs of this many.
constexpr size_t kAddsPerRun = 200;
/// Share of --seconds the serve workloads spend on in-memory ingest.
constexpr double kIngestShare = 0.18;

struct Workload {
  const char* name;
  bool plm;   ///< MPNetSim PLM encoder; otherwise fastText, dim 128
  bool flat;  ///< flat float index (served through StreamScan); else HNSW
  bool live;  ///< OpenLive durable mode; the mutator runs beside queries
  size_t lake_columns;
  double low_qps;   ///< open-loop offered rates, fixed (not scaled)
  double high_qps;
  size_t encode_threads;  ///< serving encode pool; 0 = on the dispatcher
  /// Upper estimates that size the pre-generated, never-repeating query
  /// and fresh-column pools (a saturation round stops early if its pool
  /// runs out; the mutator wraps around its pool).
  double saturation_qps_cap;
  double mutations_per_s_cap;
};

// Thread budget per process is nproc = 4: serve workloads run the load
// generator, the dispatcher and (PLM) a 2-thread encode pool; the live
// workload runs the load generator, the dispatcher and the mutator.
constexpr Workload kWorkloads[] = {
    {"plm_hnsw_serve", true, false, false, 3000, 200, 500, 2, 2200, 1500},
    {"ft_flat_serve", false, true, false, 20000, 200, 400, 0, 3000, 8000},
    {"plm_hnsw_live", true, false, true, 3000, 200, 250, 0, 1200, 1200},
};

struct Args {
  const Workload* workload = nullptr;
  u64 seed = 1;
  double seconds = 25;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".";
  std::string spans_path;
};

// ---------------------------------------------------------------------
// JSON output

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// One JSON object, keys in insertion order.
class Json {
 public:
  Json& Num(std::string_view k, double v) { return Raw(k, e2ebench::Num(v)); }
  Json& Int(std::string_view k, u64 v) { return Raw(k, std::to_string(v)); }
  Json& Bool(std::string_view k, bool v) {
    return Raw(k, v ? "true" : "false");
  }
  Json& Str(std::string_view k, std::string_view v) { return Raw(k, Quote(v)); }
  Json& Raw(std::string_view k, std::string_view json) {
    if (!body_.empty()) body_ += ", ";
    body_ += Quote(k);
    body_ += ": ";
    body_ += json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Named metrics with unit and sample count. A percentile the sample
/// cannot support is written as null (Samples::Percentile); one with no
/// samples at all (a layer the workload does not use) as 0.
class MetricSet {
 public:
  void Value(std::string_view name, std::string_view unit, double v,
             size_t n) {
    j_.Raw(name, Json().Num("value", v).Str("unit", unit).Int("n", n).str());
  }
  void Pct(std::string_view name, std::string_view unit, const Samples& s,
           double p) {
    Opt(name, unit, s.empty() ? 0.0 : s.Percentile(p), s.n());
  }
  /// A value the sample may not support (nullopt: written as null).
  void Opt(std::string_view name, std::string_view unit,
           std::optional<double> v, size_t n) {
    j_.Raw(name, Json()
                     .Raw("value", v ? e2ebench::Num(*v) : "null")
                     .Str("unit", unit)
                     .Int("n", n)
                     .str());
  }
  void Mean(std::string_view name, std::string_view unit, const Samples& s) {
    Value(name, unit, s.Mean(), s.n());
  }
  std::string str() const { return j_.str(); }

 private:
  Json j_;
};

std::string SamplesJson(const Samples& s) {
  const auto p50 = s.Percentile(0.5);
  const auto p99 = s.Percentile(0.99);
  return Json()
      .Int("n", s.n())
      .Num("mean", s.Mean())
      .Raw("p50", p50 ? Num(*p50) : "null")
      .Raw("p99", p99 ? Num(*p99) : "null")
      .str();
}

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// CPU time of the calling thread, in ms. The kernel charges a thread only
/// for the time it ran: time the host gave to other guests (steal) and time
/// spent waiting for a CPU are not in it, which is why the gated cost
/// metrics are CPU times (README.md, "Gated metrics").
double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ---------------------------------------------------------------------
// Encoder decorator

/// Every encode the searcher and the service make passes through here. In
/// the traced run it splits the encode into its tokenize and forward
/// halves (PLM: ColumnToIdsInto, then TransformerEncoder::EncodeToVector;
/// fastText: the text transform, then the embedder's lookup-and-average)
/// and records each as a span. In every run it copies the vectors of
/// registered inputs (the lake, the mutator's fresh columns), so the exact
/// top-k reference runs over the index's own vectors without a second
/// encode.
class BenchEncoder final : public core::ColumnEncoder {
 public:
  BenchEncoder(core::ColumnEncoder* inner, core::PlmColumnEncoder* plm,
               const FastTextEmbedder* ft, SpanLog* spans)
      : inner_(inner), plm_(plm), ft_(ft), spans_(spans) {}

  std::vector<float> Encode(const lake::Column& column) override {
    std::vector<float> v(static_cast<size_t>(dim()));
    EncodeInto(column, v.data());
    return v;
  }

  void EncodeInto(const lake::Column& column, float* out) override {
    if (spans_ == nullptr) {
      inner_->EncodeInto(column, out);
    } else {
      TracedEncode(column, out);
    }
    const auto at = reinterpret_cast<uintptr_t>(&column);
    for (const Range& r : captures_) {
      const auto base = reinterpret_cast<uintptr_t>(r.base);
      if (at >= base && at < base + r.n * sizeof(lake::Column)) {
        std::memcpy(r.dst + (at - base) / sizeof(lake::Column) * dim(), out,
                    sizeof(float) * static_cast<size_t>(dim()));
      }
    }
  }

  int dim() const override { return inner_->dim(); }
  std::string name() const override { return inner_->name(); }

  /// Copies the vector of every column of `cols` into row (position) of
  /// `dst`. Register before the encoder is shared between threads.
  void Capture(const std::vector<lake::Column>& cols, float* dst) {
    captures_.push_back(Range{cols.data(), cols.size(), dst});
  }

  /// Duration of this thread's last encode (traced runs only).
  static double LastEncodeMs() { return last_encode_ms_; }

 private:
  struct Range {
    const lake::Column* base;
    size_t n;
    float* dst;
  };

  void TracedEncode(const lake::Column& column, float* out) {
    Span enc{.id = spans_->NextId(), .name = "encoder.encode", .key = &column};
    Span tok{.id = spans_->NextId(), .parent = enc.id,
             .name = "encoder.tokenize"};
    Span fwd{.id = spans_->NextId(), .parent = enc.id, .name = "nn.forward"};
    if (plm_ != nullptr) {
      thread_local std::vector<u32> ids;
      enc.start = tok.start = Clock::now();
      plm_->ColumnToIdsInto(column, &ids);
      tok.end = fwd.start = Clock::now();
      plm_->transformer().EncodeToVector(ids, out);
      fwd.end = enc.end = Clock::now();
      tok.count = ids.size();
    } else {
      thread_local std::string text;
      enc.start = tok.start = Clock::now();
      text = core::TransformColumn(column, core::TransformConfig{});
      tok.end = fwd.start = Clock::now();
      ft_->TextVectorInto(text, out);
      fwd.end = enc.end = Clock::now();
      tok.count = CountWords(text);  // outside the spans
    }
    last_encode_ms_ = MsBetween(enc.start, enc.end);
    spans_->Add({enc, tok, fwd});
  }

  core::ColumnEncoder* const inner_;
  core::PlmColumnEncoder* const plm_;
  const FastTextEmbedder* const ft_;
  SpanLog* const spans_;
  std::vector<Range> captures_;
  static inline thread_local double last_encode_ms_ = 0;
};

// ---------------------------------------------------------------------
// Load generator

class LoadGen;

/// One request. Never reused within a run, so its result stays available
/// to the correctness gates after its phase.
struct Call {
  serve::Request req;
  LoadGen* gen = nullptr;
  Clock::time_point due{};   ///< scheduled send time (open loop)
  Clock::time_point sent{};  ///< just before Submit
  Clock::time_point done{};  ///< in the done callback
  Status submit_status;
};

struct Phase {
  std::string name;
  bool open = true;
  double rate_qps = 0;      ///< open loop
  size_t outstanding = 0;   ///< closed loop
  double seconds = 0;       ///< planned length; 0 = until the pool is used
  std::vector<lake::Column> queries;
  std::vector<double> offsets_s;  ///< open-loop schedule
  std::vector<Call> calls;        ///< calls[i] carries queries[i]
  size_t submitted = 0;
  Clock::time_point start{};
  Clock::time_point window_end{};
  u64 first_req = 0;  ///< request ids [first_req, first_req + submitted)
  double steal_s = 0;  ///< host steal time while the phase ran

  // Tallies (Tally()).
  size_t attempted = 0, ok = 0, rejected = 0, expired = 0, other_failed = 0;
  size_t ok_in_window = 0;
  Samples latency_ms;  ///< scheduled send -> done, OK requests
  Samples late_ms;     ///< scheduled send -> actual send
  Samples queue_ms, exec_ms;

  double window_s() const { return MsBetween(start, window_end) / 1000; }
  size_t failed() const { return rejected + expired + other_failed; }

  void Tally() {
    for (size_t i = 0; i < submitted; ++i) {
      const Call& c = calls[i];
      ++attempted;
      const Status& st = c.submit_status.ok() ? c.req.status : c.submit_status;
      if (open) late_ms.Add(MsBetween(c.due, c.sent));
      if (st.ok()) {
        ++ok;
        latency_ms.Add(MsBetween(c.due, c.done));
        queue_ms.Add(c.req.queue_ms);
        exec_ms.Add(c.req.exec_ms);
        if (c.done <= window_end) ++ok_in_window;
      } else if (st.code() == StatusCode::kResourceExhausted) {
        ++rejected;
      } else if (st.code() == StatusCode::kDeadlineExceeded) {
        ++expired;
      } else {
        ++other_failed;
      }
    }
  }

  std::string ToJson() const {
    Json j;
    j.Str("name", name).Str("loop", open ? "open" : "closed");
    if (open) {
      j.Num("rate_qps", rate_qps);
    } else {
      j.Int("outstanding", outstanding);
    }
    j.Num("window_s", window_s())
        .Int("attempted", attempted)
        .Int("ok", ok)
        .Int("failed", failed())
        .Int("rejected", rejected)
        .Int("expired", expired)
        .Int("other_failed", other_failed)
        .Num("ok_per_s", ok_in_window / std::max(window_s(), 1e-9))
        .Num("steal_s", steal_s)
        .Raw("latency_ms", SamplesJson(latency_ms))
        .Raw("queue_ms", SamplesJson(queue_ms))
        .Raw("exec_ms", SamplesJson(exec_ms));
    if (open) j.Raw("late_ms", SamplesJson(late_ms));
    return j.str();
  }
};

/// Latency percentile of a phase kind: the lowest over its rounds of each
/// round's percentile (null when any round cannot support it). Load from
/// elsewhere on a shared host only adds time, and it comes in bursts that
/// can cover a round; the quietest round is the steadiest estimate of the
/// program's own latency.
void BestRoundPct(MetricSet* m, std::string_view name,
                  const std::vector<Phase>& rounds, double p) {
  double best = INFINITY;
  size_t n = 0;
  bool supported = true;
  for (const Phase& ph : rounds) {
    const auto v = ph.latency_ms.Percentile(p);
    supported = supported && v.has_value();
    if (v) best = std::min(best, *v);
    n += ph.latency_ms.n();
  }
  m->Value(name, "ms", supported ? best : NAN, n);
}

/// CPU time the hypervisor gave to other guests while this one wanted to
/// run (the "steal" column of /proc/stat), in seconds; 0 where unavailable.
double StealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  return got == 8 ? static_cast<double>(v[7]) / sysconf(_SC_CLK_TCK) : 0;
}

/// Drives one QueryService from the calling thread. Open loop: each
/// request is sent at its scheduled time whether or not earlier ones have
/// finished, and its latency counts from that time, so a generator stall
/// shows as latency. Closed loop: a fixed number outstanding.
class LoadGen {
 public:
  explicit LoadGen(serve::QueryService* service) : service_(service) {}

  void RunOpen(Phase* ph) {
    const double steal0 = StealSeconds();
    ph->calls = std::vector<Call>(ph->offsets_s.size());
    ph->start = Clock::now() + std::chrono::milliseconds(2);
    for (size_t i = 0; i < ph->offsets_s.size(); ++i) {
      const auto due = ph->start + Seconds(ph->offsets_s[i]);
      if (Clock::now() < due) std::this_thread::sleep_until(due);
      Submit(ph, due);
    }
    ph->window_end = ph->start + Seconds(ph->seconds);
    Drain();
    ph->steal_s = StealSeconds() - steal0;
  }

  void RunClosed(Phase* ph) {
    const double steal0 = StealSeconds();
    const size_t n = ph->queries.size();
    ph->calls = std::vector<Call>(n);
    ph->start = Clock::now();
    const bool timed = ph->seconds > 0;
    ph->window_end =
        timed ? ph->start + Seconds(ph->seconds) : Clock::time_point::max();
    size_t in_flight = 0;
    std::vector<Call*> ready;
    for (;;) {
      const auto now = Clock::now();
      if (timed && now >= ph->window_end) break;
      while (in_flight < ph->outstanding && ph->submitted < n) {
        in_flight += Submit(ph, Clock::now()) ? 1 : 0;
        if (ph->submitted == n) {
          // Pool used up: the window ends at the last send.
          ph->window_end = std::min(ph->window_end, Clock::now());
        }
      }
      if (in_flight == 0) break;
      ready.clear();
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait_for(lock, std::chrono::milliseconds(5),
                     [&] { return !done_.empty(); });
        ready.swap(done_);
      }
      in_flight -= ready.size();
    }
    Drain();
    ph->steal_s = StealSeconds() - steal0;
  }

 private:
  static void OnDone(serve::Request* r) {
    Call* const c = static_cast<Call*>(r->ctx);
    c->done = Clock::now();
    LoadGen* const g = c->gen;
    std::lock_guard<std::mutex> lock(g->mu_);
    g->done_.push_back(c);
    ++g->completed_;
    g->cv_.notify_one();
  }

  /// Sends the phase's next query; true when admitted.
  bool Submit(Phase* ph, Clock::time_point due) {
    const size_t i = ph->submitted++;
    Call& c = ph->calls[i];
    c.gen = this;
    c.due = due;
    c.req.query = &ph->queries[i];
    c.req.options = core::SearchOptions{.k = kK, .collect_stats = false};
    c.req.deadline = serve::Deadline::Infinite();
    c.req.done = &OnDone;
    c.req.ctx = &c;
    c.sent = Clock::now();
    c.submit_status = service_->Submit(&c.req);
    if (!c.submit_status.ok()) return false;
    ++admitted_;
    return true;
  }

  /// Waits until every admitted request has completed.
  void Drain() {
    std::unique_lock<std::mutex> lock(mu_);
    while (completed_ < admitted_) {
      cv_.wait_for(lock, std::chrono::milliseconds(5));
    }
    done_.clear();
  }

  serve::QueryService* const service_;
  size_t admitted_ = 0;  // load-generator thread only
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Call*> done_;  // guarded by mu_
  size_t completed_ = 0;     // guarded by mu_
};

// ---------------------------------------------------------------------
// Mutator

u64 WalSyncs() {
  return metrics::MetricsRegistry::Global()
      .GetCounter("dj_wal_syncs_total")
      ->value();
}

/// (count, sum) of the service's batch-size histogram, read through a
/// snapshot so the benchmark never registers the metric itself.
std::pair<u64, double> BatchSizeTotals() {
  const auto snap = metrics::MetricsRegistry::Global().Snapshot();
  for (const auto& h : snap.histograms) {
    if (h.name == "dj_serve_batch_size") return {h.count, h.sum};
  }
  return {0, 0.0};
}

/// What a mutator did, mergeable across runs of the loop.
struct MutationStats {
  size_t attempted = 0, failed = 0, adds = 0, removes = 0, compactions = 0;
  Samples add_ms, add_index_ms, remove_ms, compact_ms;
  Samples add_cpu_ms;  ///< the mutator thread's CPU per AddColumn
  double active_s = 0;
  u64 wal_syncs = 0;

  void Merge(const MutationStats& o) {
    attempted += o.attempted;
    failed += o.failed;
    adds += o.adds;
    removes += o.removes;
    compactions += o.compactions;
    add_ms.Append(o.add_ms);
    add_index_ms.Append(o.add_index_ms);
    remove_ms.Append(o.remove_ms);
    compact_ms.Append(o.compact_ms);
    add_cpu_ms.Append(o.add_cpu_ms);
    active_s += o.active_s;
    wal_syncs += o.wal_syncs;
  }

  std::string ToJson() const {
    return Json()
        .Int("attempted", attempted)
        .Int("failed", failed)
        .Int("adds", adds)
        .Int("removes", removes)
        .Int("compactions", compactions)
        .Num("active_s", active_s)
        .Int("wal_syncs", wal_syncs)
        .Raw("add_ms", SamplesJson(add_ms))
        .Raw("add_cpu_ms", SamplesJson(add_cpu_ms))
        .Raw("remove_ms", SamplesJson(remove_ms))
        .Raw("compact_ms", SamplesJson(compact_ms))
        .str();
  }
};

/// Closed loop of AddColumn on fresh columns and RemoveColumn on live ones
/// at 2:1, with an explicit Compact() after every `removes_per_compact`
/// removes (0 = never).
class Mutator {
 public:
  Mutator(core::EmbeddingSearcher* searcher,
          const std::vector<lake::Column>* pool, std::vector<u32> live,
          u64 seed, size_t removes_per_compact, SpanLog* spans)
      : searcher_(searcher),
        pool_(pool),
        live_(std::move(live)),
        rng_(seed),
        removes_per_compact_(removes_per_compact),
        spans_(spans) {}

  /// Runs until `end` or until *stop is set.
  void Run(Clock::time_point end, const std::atomic<bool>* stop) {
    const u64 syncs0 = WalSyncs();
    const auto t0 = Clock::now();
    for (size_t op = 0;; ++op) {
      if (Clock::now() >= end) break;
      if (stop != nullptr && stop->load(std::memory_order_relaxed)) break;
      if (op % 3 == 2) {
        Remove();
      } else {
        Add();
      }
    }
    stats.active_s = MsBetween(t0, Clock::now()) / 1000;
    stats.wal_syncs = WalSyncs() - syncs0;
  }

  const std::vector<u32>& live() const { return live_; }

  MutationStats stats;
  std::vector<std::pair<u32, Clock::time_point>> removed;  ///< id, acked
  std::vector<std::pair<u32, size_t>> added;  ///< id, pool position

 private:
  void Add() {
    const size_t p = next_++ % pool_->size();
    const lake::Column& col = (*pool_)[p];
    Span sp{.name = "searcher.add"};
    const double cpu0 = ThreadCpuMs();
    sp.start = Clock::now();
    const Result<u32> r = searcher_->AddColumn(col);
    sp.end = Clock::now();
    const double cpu_ms = ThreadCpuMs() - cpu0;
    ++stats.attempted;
    if (!r.ok()) {
      ++stats.failed;
      return;
    }
    ++stats.adds;
    const double ms = MsBetween(sp.start, sp.end);
    stats.add_ms.Add(ms);
    stats.add_cpu_ms.Add(cpu_ms);
    live_.push_back(*r);
    added.emplace_back(*r, p);
    if (spans_ != nullptr) {
      stats.add_index_ms.Add(ms - BenchEncoder::LastEncodeMs());
      spans_->Link(&col, Record(sp), 0);
    }
  }

  void Remove() {
    if (live_.empty()) return;
    const size_t idx = rng_.UniformU64(live_.size());
    const u32 id = live_[idx];
    Span sp{.name = "searcher.remove"};
    sp.start = Clock::now();
    const Status st = searcher_->RemoveColumn(id);
    sp.end = Clock::now();
    ++stats.attempted;
    if (!st.ok()) {
      ++stats.failed;
      return;
    }
    ++stats.removes;
    stats.remove_ms.Add(MsBetween(sp.start, sp.end));
    removed.emplace_back(id, sp.end);
    live_[idx] = live_.back();
    live_.pop_back();
    Record(sp);
    if (removes_per_compact_ != 0 &&
        stats.removes % removes_per_compact_ == 0) {
      Span cp{.name = "searcher.compact"};
      cp.start = Clock::now();
      const Status cst = searcher_->Compact();
      cp.end = Clock::now();
      ++stats.attempted;
      if (!cst.ok()) {
        ++stats.failed;
        return;
      }
      ++stats.compactions;
      stats.compact_ms.Add(MsBetween(cp.start, cp.end));
      Record(cp);
    }
  }

  /// Records `sp` when tracing; returns its id (0 when not tracing).
  u64 Record(Span sp) {
    if (spans_ == nullptr) return 0;
    sp.id = spans_->NextId();
    spans_->Add({sp});
    return sp.id;
  }

  core::EmbeddingSearcher* const searcher_;
  const std::vector<lake::Column>* const pool_;
  std::vector<u32> live_;
  Rng rng_;
  const size_t removes_per_compact_;
  SpanLog* const spans_;
  size_t next_ = 0;
};

// ---------------------------------------------------------------------
// Exact reference

/// Exact nearest-neighbour reference over the index's own vectors, for a
/// fixed set of query vectors. Distances are compared with a small
/// tolerance: the program's scan kernels and this reference round
/// differently, so near-equal distances may order either way.
class Reference {
 public:
  Reference(std::unordered_map<u32, const float*> vec,
            const std::vector<std::vector<float>>* queries, int dim)
      : vec_(std::move(vec)), queries_(queries), dim_(dim) {
    std::vector<float> d;
    d.reserve(vec_.size());
    for (const auto& q : *queries_) {
      d.clear();
      for (const auto& [id, v] : vec_) {
        d.push_back(kern::SquaredL2(q.data(), v, dim_));
      }
      const size_t kk = std::min(kK, d.size());
      std::nth_element(d.begin(), d.begin() + (kk - 1), d.end());
      kth_.push_back(d[kk - 1]);
    }
  }

  size_t size() const { return vec_.size(); }
  bool Live(u32 id) const { return vec_.count(id) != 0; }
  /// Requires Live(id).
  float Dist(size_t q, u32 id) const {
    return kern::SquaredL2((*queries_)[q].data(), vec_.at(id), dim_);
  }
  /// Squared distance of query q's exact k-th nearest neighbour.
  float KthDist(size_t q) const { return kth_[q]; }
  float Tol(size_t q) const { return kth_[q] * 1e-4f + 1e-6f; }

  /// Same length, and rank by rank either the same id or two live ids at
  /// the same distance.
  bool SameUpToTies(size_t q, const std::vector<u32>& a,
                    const std::vector<u32>& b) const {
    if (a.size() != b.size()) return false;
    for (size_t r = 0; r < a.size(); ++r) {
      if (a[r] == b[r]) continue;
      if (!Live(a[r]) || !Live(b[r])) return false;
      if (std::abs(Dist(q, a[r]) - Dist(q, b[r])) > Tol(q)) return false;
    }
    return true;
  }

 private:
  std::unordered_map<u32, const float*> vec_;
  const std::vector<std::vector<float>>* queries_;
  int dim_;
  std::vector<float> kth_;
};

// ---------------------------------------------------------------------
// The benchmark

struct Gate {
  std::string name;
  bool ok;
  std::string detail;
};

/// The system under test. Members are declared in dependency order; call
/// Reset() to tear them down in reverse.
struct System {
  std::unique_ptr<FastTextEmbedder> ft;
  std::unique_ptr<core::ColumnEncoder> inner;
  std::unique_ptr<BenchEncoder> enc;
  std::unique_ptr<core::EmbeddingSearcher> searcher;
  std::string live_dir;

  void Reset() {
    searcher.reset();
    enc.reset();
    inner.reset();
    ft.reset();
  }
};

class Bench {
 public:
  explicit Bench(const Args& args)
      : a_(args),
        w_(*args.workload),
        gen_(lake::LakeConfig::Webtable(kWorldSeed)),
        spans_(args.trace ? std::make_unique<SpanLog>() : nullptr) {}

  int Run();

 private:
  core::SearcherConfig SearcherCfg() const {
    core::SearcherConfig sc;
    sc.backend = w_.flat ? core::AnnBackend::kFlat : core::AnnBackend::kHnsw;
    sc.hnsw_M = 16;
    sc.hnsw_ef_construction = 120;
    sc.hnsw_ef_search = 64;
    sc.wal_group_commit = false;  // every acknowledged mutation fsync'd
    return sc;
  }

  u64 Salt(u64 salt) const {
    return a_.seed * 0x9E3779B97F4A7C15ULL + salt;
  }
  std::vector<lake::Column> Columns(size_t n, u64 salt) {
    return gen_.GenerateQueries(n, Salt(salt));
  }

  void MakeInputs();
  /// One setup: encoder, searcher, live open (live), BuildIndex. Traced
  /// only when `traced` (the kept, last repetition).
  System SetupOnce(int rep, bool traced, double* build_s,
                   core::BuildStats* stats);
  void RunPhases(serve::QueryService* service);
  void ServedChecks();
  void ProbeAnn();
  void IngestBurst(bool traced);
  void ReopenCheck();
  /// Single queries, one at a time on the calling thread, straight through
  /// EmbeddingSearcher::SearchInto: the paper's online query time.
  void DirectQueries();
  void CheckNoRemovedServed();
  /// The exact reference over `live`, for the check queries.
  Reference MakeReference(const std::vector<u32>& live);
  /// Exact top-k recall of `ids[q]`; also gates that every returned id is
  /// live.
  double Recall(const Reference& ref, const std::vector<std::vector<u32>>& ids,
                const char* what);
  std::vector<std::vector<u32>> DirectIds(
      const std::vector<lake::Column>& queries);
  void TraceRequests();
  std::string LayerMetrics();
  std::string E2eMetrics();
  std::string Attribution();

  void AddGate(std::string name, bool ok, std::string detail) {
    if (!ok) std::fprintf(stderr, "e2e_bench: GATE FAILED %s: %s\n",
                          name.c_str(), detail.c_str());
    gates_.push_back(Gate{std::move(name), ok, std::move(detail)});
  }
  void Log(const char* what) const {
    std::fprintf(stderr, "e2e_bench[%s]: %s\n", w_.name, what);
  }
  double PhaseSeconds(double share) const { return a_.seconds * share; }
  std::vector<Phase*> QueryPhases() {
    std::vector<Phase*> out;
    for (size_t r = 0; r < kRounds; ++r) {
      out.insert(out.end(), {&low_[r], &high_[r], &sat_[r]});
    }
    return out;
  }
  std::vector<Phase*> AllPhases() {
    std::vector<Phase*> out = QueryPhases();
    out.insert(out.begin(), &warm_);
    out.push_back(&check_);
    return out;
  }

  const Args a_;
  const Workload& w_;
  lake::LakeGenerator gen_;
  std::unique_ptr<SpanLog> spans_;

  // Inputs, all generated from the seed before anything is measured.
  lake::Repository repo_;
  std::vector<lake::Column> vocab_corpus_;
  std::vector<lake::Column> add_pool_;
  std::vector<lake::Column> direct_queries_;
  /// The query phases run as kRounds rounds of low, high, saturation, so a
  /// burst of host load lands in one round: latency metrics take the best
  /// round, throughput the median round.
  std::vector<Phase> low_, high_, sat_;
  Phase warm_, check_;
  double lake_gen_s_ = 0;

  System sys_;
  int dim_ = 0;
  std::vector<float> lake_vecs_, add_vecs_;
  std::vector<std::vector<float>> check_vecs_;
  std::vector<double> setup_s_, build_s_, build_encode_s_, build_index_s_;

  /// The mutator of the kept system (live: the churn; serve: the last
  /// ingest burst), and what every mutator of the run did.
  std::unique_ptr<Mutator> mutator_;
  MutationStats mutations_;
  std::vector<std::vector<u32>> check_direct_;
  double recall_ = 0;
  double batch_mean_ = 0;
  /// CPU per direct query, in the order run (see DirectQueries).
  Samples query_cpu_ms_;
  size_t direct_next_ = 0;
  Samples ann_search_ms_, ann_dist_evals_, scan_step_ms_, riders_per_step_,
      scan_wrap_ms_;
  std::vector<Gate> gates_;
};

void Bench::MakeInputs() {
  const bool smoke = a_.smoke;
  const auto t0 = Clock::now();
  repo_ = gen_.GenerateRepositoryInSizeRange(
      smoke ? 400 : w_.lake_columns, 0, SIZE_MAX, Salt(0x4EB0));
  lake_gen_s_ = MsBetween(t0, Clock::now()) / 1000;
  if (w_.plm) vocab_corpus_ = Columns(smoke ? 200 : 1000, 0x5A17);
  warm_.queries = Columns(smoke ? 20 : 200, 0x3A53);
  check_.queries = Columns(smoke ? 30 : (w_.flat ? 200 : 300), 0xC4EC);

  // Open-loop phases carry most of the time: their percentiles need the
  // samples. Each sends exactly rate x length requests at Poisson arrival
  // times, so every seed gives a percentile the same number of samples.
  const double open_s = PhaseSeconds(w_.live ? 0.38 : 0.34) / kRounds;
  const double sat_s = PhaseSeconds(w_.live ? 0.24 : 0.14) / kRounds;
  Rng rng(a_.seed ^ 0xA221FA1);
  auto open = [&](Phase* ph, const char* name, double qps, u64 salt) {
    ph->name = name;
    ph->open = true;
    ph->rate_qps = qps;
    ph->seconds = open_s;
    const auto n = static_cast<size_t>(qps * open_s);
    double t = 0;
    for (size_t i = 0; i < n; ++i) {
      t += rng.Exponential(qps);
      ph->offsets_s.push_back(t);
    }
    ph->queries = Columns(n, salt);
  };
  low_.resize(kRounds);
  high_.resize(kRounds);
  sat_.resize(kRounds);
  for (size_t r = 0; r < kRounds; ++r) {
    open(&low_[r], "low", w_.low_qps, 0x10 + r);
    open(&high_[r], "high", w_.high_qps, 0x20 + r);
    Phase& sat = sat_[r];
    sat.name = "saturation";
    sat.open = false;
    sat.outstanding = kSaturationOutstanding;
    sat.seconds = sat_s;
    sat.queries = Columns(
        static_cast<size_t>(w_.saturation_qps_cap * sat_s) +
            kSaturationOutstanding,
        0x30 + r);
  }
  direct_queries_ = Columns(smoke ? 50 : 3000, 0xD1EC);
  warm_.name = "warmup";
  warm_.open = false;
  warm_.outstanding = 16;
  check_.name = "check";
  check_.open = false;
  check_.outstanding = kCheckOutstanding;

  const double mutate_s = w_.live ? a_.seconds : PhaseSeconds(kIngestShare);
  add_pool_ = Columns(
      static_cast<size_t>(w_.mutations_per_s_cap * mutate_s * 2 / 3) + 16,
      0x40);
}

System Bench::SetupOnce(int rep, bool traced, double* build_s,
                        core::BuildStats* stats) {
  System sys;
  const auto t0 = Clock::now();
  FastTextConfig fc;
  fc.dim = w_.plm ? 64 : 128;
  sys.ft = std::make_unique<FastTextEmbedder>(fc);
  sys.ft->TrainSynonyms(gen_.SynonymLexicon(), 0.8, 2);
  core::PlmColumnEncoder* plm = nullptr;
  if (w_.plm) {
    auto p = std::make_unique<core::PlmColumnEncoder>(
        core::PlmEncoderConfig{}, vocab_corpus_, *sys.ft);
    plm = p.get();
    sys.inner = std::move(p);
  } else {
    sys.inner = std::make_unique<core::FastTextColumnEncoder>(
        sys.ft.get(), core::TransformConfig{});
  }
  sys.enc = std::make_unique<BenchEncoder>(sys.inner.get(), plm, sys.ft.get(),
                                           traced ? spans_.get() : nullptr);
  dim_ = sys.enc->dim();
  lake_vecs_.resize(repo_.size() * static_cast<size_t>(dim_));
  add_vecs_.resize(add_pool_.size() * static_cast<size_t>(dim_));
  sys.enc->Capture(repo_.columns(), lake_vecs_.data());
  sys.enc->Capture(add_pool_, add_vecs_.data());
  sys.searcher =
      std::make_unique<core::EmbeddingSearcher>(sys.enc.get(), SearcherCfg());
  if (w_.live) {
    sys.live_dir = a_.work_dir + "/live-" + std::to_string(rep);
    std::filesystem::remove_all(sys.live_dir);
    std::filesystem::create_directories(sys.live_dir);
    if (Status st = sys.searcher->OpenLive(sys.live_dir); !st.ok()) {
      std::fprintf(stderr, "e2e_bench: OpenLive failed: %s\n",
                   st.ToString().c_str());
      std::exit(2);
    }
  }
  Span build{.name = "searcher.build"};
  build.start = Clock::now();
  {
    ThreadPool pool(kBuildThreads);
    if (Status st = sys.searcher->BuildIndex(repo_, &pool, stats); !st.ok()) {
      std::fprintf(stderr, "e2e_bench: BuildIndex failed: %s\n",
                   st.ToString().c_str());
      std::exit(2);
    }
  }
  build.end = Clock::now();
  *build_s = MsBetween(build.start, build.end) / 1000;
  setup_s_.push_back(MsBetween(t0, build.end) / 1000);
  if (traced) {
    build.id = spans_->NextId();
    spans_->Add({build});
    for (const lake::Column& c : repo_.columns()) {
      spans_->Link(&c, build.id, 0);
    }
  }
  return sys;
}

void Bench::RunPhases(serve::QueryService* service) {
  LoadGen gen(service);
  gen.RunClosed(&warm_);
  warm_.Tally();
  DirectQueries();
  std::atomic<bool> stop{false};
  std::thread mutator_thread;
  if (w_.live) {
    mutator_thread = std::thread([&] {
      mutator_->Run(Clock::time_point::max(), &stop);
    });
  }
  u64 batches = 0;
  double batch_sum = 0;
  for (size_t r = 0; r < kRounds; ++r) {
    Log("round: low, high, saturation");
    gen.RunOpen(&low_[r]);
    DirectQueries();
    gen.RunOpen(&high_[r]);
    DirectQueries();
    const auto [batches0, batch_sum0] = BatchSizeTotals();
    gen.RunClosed(&sat_[r]);
    const auto [batches1, batch_sum1] = BatchSizeTotals();
    DirectQueries();
    batches += batches1 - batches0;
    batch_sum += batch_sum1 - batch_sum0;
  }
  batch_mean_ = batches ? batch_sum / batches : 0;
  if (w_.live) {
    stop.store(true);
    mutator_thread.join();
  }
  for (Phase* ph : QueryPhases()) ph->Tally();

  Log("served checks");
  gen.RunClosed(&check_);
  check_.Tally();
}

std::vector<std::vector<u32>> Bench::DirectIds(
    const std::vector<lake::Column>& queries) {
  std::vector<std::vector<u32>> out(queries.size());
  core::EmbeddingSearcher::SearchResult res;
  for (size_t i = 0; i < queries.size(); ++i) {
    sys_.searcher->SearchInto(queries[i],
                              core::SearchOptions{.k = kK,
                                                  .collect_stats = false},
                              &res);
    out[i] = res.ids;
  }
  return out;
}

Reference Bench::MakeReference(const std::vector<u32>& live) {
  if (check_vecs_.empty()) {
    // Encoded through the wrapped encoder: the same vectors, and no span
    // for work the service did not do.
    for (const lake::Column& col : check_.queries) {
      check_vecs_.emplace_back(static_cast<size_t>(dim_));
      sys_.inner->EncodeInto(col, check_vecs_.back().data());
    }
  }
  std::unordered_map<u32, size_t> added_at;
  if (mutator_ != nullptr) {
    for (const auto& [id, p] : mutator_->added) added_at[id] = p;
  }
  std::unordered_map<u32, const float*> vec;
  vec.reserve(live.size());
  for (const u32 id : live) {
    const auto it = added_at.find(id);
    vec[id] = it != added_at.end()
                  ? add_vecs_.data() + it->second * dim_
                  : lake_vecs_.data() + static_cast<size_t>(id) * dim_;
  }
  return Reference(std::move(vec), &check_vecs_, dim_);
}

double Bench::Recall(const Reference& ref,
                     const std::vector<std::vector<u32>>& ids,
                     const char* what) {
  size_t hits = 0, expected = 0, dead = 0;
  for (size_t q = 0; q < ids.size(); ++q) {
    expected += std::min(kK, ref.size());
    for (const u32 id : ids[q]) {
      if (!ref.Live(id)) {
        ++dead;
      } else if (ref.Dist(q, id) <= ref.KthDist(q) + ref.Tol(q)) {
        ++hits;
      }
    }
  }
  AddGate(std::string("live_ids_only_") + what, dead == 0,
          std::to_string(dead) + " returned ids are not live");
  return expected ? static_cast<double>(hits) / expected : 0;
}

void Bench::ServedChecks() {
  check_direct_ = DirectIds(check_.queries);
  std::vector<u32> live;
  if (mutator_ != nullptr) {
    live = mutator_->live();
  } else {
    for (u32 i = 0; i < repo_.size(); ++i) live.push_back(i);
  }
  const Reference ref = MakeReference(live);
  std::vector<std::vector<u32>> served(check_.queries.size());
  size_t differ = 0, reordered = 0;
  for (size_t q = 0; q < check_.queries.size(); ++q) {
    const Call& c = check_.calls[q];
    served[q] = c.req.result.ids;
    if (!c.submit_status.ok() || !c.req.status.ok() ||
        !ref.SameUpToTies(q, served[q], check_direct_[q])) {
      ++differ;
    } else if (served[q] != check_direct_[q]) {
      ++reordered;
    }
  }
  AddGate("served_equals_direct", differ == 0,
          std::to_string(differ) + " of " +
              std::to_string(check_.queries.size()) +
              " served results differ from SearchInto (" +
              std::to_string(reordered) + " differ only among tied distances)");
  recall_ = Recall(ref, served, "served");
  if (w_.flat) {
    AddGate("recall_exact_on_flat", recall_ == 1.0,
            "recall_at_10 " + Num(recall_) + " (must be 1)");
  } else {
    AddGate("recall_floor", recall_ >= kHnswRecallFloor,
            "recall_at_10 " + Num(recall_) + " (floor " +
                Num(kHnswRecallFloor) + ")");
  }
}

void Bench::CheckNoRemovedServed() {
  // A request sent after a remove was acknowledged must not return it.
  std::unordered_map<u32, Clock::time_point> removed_at;
  for (const auto& [id, at] : mutator_->removed) removed_at[id] = at;
  size_t bad = 0;
  for (const Phase* ph : AllPhases()) {
    for (size_t i = 0; i < ph->submitted; ++i) {
      const Call& c = ph->calls[i];
      if (!c.req.status.ok()) continue;
      for (const u32 id : c.req.result.ids) {
        const auto it = removed_at.find(id);
        if (it != removed_at.end() && it->second < c.sent) ++bad;
      }
    }
  }
  AddGate("no_removed_id_served", bad == 0,
          std::to_string(bad) + " results returned an id removed before "
                                "the request was sent");
}

void Bench::ProbeAnn() {
  // ann layer alone: VectorIndex::SearchInto on the pinned snapshot, with
  // the queries encoded beforehand. The low phase's queries are enough for
  // a p99.
  const auto snap = sys_.searcher->PinSnapshot();
  std::vector<float> q(static_cast<size_t>(dim_));
  std::vector<ann::Neighbor> out;
  std::vector<const lake::Column*> probe;
  for (const Phase& ph : low_) {
    for (const lake::Column& col : ph.queries) probe.push_back(&col);
  }
  for (const lake::Column* col : probe) {
    sys_.inner->EncodeInto(*col, q.data());
    const auto t0 = Clock::now();
    snap->index->SearchInto(q.data(), kK, ann::AnnSearchParams{}, &out);
    ann_search_ms_.Add(MsBetween(t0, Clock::now()));
    trace::TraceCollector collector(true);
    snap->index->SearchInto(q.data(), kK, ann::AnnSearchParams{}, &out);
    const trace::QueryStats st = collector.Finish();
    ann_dist_evals_.Add(static_cast<double>(
        st.CounterValue("hnsw.dist_evals") +
        st.CounterValue("flat.dist_evals")));
  }
  // The HNSW workloads have no shared scan of their own: the scan layer is
  // measured on a flat index over the same lake and encoder.
  std::unique_ptr<core::EmbeddingSearcher> flat;
  const core::EmbeddingSearcher* scanned = sys_.searcher.get();
  if (!w_.flat) {
    core::SearcherConfig sc = SearcherCfg();
    sc.backend = core::AnnBackend::kFlat;
    flat = std::make_unique<core::EmbeddingSearcher>(sys_.inner.get(), sc);
    ThreadPool pool(kBuildThreads);
    if (Status st = flat->BuildIndex(repo_, &pool); !st.ok()) {
      AddGate("scan_probe_build", false, st.ToString());
      return;
    }
    scanned = flat.get();
  }
  auto scan = scanned->NewStreamScan();
  if (!scan.valid()) return;
  // Shared scan, driven directly. Idle case: one rider per full wrap.
  // Loaded case: riders board between tiles up to max_batch, as the
  // service boards arrivals at saturation.
  std::vector<size_t> done;
  core::EmbeddingSearcher::SearchResult res;
  const size_t idle = std::min<size_t>(20, check_.queries.size());
  for (size_t i = 0; i < idle; ++i) {
    const size_t slot = scan.Board(check_.queries[i], kK);
    const auto t0 = Clock::now();
    done.clear();
    while (done.empty()) scan.Step(&done);
    scan_wrap_ms_.Add(MsBetween(t0, Clock::now()));
    scan.Harvest(slot, &res);
  }
  // Each check query boards twice: a 3K-column index is two tiles, and one
  // pass would give the step percentile barely enough samples.
  const size_t boards = 2 * check_.queries.size();
  size_t next = 0;
  while (next < boards || !scan.empty()) {
    while (scan.active() < kMaxBatch && next < boards) {
      scan.Board(check_.queries[next++ % check_.queries.size()], kK);
    }
    riders_per_step_.Add(static_cast<double>(scan.active()));
    done.clear();
    const auto t0 = Clock::now();
    scan.Step(&done);
    scan_step_ms_.Add(MsBetween(t0, Clock::now()));
    for (const size_t slot : done) scan.Harvest(slot, &res);
  }
}

void Bench::IngestBurst(bool traced) {
  // In-memory ingest on the serve workloads: the live workload's add/remove
  // loop without the WAL, on the calling thread. A burst runs after each
  // discarded setup and one after the query phases, so the ingest metrics
  // sample the whole run and not one stretch of host load.
  std::vector<u32> live;
  for (u32 i = 0; i < repo_.size(); ++i) live.push_back(i);
  mutator_ = std::make_unique<Mutator>(
      sys_.searcher.get(), &add_pool_, std::move(live), a_.seed ^ 0x4D17,
      /*removes_per_compact=*/0, traced ? spans_.get() : nullptr);
  mutator_->Run(
      Clock::now() + Seconds(PhaseSeconds(kIngestShare) / kSetupReps),
      nullptr);
  mutations_.Merge(mutator_->stats);
}

void Bench::DirectQueries() {
  core::EmbeddingSearcher::SearchResult res;
  const size_t n = direct_queries_.size() / kDirectBursts;
  for (size_t i = 0; i < n && direct_next_ < direct_queries_.size(); ++i) {
    const double cpu0 = ThreadCpuMs();
    sys_.searcher->SearchInto(
        direct_queries_[direct_next_++],
        core::SearchOptions{.k = kK, .collect_stats = false}, &res);
    query_cpu_ms_.Add(ThreadCpuMs() - cpu0);
  }
}

void Bench::ReopenCheck() {
  const size_t live_before = sys_.searcher->live_size();
  sys_.searcher.reset();
  sys_.searcher =
      std::make_unique<core::EmbeddingSearcher>(sys_.enc.get(), SearcherCfg());
  const Status st = sys_.searcher->OpenLive(sys_.live_dir);
  AddGate("reopen_ok", st.ok(), st.ToString());
  if (!st.ok()) return;
  const size_t live_after = sys_.searcher->live_size();
  AddGate("reopen_live_size", live_after == live_before,
          std::to_string(live_before) + " before close, " +
              std::to_string(live_after) + " after OpenLive");
  const auto ids = DirectIds(check_.queries);
  size_t differ = 0;
  for (size_t i = 0; i < ids.size(); ++i) differ += ids[i] != check_direct_[i];
  AddGate("reopen_same_results", differ == 0,
          std::to_string(differ) + " of " + std::to_string(ids.size()) +
              " results differ after OpenLive");
}

void Bench::TraceRequests() {
  // Request spans from the load generator's own timestamps (Submit to the
  // done callback) with queue and exec children from the Request fields;
  // the encode spans link to them through their query column.
  u64 req = 0;
  for (Phase* ph : AllPhases()) {
    ph->first_req = req + 1;
    for (size_t i = 0; i < ph->submitted; ++i) {
      const Call& c = ph->calls[i];
      ++req;
      if (!c.submit_status.ok()) continue;
      auto at = [&](double ms) {
        return c.sent + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(ms));
      };
      const Span r{.id = spans_->NextId(), .req = req,
                   .name = "serve.request", .start = c.sent, .end = c.done};
      const Span q{.id = spans_->NextId(), .parent = r.id, .req = req,
                   .name = "serve.queue", .start = c.sent,
                   .end = at(c.req.queue_ms)};
      const Span e{.id = spans_->NextId(), .parent = r.id, .req = req,
                   .name = "serve.exec", .start = q.end,
                   .end = at(c.req.queue_ms + c.req.exec_ms)};
      spans_->Add({r, q, e});
      spans_->Link(c.req.query, e.id, req);
    }
  }
  spans_->Resolve();
  if (!a_.spans_path.empty() && !spans_->Write(a_.spans_path)) {
    std::fprintf(stderr, "e2e_bench: cannot write %s\n",
                 a_.spans_path.c_str());
  }
}

std::string Bench::Attribution() {
  // Per served request: total = queue + encode + ANN remainder (exec
  // minus its own encode: the index search, batch-mates' encodes, the
  // harvest) + unattributed (completion and callback, total - queue -
  // exec).
  std::unordered_map<u64, double> encode_ms;
  for (const Span& s : spans_->spans()) {
    if (s.req != 0 && std::strcmp(s.name, "encoder.encode") == 0) {
      encode_ms[s.req] = MsBetween(s.start, s.end);
    }
  }
  Json out;
  for (const std::vector<Phase>* kind : {&low_, &high_, &sat_}) {
    Samples total, queue, encode, ann, unattributed;
    for (const Phase& ph : *kind) {
      for (size_t i = 0; i < ph.submitted; ++i) {
        const Call& c = ph.calls[i];
        const auto it = encode_ms.find(ph.first_req + i);
        if (!c.req.status.ok() || it == encode_ms.end()) continue;
        const double t = MsBetween(c.sent, c.done);
        total.Add(t);
        queue.Add(c.req.queue_ms);
        encode.Add(it->second);
        ann.Add(c.req.exec_ms - it->second);
        unattributed.Add(t - c.req.queue_ms - c.req.exec_ms);
      }
    }
    out.Raw(kind->front().name, Json()
                          .Int("n", total.n())
                          .Num("total_ms", total.Mean())
                          .Num("queue_ms", queue.Mean())
                          .Num("encode_ms", encode.Mean())
                          .Num("ann_remainder_ms", ann.Mean())
                          .Num("unattributed_ms", unattributed.Mean())
                          .str());
  }
  return out.str();
}

std::string Bench::LayerMetrics() {
  // Encoder and serve layers are read on the low phase: the uncontended
  // per-call cost behind low.p50_ms.
  auto in_low = [&](u64 req) {
    for (const Phase& ph : low_) {
      if (req >= ph.first_req && req < ph.first_req + ph.submitted) {
        return true;
      }
    }
    return false;
  };
  Samples forward, tokenize, encode, tokens, unattributed, queue, exec, late;
  for (const Span& s : spans_->spans()) {
    if (!in_low(s.req)) continue;
    const double ms = MsBetween(s.start, s.end);
    if (std::strcmp(s.name, "nn.forward") == 0) {
      forward.Add(ms);
    } else if (std::strcmp(s.name, "encoder.tokenize") == 0) {
      tokenize.Add(ms);
      tokens.Add(static_cast<double>(s.count));
    } else if (std::strcmp(s.name, "encoder.encode") == 0) {
      encode.Add(ms);
    }
  }
  for (const Phase& ph : low_) {
    queue.Append(ph.queue_ms);
    exec.Append(ph.exec_ms);
    late.Append(ph.late_ms);
    for (size_t i = 0; i < ph.submitted; ++i) {
      const Call& c = ph.calls[i];
      if (c.req.status.ok()) {
        unattributed.Add(MsBetween(c.sent, c.done) - c.req.queue_ms -
                         c.req.exec_ms);
      }
    }
  }
  for (const Phase& ph : high_) late.Append(ph.late_ms);
  MetricSet m;
  m.Pct("nn.forward_ms.p50", "ms", forward, 0.5);
  m.Pct("nn.forward_ms.p99", "ms", forward, 0.99);
  m.Pct("encoder.tokenize_ms.p50", "ms", tokenize, 0.5);
  m.Mean("encoder.tokens_per_col.mean", "count", tokens);
  m.Pct("encoder.encode_ms.p50", "ms", encode, 0.5);
  m.Pct("encoder.encode_ms.p99", "ms", encode, 0.99);
  m.Pct("ann.search_ms.p50", "ms", ann_search_ms_, 0.5);
  m.Pct("ann.search_ms.p99", "ms", ann_search_ms_, 0.99);
  m.Mean("ann.dist_evals.mean", "count", ann_dist_evals_);
  m.Pct("ann.scan_step_ms.p50", "ms", scan_step_ms_, 0.5);
  m.Mean("ann.riders_per_step.mean", "count", riders_per_step_);
  m.Pct("ann.scan_wrap_ms.p50", "ms", scan_wrap_ms_, 0.5);
  m.Pct("serve.queue_ms.p50", "ms", queue, 0.5);
  m.Pct("serve.queue_ms.p99", "ms", queue, 0.99);
  m.Pct("serve.exec_ms.p50", "ms", exec, 0.5);
  m.Pct("serve.exec_ms.p99", "ms", exec, 0.99);
  m.Mean("serve.unattributed_ms.mean", "ms", unattributed);
  m.Value("serve.batch_size.mean", "count", batch_mean_, 1);
  m.Value("searcher.build_encode_s", "s", Median(build_encode_s_),
          build_encode_s_.size());
  m.Value("searcher.build_index_s", "s", Median(build_index_s_),
          build_index_s_.size());
  const MutationStats& mu = mutations_;
  m.Pct("searcher.add_index_ms.p50", "ms", mu.add_index_ms, 0.5);
  m.Pct("searcher.remove_ms.p99", "ms", mu.remove_ms, 0.99);
  m.Mean("searcher.compact_ms", "ms", mu.compact_ms);
  m.Value("searcher.compactions", "count", static_cast<double>(mu.compactions),
          1);
  const size_t mutations = mu.adds + mu.removes;
  m.Value("wal.syncs_per_mutation", "count",
          mutations ? static_cast<double>(mu.wal_syncs) / mutations : 0.0,
          mutations);
  m.Pct("loadgen.late_ms.p99", "ms", late, 0.99);
  return m.str();
}

std::string Bench::E2eMetrics() {
  MetricSet m;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  m.Value("setup_s", "s", Median(setup_s_), setup_s_.size());
  m.Value("peak_rss_mb", "MB", static_cast<double>(ru.ru_maxrss) / 1024, 1);
  BestRoundPct(&m, "low.p50_ms", low_, 0.5);
  BestRoundPct(&m, "low.p90_ms", low_, 0.9);
  BestRoundPct(&m, "high.p50_ms", high_, 0.5);
  BestRoundPct(&m, "high.p90_ms", high_, 0.9);
  std::vector<double> qps;
  size_t ok = 0;
  for (const Phase& ph : sat_) {
    qps.push_back(ph.ok_in_window / ph.window_s());
    ok += ph.ok_in_window;
  }
  m.Value("saturation_qps", "1/s", Median(qps), ok);
  m.Value("recall_at_10", "ratio", recall_, check_.queries.size());
  m.Value("build_cols_per_s", "1/s", repo_.size() / Median(build_s_),
          build_s_.size());
  const MutationStats& mu = mutations_;
  m.Value("mutations_per_s", "1/s", (mu.adds + mu.removes) / mu.active_s,
          mu.adds + mu.removes);
  m.Pct("add.p50_ms", "ms", mu.add_ms, 0.5);
  m.Pct("add.p99_ms", "ms", mu.add_ms, 0.99);
  // CPU costs (see ThreadCpuMs and Samples::LowQuartileOfRunMedians). Each
  // direct-query burst is one run.
  m.Opt("query_cpu_ms", "ms",
        query_cpu_ms_.LowQuartileOfRunMedians(direct_queries_.size() /
                                              kDirectBursts),
        query_cpu_ms_.n());
  m.Opt("add_cpu_ms", "ms",
        mu.add_cpu_ms.LowQuartileOfRunMedians(kAddsPerRun),
        mu.add_cpu_ms.n());
  return m.str();
}

int Bench::Run() {
  Log("generating inputs");
  MakeInputs();
  const int reps = a_.smoke ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    const bool last = rep + 1 == reps;
    sys_.Reset();  // the previous repetition's system goes first
    core::BuildStats stats;
    double build_s = 0;
    sys_ = SetupOnce(rep, a_.trace && last, &build_s, &stats);
    build_s_.push_back(build_s);
    build_encode_s_.push_back(stats.trace.SpanMs("searcher.build_encode") /
                              1000);
    build_index_s_.push_back(stats.trace.SpanMs("searcher.build_index") /
                             1000);
    std::fprintf(stderr, "e2e_bench[%s]: setup %d: %.3f s (build %.3f s)\n",
                 w_.name, rep, setup_s_.back(), build_s);
    if (!last) {
      if (!w_.live) {
        IngestBurst(/*traced=*/false);
        mutator_.reset();  // its searcher goes with this setup
      }
      sys_.Reset();
      if (w_.live) std::filesystem::remove_all(sys_.live_dir);
    }
  }

  if (w_.live) {
    std::vector<u32> live;
    for (u32 i = 0; i < repo_.size(); ++i) live.push_back(i);
    mutator_ = std::make_unique<Mutator>(sys_.searcher.get(), &add_pool_,
                                         std::move(live), a_.seed ^ 0x4D17,
                                         a_.smoke ? 50 : 500, spans_.get());
  }
  {
    std::unique_ptr<ThreadPool> pool;
    if (w_.encode_threads > 0) {
      pool = std::make_unique<ThreadPool>(w_.encode_threads);
    }
    serve::QueryServiceConfig qc;
    qc.batcher.max_batch = kMaxBatch;
    qc.batcher.max_wait_ms = kMaxWaitMs;
    qc.encode_pool = pool.get();
    serve::QueryService service(sys_.searcher.get(), qc);
    service.Start();
    RunPhases(&service);
    ServedChecks();
    service.Stop();
  }
  if (w_.live) CheckNoRemovedServed();
  if (a_.trace) {
    Log("probing ann layer");
    ProbeAnn();
  }
  if (w_.live) {
    Log("reopen check");
    ReopenCheck();
  } else {
    Log("ingest");
    IngestBurst(a_.trace);
    Recall(MakeReference(mutator_->live()), DirectIds(check_.queries),
           "after_ingest");
  }
  if (w_.live) mutations_ = mutator_->stats;

  Json report;
  report.Str("workload", w_.name)
      .Int("seed", a_.seed)
      .Num("seconds", a_.seconds)
      .Bool("trace", a_.trace)
      .Bool("smoke", a_.smoke)
      .Str("kernel_tier", kern::TierName(kern::ActiveTier()))
      .Raw("config", Json()
                         .Int("lake_columns", repo_.size())
                         .Str("encoder", w_.plm ? "MPNetSim" : "fastText")
                         .Int("dim", static_cast<u64>(dim_))
                         .Str("index", w_.flat ? "flat" : "hnsw")
                         .Bool("live", w_.live)
                         .Num("low_qps", w_.low_qps)
                         .Num("high_qps", w_.high_qps)
                         .Int("saturation_outstanding", kSaturationOutstanding)
                         .Int("max_batch", kMaxBatch)
                         .Num("max_wait_ms", kMaxWaitMs)
                         .Int("encode_threads", w_.encode_threads)
                         .Int("build_threads", kBuildThreads)
                         .Int("setup_reps", static_cast<u64>(reps))
                         .Num("lake_gen_s", lake_gen_s_)
                         .str());
  std::string phases = "[";
  size_t attempted = 0, failed = 0;
  for (const Phase* ph : AllPhases()) {
    if (phases.size() > 1) phases += ", ";
    phases += ph->ToJson();
    attempted += ph->attempted;
    failed += ph->failed();
  }
  phases += "]";
  attempted += mutations_.attempted;
  failed += mutations_.failed;
  report.Raw("phases", phases)
      .Raw("mutations",
           Json()
               .Str("name", w_.live ? "churn" : "ingest")
               .Raw("stats", mutations_.ToJson())
               .str());
  std::string gates = "[";
  bool correct = true;
  for (const Gate& g : gates_) {
    if (gates.size() > 1) gates += ", ";
    gates += Json().Str("name", g.name).Bool("ok", g.ok).Str("detail", g.detail)
                 .str();
    correct = correct && g.ok;
  }
  gates += "]";
  report.Raw("gates", gates)
      .Bool("correct", correct)
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Raw("e2e", E2eMetrics());
  if (a_.trace) {
    TraceRequests();
    report.Raw("layers", LayerMetrics()).Raw("attribution", Attribution());
    Json self;
    for (const SelfTime& st : spans_->SelfTimes()) {
      self.Raw(st.name, Json()
                            .Int("n", st.self_ms.n())
                            .Num("self_ms_mean", st.self_ms.Mean())
                            .Num("total_ms_mean", st.total_ms.Mean())
                            .str());
    }
    report.Raw("self_times", self.str());
  }
  std::printf("%s\n", report.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  Flags flags;
  if (!flags.Parse(argc, argv)) return 2;
  Args a;
  const std::string name = flags.GetString("workload", "");
  for (const Workload& w : kWorkloads) {
    if (name == w.name) a.workload = &w;
  }
  if (a.workload == nullptr) {
    std::fprintf(stderr, "e2e_bench: unknown --workload '%s'\n", name.c_str());
    return 2;
  }
  a.seed = static_cast<u64>(flags.GetInt("seed", 1));
  a.seconds = flags.GetDouble("seconds", 20);
  a.trace = flags.GetInt("trace", 0) != 0;
  a.smoke = flags.GetBool("smoke", false);
  a.work_dir = flags.GetString("work-dir", ".");
  a.spans_path = flags.GetString("spans", "");
  if (a.seconds <= 0) {
    std::fprintf(stderr, "e2e_bench: --seconds must be positive\n");
    return 2;
  }
  Bench bench(a);
  return bench.Run();
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
