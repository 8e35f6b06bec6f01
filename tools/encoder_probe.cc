// encoder_probe: deterministic PLM-encoder output dump, for diffing the
// kernel dispatch tiers. Builds both encoder kinds (DistilSim, MPNetSim)
// over a fixed synthetic lake, encodes a fixed set of columns through the
// inference fast path, and prints every embedding value as a C99 hex float
// (%a — exact, round-trippable).
//
// The probe pins the FP32 contract: it runs with the detected tier forced,
// which keeps the workspace forward off the AMX-BF16 linear. ctest runs it
// once per kernel tier (the second run under DJ_FORCE_SCALAR_KERNELS=1),
// and once on the active linear path, and compares (tests/CMakeLists.txt):
//   encoder_probe --out native.txt
//   encoder_probe --compare native.txt --tol 0
//   DJ_FORCE_SCALAR_KERNELS=1 encoder_probe --compare native.txt --tol 1e-4
//   encoder_probe --active-linear --compare native.txt
// Within one tier the dump is bit-stable (tol 0 compares exactly); across
// tiers low-order bits differ by design (util/kernels.h), so the
// cross-tier diff takes a tolerance. --active-linear runs the linear path
// production runs (kern::LinearPathName) and compares at the bf16
// contract's bounds (kern::kBf16EmbeddingAbsTol per value, cosine at least
// kern::kBf16EmbeddingMinCosine per embedding); where that path is FP32
// the values match exactly.
//
// Exit code: 0 on success/match, 1 on mismatch, 2 on usage or I/O error.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/encoders.h"
#include "lake/generator.h"
#include "util/kernels.h"

namespace deepjoin {
namespace {

constexpr int kNumColumns = 24;
constexpr u64 kLakeSeed = 606;

struct ProbeValue {
  std::string key;  // "<kind>/<column>/<dim_index>"
  float value = 0.0f;
};

std::vector<ProbeValue> RunProbe() {
  lake::LakeGenerator gen(lake::LakeConfig::Webtable(kLakeSeed));
  const std::vector<lake::Column> sample = gen.GenerateQueries(60, 0x11);
  FastTextConfig fc;
  fc.dim = 16;
  const FastTextEmbedder embedder(fc);

  std::vector<ProbeValue> out;
  for (core::PlmKind kind :
       {core::PlmKind::kDistilSim, core::PlmKind::kMPNetSim}) {
    core::PlmEncoderConfig cfg;
    cfg.kind = kind;
    core::PlmColumnEncoder enc(cfg, sample, embedder);
    const char* kind_name =
        kind == core::PlmKind::kDistilSim ? "distil" : "mpnet";
    std::vector<float> v(static_cast<size_t>(enc.dim()));
    for (int c = 0; c < kNumColumns; ++c) {
      enc.EncodeInto(sample[static_cast<size_t>(c)], v.data());
      for (int d = 0; d < enc.dim(); ++d) {
        std::ostringstream key;
        key << kind_name << "/" << c << "/" << d;
        out.push_back({key.str(), v[static_cast<size_t>(d)]});
      }
    }
  }
  return out;
}

void Dump(const std::vector<ProbeValue>& values, std::ostream& os) {
  os << "# encoder_probe tier=" << kern::TierName(kern::ActiveTier()) << "\n";
  char buf[64];
  for (const auto& pv : values) {
    std::snprintf(buf, sizeof(buf), "%a", static_cast<double>(pv.value));
    os << pv.key << " " << buf << "\n";
  }
}

/// The embedding a key belongs to: "<kind>/<column>".
std::string EmbeddingOf(const std::string& key) {
  return key.substr(0, key.rfind('/'));
}

int Compare(const std::vector<ProbeValue>& values, const std::string& path,
            double tol, double min_cosine) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "encoder_probe: cannot open " << path << "\n";
    return 2;
  }
  size_t idx = 0, mismatches = 0, cosine_fails = 0;
  double max_diff = 0.0, worst_cosine = 1.0;
  // Running dot product and norms of the current embedding.
  double dot = 0.0, nref = 0.0, ngot = 0.0;
  std::string embedding;
  auto close_embedding = [&] {
    if (embedding.empty() || min_cosine <= 0.0) return;
    const double cosine = dot / std::sqrt(nref * ngot);
    worst_cosine = std::min(worst_cosine, cosine);
    if (!(cosine >= min_cosine) && ++cosine_fails <= 10) {
      std::cerr << "encoder_probe: " << embedding << ": cosine " << cosine
                << " < " << min_cosine << "\n";
    }
  };
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.find(' ');
    if (space == std::string::npos) {
      std::cerr << "encoder_probe: malformed line: " << line << "\n";
      return 2;
    }
    if (idx >= values.size()) {
      std::cerr << "encoder_probe: reference has more values than probe\n";
      return 1;
    }
    const std::string key = line.substr(0, space);
    const float ref = std::strtof(line.c_str() + space + 1, nullptr);
    const ProbeValue& got = values[idx++];
    if (key != got.key) {
      std::cerr << "encoder_probe: key mismatch at #" << idx << ": probe `"
                << got.key << "` vs reference `" << key << "`\n";
      return 1;
    }
    if (EmbeddingOf(key) != embedding) {
      close_embedding();
      embedding = EmbeddingOf(key);
      dot = nref = ngot = 0.0;
    }
    dot += static_cast<double>(ref) * got.value;
    nref += static_cast<double>(ref) * ref;
    ngot += static_cast<double>(got.value) * got.value;
    max_diff =
        std::max(max_diff, std::abs(static_cast<double>(ref) - got.value));
    const bool ok = (tol == 0.0)
                        ? std::memcmp(&ref, &got.value, sizeof(float)) == 0
                        : std::abs(static_cast<double>(ref) - got.value) <= tol;
    if (!ok && ++mismatches <= 10) {
      std::cerr << "encoder_probe: " << key << ": probe " << got.value
                << " vs reference " << ref << "\n";
    }
  }
  close_embedding();
  if (idx != values.size()) {
    std::cerr << "encoder_probe: reference has fewer values (" << idx
              << ") than probe (" << values.size() << ")\n";
    return 1;
  }
  if (mismatches > 0) {
    std::cerr << "encoder_probe: " << mismatches << " of " << values.size()
              << " values differ beyond tol=" << tol << "\n";
  }
  if (cosine_fails > 0) {
    std::cerr << "encoder_probe: " << cosine_fails
              << " embeddings below cosine " << min_cosine << "\n";
  }
  if (mismatches > 0 || cosine_fails > 0) return 1;
  std::cout << "encoder_probe: " << values.size() << " values match (tol="
            << tol << ", tier=" << kern::TierName(kern::ActiveTier())
            << ", linear=" << kern::LinearPathName()
            << ", max |diff|=" << max_diff;
  if (min_cosine > 0.0) {
    std::cout << ", min cosine=" << std::setprecision(10) << worst_cosine;
  }
  std::cout << ")\n";
  return 0;
}

}  // namespace
}  // namespace deepjoin

int main(int argc, char** argv) {
  std::string out_path, compare_path;
  double tol = -1.0;
  bool active_linear = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--active-linear") {
      active_linear = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--compare" && i + 1 < argc) {
      compare_path = argv[++i];
    } else if (arg == "--tol" && i + 1 < argc) {
      tol = std::strtod(argv[++i], nullptr);
    } else {
      std::cerr << "usage: encoder_probe [--active-linear] [--out FILE] "
                   "[--compare FILE [--tol X]]\n";
      return 2;
    }
  }

  namespace kern = deepjoin::kern;
  // Forcing the detected tier changes no kernel; it only keeps the
  // forward's linears on the FP32 contract.
  if (!active_linear) kern::ForceTierForTest(kern::DetectedTier());
  const auto values = deepjoin::RunProbe();
  if (!compare_path.empty()) {
    if (tol < 0.0) tol = active_linear ? kern::kBf16EmbeddingAbsTol : 0.0;
    return deepjoin::Compare(
        values, compare_path, tol,
        active_linear ? kern::kBf16EmbeddingMinCosine : 0.0);
  }
  if (!out_path.empty()) {
    std::ofstream os(out_path);
    if (!os) {
      std::cerr << "encoder_probe: cannot write " << out_path << "\n";
      return 2;
    }
    deepjoin::Dump(values, os);
    std::cout << "encoder_probe: wrote " << values.size() << " values to "
              << out_path << " (tier=" << kern::TierName(kern::ActiveTier())
              << ", linear=" << kern::LinearPathName() << ")\n";
    return 0;
  }
  deepjoin::Dump(values, std::cout);
  return 0;
}
