// Compressed-domain SpGEMM battery (ISSUE 10): the Gustavson kernel over
// decoded A-block streams must (a) match a reference dense-accumulator
// multiply bit for bit on a 20+ matrix generator sweep, (b) stay bitwise
// identical serial vs parallel across {1, 2, 7} threads × all three
// container backends × merge-threshold settings (forcing all-merge,
// all-dense, and the BlockStats hybrid through the same rows), and
// (c) round-trip through spgemm_to_container byte-identically to the
// in-memory compress path. Runs under the tsan preset via the
// `concurrency` label.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "codec/container.h"
#include "codec/container_source.h"
#include "codec/pipeline.h"
#include "common/error.h"
#include "common/prng.h"
#include "sparse/generators.h"
#include "spmv/recoded.h"
#include "spmv/spgemm.h"

namespace recode::spmv {
namespace {

using codec::OpenedContainer;
using codec::PipelineConfig;
using codec::SourceKind;
using sparse::Csr;
using sparse::ValueModel;

constexpr SourceKind kAllKinds[] = {SourceKind::kResident, SourceKind::kMmap,
                                    SourceKind::kStreamed};

// Reference C = A * B: plain Gustavson with a dense accumulator, products
// scatter-added in A-row entry order, touched columns emitted sorted.
// This is the FP sequence both kernel strategies must reproduce exactly.
Csr spgemm_reference(const Csr& a, const Csr& b) {
  RECODE_CHECK(a.cols == b.rows);
  Csr c;
  c.rows = a.rows;
  c.cols = b.cols;
  c.row_ptr.assign(static_cast<std::size_t>(a.rows) + 1, 0);
  std::vector<double> acc(static_cast<std::size_t>(b.cols), 0.0);
  std::vector<std::uint32_t> stamp(static_cast<std::size_t>(b.cols), 0);
  std::vector<sparse::index_t> touched;
  std::uint32_t cur = 0;
  for (sparse::index_t i = 0; i < a.rows; ++i) {
    ++cur;
    touched.clear();
    for (auto k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      const auto col = static_cast<std::size_t>(a.col_idx[k]);
      const double av = a.val[k];
      for (auto j = b.row_ptr[col]; j < b.row_ptr[col + 1]; ++j) {
        const auto cj = static_cast<std::size_t>(b.col_idx[j]);
        const double prod = av * b.val[j];
        if (stamp[cj] != cur) {
          stamp[cj] = cur;
          acc[cj] = prod;
          touched.push_back(b.col_idx[j]);
        } else {
          acc[cj] += prod;
        }
      }
    }
    std::sort(touched.begin(), touched.end());
    for (const sparse::index_t cj : touched) {
      c.col_idx.push_back(cj);
      c.val.push_back(acc[static_cast<std::size_t>(cj)]);
    }
    c.row_ptr[static_cast<std::size_t>(i) + 1] =
        static_cast<sparse::offset_t>(c.col_idx.size());
  }
  return c;
}

void expect_bitwise_equal(const Csr& got, const Csr& want, const char* tag) {
  ASSERT_EQ(got.rows, want.rows) << tag;
  ASSERT_EQ(got.cols, want.cols) << tag;
  ASSERT_EQ(got.row_ptr, want.row_ptr) << tag;
  ASSERT_EQ(got.col_idx, want.col_idx) << tag;
  ASSERT_EQ(got.val.size(), want.val.size()) << tag;
  if (!got.val.empty()) {
    EXPECT_EQ(std::memcmp(got.val.data(), want.val.data(),
                          got.val.size() * sizeof(double)),
              0)
        << tag;
  }
}

// Generator sweep: 20+ matrices spanning every structure class the repo
// models, paired with a compatible B (square matrices self-multiply;
// random ones multiply a second generator draw).
std::vector<std::pair<Csr, Csr>> sweep_pairs(std::uint64_t seed) {
  std::vector<std::pair<Csr, Csr>> pairs;
  auto self = [&pairs](Csr m) {
    Csr b = m;
    pairs.emplace_back(std::move(m), std::move(b));
  };
  int s = 0;
  for (const ValueModel vm :
       {ValueModel::kStencilCoeffs, ValueModel::kRandom, ValueModel::kUnit}) {
    self(sparse::gen_stencil2d(40 + 3 * s, 35, vm, seed + s));
    self(sparse::gen_banded(1200 + 100 * s, 6, 0.6, vm, seed + 10 + s));
    self(sparse::gen_fem_like(900 + 50 * s, 7, 120, vm, seed + 20 + s));
    self(sparse::gen_powerlaw(1000 + 100 * s, 6.0, 0.8, vm, seed + 30 + s));
    ++s;
  }
  // Rectangular chains: A (n x m) * B (m x k) from transposed draws.
  for (int i = 0; i < 8; ++i) {
    Csr a = sparse::gen_powerlaw(600 + 40 * i, 5.0, 0.7 + 0.05 * i,
                                 ValueModel::kRandom, seed + 100 + i);
    Csr b = sparse::transpose(
        sparse::gen_fem_like(a.cols, 6, 90, ValueModel::kSmoothField,
                             seed + 200 + i));
    // transpose(fem) has fem.rows == a.cols rows, as required.
    pairs.emplace_back(std::move(a), std::move(b));
  }
  return pairs;
}

TEST(Spgemm, MatchesDenseAccumulatorReferenceAcrossGeneratorSweep) {
  const std::uint64_t seed = test_seed(101);
  const auto pairs = sweep_pairs(seed);
  ASSERT_GE(pairs.size(), 20u);
  std::size_t idx = 0;
  for (const auto& [a, b] : pairs) {
    const Csr want = spgemm_reference(a, b);
    const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
    SpgemmStats stats;
    const Csr got = spgemm(cm, b, {}, &stats);
    expect_bitwise_equal(got, want,
                         ("sweep pair " + std::to_string(idx)).c_str());
    EXPECT_EQ(stats.a_blocks_decoded, cm.blocking.block_count());
    ++idx;
  }
}

TEST(Spgemm, HybridStrategyChoiceNeverChangesBits) {
  const std::uint64_t seed = test_seed(102);
  const Csr a = sparse::gen_powerlaw(3000, 8.0, 0.9, ValueModel::kRandom, seed);
  const Csr b = sparse::gen_powerlaw(3000, 8.0, 0.9, ValueModel::kRandom,
                                     seed + 1);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  const Csr want = spgemm_reference(a, b);

  // All-merge (threshold huge), all-dense (threshold 0), and the default
  // BlockStats hybrid must all reproduce the reference bits.
  for (const std::size_t threshold : {std::size_t{0}, std::size_t{48},
                                      std::size_t{1} << 30}) {
    SpgemmConfig cfg;
    cfg.merge_max_products = threshold;
    SpgemmStats stats;
    const Csr got = spgemm(cm, b, cfg, &stats);
    expect_bitwise_equal(got, want,
                         ("threshold " + std::to_string(threshold)).c_str());
    if (threshold == 0) {
      EXPECT_EQ(stats.rows_merge, 0u);
    }
    if (threshold == (std::size_t{1} << 30)) {
      EXPECT_EQ(stats.rows_dense, 0u);
    }
  }
}

TEST(Spgemm, BitwiseSerialVsParallelAcrossThreadsAndBackends) {
  const std::uint64_t seed = test_seed(103);
  const Csr a =
      sparse::gen_fem_like(9000, 9, 250, ValueModel::kSmoothField, seed);
  const Csr b = sparse::gen_powerlaw(9000, 6.0, 0.8, ValueModel::kRandom,
                                     seed + 1);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  const std::string path = "spgemm_diff.rcm";
  codec::write_compressed_file(path, cm, /*with_index=*/true);

  const Csr want = spgemm(cm, b);  // serial resident reference

  for (const SourceKind kind : kAllKinds) {
    for (const std::size_t threads : {1u, 2u, 7u}) {
      OpenedContainer oc = codec::open_container(path, kind);
      SpgemmConfig cfg;
      cfg.threads = threads;
      cfg.blocks_per_band = 4;
      SpgemmStats stats;
      const Csr got = spgemm(*oc.matrix, oc.source, b, cfg, &stats);
      const std::string tag = "kind=" + std::to_string(static_cast<int>(kind)) +
                              " threads=" + std::to_string(threads);
      expect_bitwise_equal(got, want, tag.c_str());
      EXPECT_GT(stats.tasks, 1u) << tag;
      if (threads > 1) {
        EXPECT_GT(stats.workers, 1u) << tag;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(Spgemm, ContainerOutputMatchesCompressOfResult) {
  const std::uint64_t seed = test_seed(104);
  const Csr a = sparse::gen_banded(4000, 8, 0.7, ValueModel::kFewDistinct,
                                   seed);
  const Csr b = sparse::gen_banded(4000, 8, 0.7, ValueModel::kFewDistinct,
                                   seed + 1);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  const Csr c = spgemm(cm, b);

  const PipelineConfig out_cfg = PipelineConfig::udp_dsh();
  const std::string path = "spgemm_out.rcm";
  SpgemmConfig cfg;
  cfg.threads = 2;
  const auto result = spgemm_to_container(path, cm, nullptr, b, out_cfg, cfg);
  EXPECT_GT(result.block_count, 0u);
  EXPECT_GT(result.file_bytes, result.payload_bytes);

  // Read back through every backend: the container's C must reproduce the
  // in-memory C. Resident decodes the whole matrix; the out-of-core kinds
  // (header-only cm) are checked through a bitwise SpMV — both sides add
  // products in stream order, so the bits must agree exactly.
  Prng prng(seed + 2);
  std::vector<double> x(static_cast<std::size_t>(c.cols));
  for (auto& v : x) v = prng.next_double() * 2.0 - 1.0;
  const auto y_want = sparse::spmv_reference(c, x);
  for (const SourceKind kind : kAllKinds) {
    OpenedContainer oc = codec::open_container(path, kind);
    ASSERT_EQ(oc.matrix->rows, c.rows);
    ASSERT_EQ(oc.matrix->cols, c.cols);
    if (kind == SourceKind::kResident) {
      const Csr back = codec::decompress(*oc.matrix);
      expect_bitwise_equal(back, c, "container round-trip");
    }
    RecodedSpmv engine(*oc.matrix, oc.source);
    std::vector<double> y(y_want.size());
    engine.multiply(x, y);
    EXPECT_EQ(
        std::memcmp(y.data(), y_want.data(), y.size() * sizeof(double)), 0)
        << "kind " << static_cast<int>(kind);
  }
  std::remove(path.c_str());
}

// The worker count is checked at call entry, before any band or worker
// state exists: 4 * threads used to wrap to 0 here and divide by zero.
TEST(Spgemm, RejectsWorkerCountsPastTheLimit) {
  const std::uint64_t seed = test_seed(106);
  const Csr a = sparse::gen_banded(2000, 3, 0.8, ValueModel::kUnit, seed);
  const Csr b = sparse::gen_banded(2000, 3, 0.8, ValueModel::kUnit, seed + 1);
  const auto cm = codec::compress(a, PipelineConfig::udp_ds());
  SpgemmConfig cfg;
  cfg.blocks_per_band = 1;  // several bands, so the split path runs
  cfg.threads = SIZE_MAX / 4 + 1;
  EXPECT_THROW(spgemm(cm, b, cfg), recode::Error);
  cfg.threads = SIZE_MAX;
  EXPECT_THROW(spgemm(cm, b, cfg), recode::Error);
}

TEST(Spgemm, RejectsDimensionMismatch) {
  const std::uint64_t seed = test_seed(105);
  const Csr a = sparse::gen_banded(200, 3, 0.8, ValueModel::kUnit, seed);
  Csr b = sparse::gen_banded(199, 3, 0.8, ValueModel::kUnit, seed + 1);
  const auto cm = codec::compress(a, PipelineConfig::udp_ds());
  EXPECT_THROW(spgemm(cm, b), recode::Error);
}

}  // namespace
}  // namespace recode::spmv
