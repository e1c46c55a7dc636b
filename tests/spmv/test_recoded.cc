#include "spmv/recoded.h"

#include <gtest/gtest.h>

#include <cstring>

#include "common/error.h"
#include "common/prng.h"
#include "sparse/generators.h"
#include "spmv/kernels.h"

namespace recode::spmv {
namespace {

using codec::PipelineConfig;
using sparse::Csr;
using sparse::ValueModel;

constexpr DecodeEngine kEngines[] = {DecodeEngine::kSoftware,
                                     DecodeEngine::kUdpSimulated};

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  recode::Prng prng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = prng.next_double() * 2.0 - 1.0;
  return v;
}

// The one oracle: every recoded product is bitwise-equal to the serial
// CSR kernel (spmv_csr / spmm_csr) on the same input.
void expect_bitwise(const std::vector<double>& got,
                    const std::vector<double>& want, DecodeEngine engine) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           got.size() * sizeof(double)))
      << decode_engine_name(engine);
}

TEST(RecodedSpmv, SoftwareEngineMatchesPlainKernel) {
  const Csr a = sparse::gen_fem_like(3000, 10, 80, ValueModel::kSmoothField, 8);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  RecodedSpmv recoded(cm);
  const auto x = random_vector(static_cast<std::size_t>(a.cols), 2);
  std::vector<double> y_plain(static_cast<std::size_t>(a.rows));
  std::vector<double> y_recoded(y_plain.size());
  spmv_csr(a, x, y_plain);
  recoded.multiply(x, y_recoded);
  expect_bitwise(y_recoded, y_plain, DecodeEngine::kSoftware);
  EXPECT_EQ(recoded.blocks_decoded(), cm.blocks.size());
  EXPECT_EQ(recoded.compressed_bytes_streamed(),
            cm.stream_bytes() - 256);  // minus the two Huffman tables
}

TEST(RecodedSpmv, UdpSimulatedEngineMatchesPlainKernel) {
  const Csr a = sparse::gen_banded(2000, 8, 0.7, ValueModel::kFewDistinct, 9);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  RecodedSpmv recoded(cm, DecodeEngine::kUdpSimulated);
  const auto x = random_vector(static_cast<std::size_t>(a.cols), 3);
  std::vector<double> y_plain(static_cast<std::size_t>(a.rows));
  std::vector<double> y_recoded(y_plain.size());
  spmv_csr(a, x, y_plain);
  recoded.multiply(x, y_recoded);
  expect_bitwise(y_recoded, y_plain, DecodeEngine::kUdpSimulated);
  EXPECT_GT(recoded.udp_cycles(), 0u);
  EXPECT_EQ(recoded.compressed_bytes_streamed(), cm.stream_bytes() - 256);
}

TEST(RecodedSpmv, WorksAcrossPipelineConfigs) {
  const Csr a = sparse::gen_circuit(2500, 5, ValueModel::kRandom, 10);
  const auto x = random_vector(static_cast<std::size_t>(a.cols), 4);
  std::vector<double> y_plain(static_cast<std::size_t>(a.rows));
  spmv_csr(a, x, y_plain);
  for (const auto& cfg :
       {PipelineConfig::udp_dsh(), PipelineConfig::udp_ds(),
        PipelineConfig::cpu_snappy()}) {
    const auto cm = codec::compress(a, cfg);
    for (const DecodeEngine engine : kEngines) {
      RecodedSpmv recoded(cm, engine);
      std::vector<double> y(y_plain.size());
      recoded.multiply(x, y);
      expect_bitwise(y, y_plain, engine);
    }
  }
}

TEST(RecodedSpmv, RepeatedMultiplyAccumulatesStats) {
  const Csr a = sparse::gen_stencil2d(40, 40, ValueModel::kStencilCoeffs, 11);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  RecodedSpmv recoded(cm);
  const auto x = random_vector(static_cast<std::size_t>(a.cols), 5);
  std::vector<double> y(static_cast<std::size_t>(a.rows));
  recoded.multiply(x, y);
  recoded.multiply(x, y);
  EXPECT_EQ(recoded.blocks_decoded(), cm.blocks.size() * 2);
}

TEST(RecodedSpmv, MultiRhsMatchesIndependentMultiplies) {
  // SpMM mode is bitwise spmm_csr, and each of its columns is bitwise
  // the spmv_csr of that column — for both decode engines.
  const Csr a = sparse::gen_fem_like(2600, 9, 70, ValueModel::kSmoothField, 12);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  const auto rows = static_cast<std::size_t>(a.rows);
  const auto cols = static_cast<std::size_t>(a.cols);
  for (const DecodeEngine engine : kEngines) {
    for (const int k : {1, 4, 8}) {
      const auto ks = static_cast<std::size_t>(k);
      const auto x =
          random_vector(cols * ks, 31 + static_cast<std::uint64_t>(k));
      std::vector<double> y_batch(rows * ks);
      std::vector<double> y_spmm(rows * ks);
      RecodedSpmv batch(cm, engine);
      batch.multiply_batch(x, y_batch, k);
      EXPECT_EQ(batch.blocks_decoded(), cm.blocks.size());  // decoded once
      spmm_csr(a, x, y_spmm, k);
      expect_bitwise(y_batch, y_spmm, engine);

      for (int j = 0; j < k; ++j) {
        std::vector<double> xj(cols), yj(rows), yj_csr(rows), y_col(rows);
        for (std::size_t i = 0; i < cols; ++i) {
          xj[i] = x[i * ks + static_cast<std::size_t>(j)];
        }
        for (std::size_t r = 0; r < rows; ++r) {
          y_col[r] = y_batch[r * ks + static_cast<std::size_t>(j)];
        }
        RecodedSpmv single(cm, engine);
        single.multiply(xj, yj);
        spmv_csr(a, xj, yj_csr);
        expect_bitwise(yj, yj_csr, engine);
        expect_bitwise(y_col, yj_csr, engine);
      }
    }
  }
}

TEST(RecodedSpmv, MultiRhsDegenerateKOneIsBitwiseMultiply) {
  // k == 1 dispatches to the same accumulate kernel as multiply(): exact.
  const Csr a = sparse::gen_circuit(2000, 5, ValueModel::kRandom, 13);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  const auto x = random_vector(static_cast<std::size_t>(a.cols), 14);
  std::vector<double> y_multiply(static_cast<std::size_t>(a.rows));
  std::vector<double> y_batch(y_multiply.size());
  RecodedSpmv r1(cm), r2(cm);
  r1.multiply(x, y_multiply);
  r2.multiply_batch(x, y_batch, 1);
  EXPECT_EQ(0, std::memcmp(y_batch.data(), y_multiply.data(),
                           y_batch.size() * sizeof(double)));
}

TEST(RecodedSpmv, MultiRhsMatchesSpmmKernel) {
  // Cross-check the recoded SpMM against the plain-CSR spmm_csr kernel.
  const Csr a = sparse::gen_banded(1500, 9, 0.6, ValueModel::kSmoothField, 15);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  const int k = 4;
  const auto x = random_vector(
      static_cast<std::size_t>(a.cols) * static_cast<std::size_t>(k), 16);
  std::vector<double> y_plain(static_cast<std::size_t>(a.rows) *
                              static_cast<std::size_t>(k));
  spmm_csr(a, x, y_plain, k);
  for (const DecodeEngine engine : kEngines) {
    std::vector<double> y_recoded(y_plain.size());
    RecodedSpmv recoded(cm, engine);
    recoded.multiply_batch(x, y_recoded, k);
    expect_bitwise(y_recoded, y_plain, engine);
  }
}

TEST(RecodedSpmv, RejectsOutOfRangeDecodedIndices) {
  // check_block_indices: the consumer-side guard against corrupt streams
  // that decode to well-framed but out-of-range column indices.
  const std::vector<sparse::index_t> good = {0, 3, 7};
  EXPECT_NO_THROW(check_block_indices(good, 8));
  const std::vector<sparse::index_t> high = {0, 8};
  EXPECT_THROW(check_block_indices(high, 8), recode::Error);
  const std::vector<sparse::index_t> negative = {-1, 2};
  EXPECT_THROW(check_block_indices(negative, 8), recode::Error);
}

TEST(RecodedSpmv, RowsSpanningBlockBoundaries) {
  // A single dense row spanning many blocks stresses the row-advance walk.
  sparse::Coo coo;
  coo.rows = coo.cols = 6000;
  for (sparse::index_t c = 0; c < 6000; ++c) coo.add(3000, c, 1.0 + c % 7);
  coo.add(0, 0, 2.0);
  const Csr a = coo_to_csr(coo);
  const auto cm = codec::compress(a, PipelineConfig::udp_dsh());
  ASSERT_GT(cm.blocks.size(), 3u);
  const auto x = random_vector(6000, 6);
  std::vector<double> y_plain(6000);
  spmv_csr(a, x, y_plain);
  for (const DecodeEngine engine : kEngines) {
    RecodedSpmv recoded(cm, engine);
    std::vector<double> y(6000);
    recoded.multiply(x, y);
    expect_bitwise(y, y_plain, engine);
  }
}

}  // namespace
}  // namespace recode::spmv
