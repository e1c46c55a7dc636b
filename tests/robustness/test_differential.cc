// Differential suite: the UDP-program decoders (state machines on the
// lane simulator) must produce byte-for-byte the same output as the host
// codecs on the same compressed blocks. Covers > 100 random 8 KB blocks
// across pipeline configs and matrix families (acceptance criterion).
#include <gtest/gtest.h>

#include <cstring>

#include "codec/huffman.h"
#include "codec/pipeline.h"
#include "codec/registry.h"
#include "common/prng.h"
#include "sparse/generators.h"
#include "udpprog/block_decoder.h"

namespace recode::testing {
namespace {

using codec::CompressedMatrix;
using codec::PipelineConfig;
using sparse::Csr;
using sparse::ValueModel;

// Decodes every block of cm on both paths and compares bitwise. Returns
// the number of blocks compared.
std::size_t diff_blocks(const CompressedMatrix& cm) {
  udpprog::UdpPipelineDecoder udp(cm);
  std::vector<sparse::index_t> host_indices;
  std::vector<double> host_values;
  for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
    codec::decompress_block(cm, b, host_indices, host_values);
    const udpprog::BlockResult result = udp.decode_block(b);
    EXPECT_EQ(result.indices.size(), host_indices.size()) << "block " << b;
    EXPECT_EQ(result.values.size(), host_values.size()) << "block " << b;
    // Bitwise, not value, comparison: the UDP path must reproduce the
    // exact bytes the host codec emits (doubles compared as memory).
    EXPECT_EQ(0, std::memcmp(result.indices.data(), host_indices.data(),
                             host_indices.size() * sizeof(sparse::index_t)))
        << "index stream differs in block " << b;
    EXPECT_EQ(0, std::memcmp(result.values.data(), host_values.data(),
                             host_values.size() * sizeof(double)))
        << "value stream differs in block " << b;
  }
  return cm.blocks.size();
}

std::size_t diff_blocks(const Csr& csr, const PipelineConfig& cfg) {
  return diff_blocks(codec::compress(csr, cfg));
}

// cm with every Huffman block's payloads rewritten in the 1-lane layout
// under the implied id — what a v1/v2 file holds.
CompressedMatrix as_one_lane(CompressedMatrix cm) {
  const codec::HuffmanCodec idx4(cm.index_table, true), val4(cm.value_table, true);
  const codec::HuffmanCodec idx1(cm.index_table), val1(cm.value_table);
  for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
    codec::BlockCodec bc = codec::codec_from_id(cm.block_codecs[b]);
    if (!bc.interleaved) continue;
    cm.blocks[b].index_data = idx1.encode(idx4.decode(cm.blocks[b].index_data));
    cm.blocks[b].value_data = val1.encode(val4.decode(cm.blocks[b].value_data));
    bc.interleaved = false;
    cm.block_codecs[b] = codec::codec_id(bc);
  }
  return cm;
}

TEST(Differential, UdpMatchesHostOnHundredBlocks) {
  const std::uint64_t seed = test_seed(401);
  // Default configs use 1024 nnz/block = 8 KB value blocks. Four
  // matrices x ~30-40 blocks comfortably exceeds the 100-block bar while
  // covering all three UDP pipeline configs and distinct structures.
  std::size_t blocks = 0;
  blocks += diff_blocks(
      sparse::gen_fem_like(4000, 9, 96, ValueModel::kSmoothField, seed),
      PipelineConfig::udp_dsh());
  blocks += diff_blocks(
      sparse::gen_banded(6000, 5, 0.85, ValueModel::kFewDistinct, seed + 1),
      PipelineConfig::udp_ds());
  blocks += diff_blocks(
      sparse::gen_powerlaw(5000, 7.0, 0.9, ValueModel::kRandom, seed + 2),
      PipelineConfig::udp_vsh());
  blocks += diff_blocks(
      sparse::gen_stencil2d(100, 120, ValueModel::kStencilCoeffs, seed + 3),
      PipelineConfig::udp_dsh());
  EXPECT_GE(blocks, 100u);
}

// Both Huffman layouts through both engines: compress() writes every
// Huffman block interleaved (the UDP runs its program once per
// sub-stream), and the same blocks re-encoded in the 1-lane layout
// decode through the in-program varint path. Adaptive selection mixes
// Huffman and non-Huffman ids in one matrix.
TEST(Differential, UdpMatchesHostOnBothHuffmanLayouts) {
  const std::uint64_t seed = test_seed(403);
  const Csr csr =
      sparse::gen_fem_like(2500, 9, 80, ValueModel::kSmoothField, seed);
  for (const PipelineConfig& cfg :
       {PipelineConfig::udp_dsh(), PipelineConfig::udp_adaptive()}) {
    const CompressedMatrix cm = codec::compress(csr, cfg);
    std::size_t interleaved = 0;
    for (const codec::CodecId id : cm.block_codecs) {
      const codec::BlockCodec bc = codec::codec_from_id(id);
      EXPECT_EQ(bc.huffman, bc.interleaved);
      interleaved += bc.interleaved ? 1 : 0;
    }
    EXPECT_GT(interleaved, 0u);
    EXPECT_GT(diff_blocks(cm), 10u);
    diff_blocks(as_one_lane(cm));
  }
}

TEST(Differential, UdpMatchesHostOnRandomStructures) {
  const std::uint64_t seed = test_seed(402);
  Prng prng(seed);
  for (int trial = 0; trial < 3; ++trial) {
    const Csr csr = sparse::gen_random(
        800, 800, 8000 + prng.next_below(8000),
        static_cast<ValueModel>(prng.next_below(5)), seed + 10 + trial);
    diff_blocks(csr, PipelineConfig::udp_dsh());
  }
}

}  // namespace
}  // namespace recode::testing
