// Container v2/v3 compatibility + hostile-input battery.
//
// Three contracts pinned here:
//  1. v1 and v2 `.rcm` files keep loading bitwise after each layout
//     change — the checked-in goldens (tests/data/golden_v1_*.rcm, by
//     the pre-registry encoder; golden_v2_dsh.rcm, by the last 1-lane
//     Huffman encoder) must decode to the exact matrices (and the exact
//     SpMV results) the regenerated sources produce.
//  2. The per-block codec-id byte is validated through the registry
//     gate: unknown ids, reserved bits, and huffman-stage ids in a
//     tableless container throw recode::Error — from read_compressed
//     AND from each decode engine with the SAME message. Never abort.
//  3. CorruptionEngine sweeps over whole v2 containers (bit flips,
//     truncations, length tampering, splices) either parse+decode
//     cleanly or throw recode::Error. No other outcome.

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "codec/container.h"
#include "codec/pipeline.h"
#include "codec/registry.h"
#include "common/error.h"
#include "common/prng.h"
#include "sparse/generators.h"
#include "spmv/recoded.h"
#include "testing/corrupt.h"
#include "udpprog/block_decoder.h"

#ifndef RECODE_TEST_DATA_DIR
#define RECODE_TEST_DATA_DIR "tests/data"
#endif

namespace {

using recode::codec::CodecId;
using recode::codec::CompressedMatrix;
using recode::codec::PipelineConfig;
using recode::codec::Transform;
using recode::sparse::Csr;
using recode::sparse::ValueModel;

std::string golden_path(const std::string& name) {
  return std::string(RECODE_TEST_DATA_DIR) + "/" + name;
}

recode::codec::Bytes serialize(const CompressedMatrix& cm) {
  std::stringstream io;
  recode::codec::write_compressed(io, cm);
  const std::string s = io.str();
  return recode::codec::Bytes(s.begin(), s.end());
}

CompressedMatrix parse(const recode::codec::Bytes& bytes) {
  std::stringstream io(std::string(bytes.begin(), bytes.end()));
  return recode::codec::read_compressed(io);
}

void expect_same_matrix(const CompressedMatrix& cm, const Csr& want) {
  const Csr got = recode::codec::decompress(cm);
  ASSERT_EQ(got.row_ptr, want.row_ptr);
  ASSERT_EQ(got.col_idx.size(), want.col_idx.size());
  EXPECT_EQ(0, std::memcmp(got.col_idx.data(), want.col_idx.data(),
                           want.col_idx.size() * sizeof(want.col_idx[0])));
  EXPECT_EQ(0, std::memcmp(got.val.data(), want.val.data(),
                           want.val.size() * sizeof(double)));
}

// SpMV over the golden container vs SpMV over a fresh compression of the
// regenerated matrix: same blocking, same accumulation order, so the
// doubles must match bit for bit.
void expect_same_spmv(const CompressedMatrix& golden, const Csr& src,
                      const PipelineConfig& cfg) {
  const CompressedMatrix fresh = recode::codec::compress(src, cfg);
  recode::Prng prng(99);
  std::vector<double> x(static_cast<std::size_t>(src.cols));
  for (auto& v : x) v = prng.next_double() * 2.0 - 1.0;
  std::vector<double> y_golden(static_cast<std::size_t>(src.rows));
  std::vector<double> y_fresh(y_golden.size());
  recode::spmv::RecodedSpmv(golden).multiply(x, y_golden);
  recode::spmv::RecodedSpmv(fresh).multiply(x, y_fresh);
  EXPECT_EQ(0, std::memcmp(y_golden.data(), y_fresh.data(),
                           y_golden.size() * sizeof(double)));
}

TEST(ContainerV2, GoldenV1DshLoadsBitwise) {
  const CompressedMatrix cm =
      recode::codec::read_compressed_file(golden_path("golden_v1_dsh.rcm"));
  EXPECT_EQ(cm.config.selection, recode::codec::CodecSelection::kSingle);
  // v1 has no per-block ids: the config's implied (1-lane Huffman) id
  // is synthesized.
  ASSERT_EQ(cm.block_codecs.size(), cm.blocks.size());
  for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
    EXPECT_EQ(cm.block_codec_id(b),
              recode::codec::implied_codec_id(cm.config));
  }
  const Csr src = recode::sparse::gen_stencil2d(
      40, 25, ValueModel::kStencilCoeffs, 42);
  expect_same_matrix(cm, src);
  expect_same_spmv(cm, src, PipelineConfig::udp_dsh());
}

TEST(ContainerV2, GoldenV1VarintSnappyLoadsBitwise) {
  const CompressedMatrix cm =
      recode::codec::read_compressed_file(golden_path("golden_v1_vs.rcm"));
  PipelineConfig cfg = PipelineConfig::udp_vsh();
  cfg.huffman = false;
  const Csr src =
      recode::sparse::gen_fem_like(300, 6, 40, ValueModel::kFewDistinct, 7);
  expect_same_matrix(cm, src);
  expect_same_spmv(cm, src, cfg);
}

// The last v2 file the 1-lane encoder wrote (same source and config as
// golden_v1_dsh.rcm): once compress() writes only interleaved Huffman
// payloads, this pins the 1-lane decode path on v2's per-block ids.
TEST(ContainerV2, GoldenV2DshLoadsBitwise) {
  const CompressedMatrix cm =
      recode::codec::read_compressed_file(golden_path("golden_v2_dsh.rcm"));
  ASSERT_EQ(cm.block_codecs.size(), cm.blocks.size());
  for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
    EXPECT_EQ(cm.block_codec_id(b),
              recode::codec::implied_codec_id(cm.config));
    EXPECT_FALSE(
        recode::codec::codec_from_id(cm.block_codec_id(b)).interleaved);
  }
  const Csr src = recode::sparse::gen_stencil2d(
      40, 25, ValueModel::kStencilCoeffs, 42);
  expect_same_matrix(cm, src);
  expect_same_spmv(cm, src, PipelineConfig::udp_dsh());
  // The UDP engine reads the 1-lane layout too.
  recode::udpprog::UdpPipelineDecoder udp(cm);
  std::vector<recode::sparse::index_t> idx;
  std::vector<double> val;
  for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
    recode::codec::decompress_block(cm, b, idx, val);
    const auto r = udp.decode_block(b);
    EXPECT_EQ(r.indices, idx);
    EXPECT_EQ(0, std::memcmp(r.values.data(), val.data(),
                             val.size() * sizeof(double)));
  }
}

// A v2 file carrying bit 6 (new in v3) is rejected with the message v2
// readers gave for the then-reserved bit, by every reader.
TEST(ContainerV2, InterleavedBitInV2FileIsRejected) {
  const std::string path = golden_path("golden_v2_dsh.rcm");
  const auto layout = recode::codec::read_container_layout_file(path);
  ASSERT_EQ(2u, layout.version);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  const std::size_t id_at = static_cast<std::size_t>(layout.index.offsets[0]);
  const CodecId tampered = static_cast<CodecId>(
      static_cast<std::uint8_t>(bytes[id_at]) | 0x40);
  ASSERT_TRUE(recode::codec::codec_id_valid(tampered));
  bytes[id_at] = static_cast<char>(tampered);
  const std::string want =
      "codec registry: unknown codec id " + std::to_string(tampered);
  try {
    parse(recode::codec::Bytes(bytes.begin(), bytes.end()));
    ADD_FAILURE() << "expected recode::Error";
  } catch (const recode::Error& e) {
    EXPECT_EQ(want, e.what());
  }
  std::stringstream io(bytes);
  try {
    recode::codec::read_container_layout(io);
    ADD_FAILURE() << "expected recode::Error";
  } catch (const recode::Error& e) {
    EXPECT_EQ(want, e.what());
  }
}

TEST(ContainerV2, V1RewritesToV3AndStaysBitwise) {
  const CompressedMatrix v1 =
      recode::codec::read_compressed_file(golden_path("golden_v1_dsh.rcm"));
  const recode::codec::Bytes rewritten = serialize(v1);
  std::uint32_t version = 0;
  std::memcpy(&version, rewritten.data() + 4, sizeof(version));
  EXPECT_EQ(recode::codec::kContainerVersion, version);
  EXPECT_EQ(3u, version);
  const CompressedMatrix v3 = parse(rewritten);
  ASSERT_EQ(v3.blocks.size(), v1.blocks.size());
  EXPECT_EQ(v3.block_codecs, v1.block_codecs);
  for (std::size_t b = 0; b < v1.blocks.size(); ++b) {
    EXPECT_EQ(v3.blocks[b].index_data, v1.blocks[b].index_data);
    EXPECT_EQ(v3.blocks[b].value_data, v1.blocks[b].value_data);
  }
}

// Every engine plus the container reader must reject a hostile id with
// one message. The ids cover all invalid classes: reserved bits set,
// out-of-range index-transform field, and everything-wrong 0xFF.
TEST(ContainerV2, HostileCodecIdsThrowMatchingMessagesEverywhere) {
  const Csr src = recode::sparse::gen_stencil2d(
      24, 20, ValueModel::kStencilCoeffs, 3);
  for (const CodecId bad : {CodecId{0x40}, CodecId{0x80}, CodecId{0x03},
                            CodecId{0xFF}}) {
    SCOPED_TRACE("id=" + std::to_string(bad));
    ASSERT_FALSE(recode::codec::codec_id_valid(bad));
    CompressedMatrix cm =
        recode::codec::compress(src, PipelineConfig::udp_dsh());
    cm.block_codecs[cm.block_codecs.size() / 2] = bad;

    auto message_of = [](auto&& fn) -> std::string {
      try {
        fn();
      } catch (const recode::Error& e) {
        return e.what();
      }
      return "";  // no throw
    };
    const std::string want =
        "codec registry: unknown codec id " + std::to_string(bad);
    std::vector<recode::sparse::index_t> idx;
    std::vector<double> val;
    const std::size_t b = cm.block_codecs.size() / 2;
    EXPECT_EQ(want, message_of([&] {
                recode::codec::decompress_block_reference(cm, b, idx, val);
              }));
    EXPECT_EQ(want, message_of([&] {
                recode::codec::decompress_block(cm, b, idx, val);
              }));
    EXPECT_EQ(want, message_of([&] {
                recode::udpprog::UdpPipelineDecoder udp(cm);
                udp.decode_block(b);
              }));
    EXPECT_EQ(want, message_of([&] { parse(serialize(cm)); }));
  }
}

TEST(ContainerV2, HuffmanIdWithoutTablesThrowsMatchingMessages) {
  const Csr src = recode::sparse::gen_stencil2d(
      24, 20, ValueModel::kStencilCoeffs, 3);
  CompressedMatrix cm =
      recode::codec::compress(src, PipelineConfig::udp_ds());
  ASSERT_FALSE(cm.index_table);
  // Valid id, but its huffman stage needs tables this matrix lacks.
  recode::codec::BlockCodec bc;
  bc.huffman = true;
  cm.block_codecs[0] = recode::codec::codec_id(bc);

  const std::string want =
      "codec registry: block codec requires huffman tables that are "
      "not present";
  auto message_of = [](auto&& fn) -> std::string {
    try {
      fn();
    } catch (const recode::Error& e) {
      return e.what();
    }
    return "";
  };
  std::vector<recode::sparse::index_t> idx;
  std::vector<double> val;
  EXPECT_EQ(want, message_of([&] {
              recode::codec::decompress_block_reference(cm, 0, idx, val);
            }));
  EXPECT_EQ(want, message_of([&] {
              recode::codec::decompress_block(cm, 0, idx, val);
            }));
  EXPECT_EQ(want, message_of([&] {
              recode::udpprog::UdpPipelineDecoder udp(cm);
              udp.decode_block(0);
            }));
  EXPECT_EQ(want, message_of([&] { parse(serialize(cm)); }));
}

// Locates block 0's codec-id byte in the serialized container by writing
// the matrix twice with different (both valid) ids and diffing: the only
// byte that changes is the id byte. Then tampers the original at that
// offset with every invalid value class and expects a clean parse error.
TEST(ContainerV2, TamperedCodecIdByteIsRejectedOnRead) {
  const Csr src = recode::sparse::gen_stencil2d(
      24, 20, ValueModel::kStencilCoeffs, 3);
  CompressedMatrix cm =
      recode::codec::compress(src, PipelineConfig::udp_dsh());
  const recode::codec::Bytes clean = serialize(cm);

  recode::codec::BlockCodec alt = recode::codec::codec_from_id(
      recode::codec::codec_id_for(cm.config));
  alt.index_transform = Transform::kVarintDelta;
  cm.block_codecs[0] = recode::codec::codec_id(alt);
  const recode::codec::Bytes variant = serialize(cm);

  ASSERT_EQ(clean.size(), variant.size());
  std::size_t id_offset = clean.size();
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    if (clean[i] != variant[i]) {
      id_offset = i;
      ++diffs;
    }
  }
  ASSERT_EQ(1u, diffs);  // exactly the id byte moved

  for (const CodecId bad : {CodecId{0x40}, CodecId{0x80}, CodecId{0x03},
                            CodecId{0xFF}, CodecId{0xC3}}) {
    SCOPED_TRACE("id=" + std::to_string(bad));
    recode::codec::Bytes tampered = clean;
    tampered[id_offset] = bad;
    EXPECT_THROW(parse(tampered), recode::Error);
  }

  // CorruptionEngine bit flips on the id byte itself: every flip that
  // produces an invalid id throws; valid flips parse (the streams then
  // mismatch or fail in decode, but reading must not abort).
  for (int bit = 0; bit < 8; ++bit) {
    recode::codec::Bytes tampered = clean;
    tampered[id_offset] =
        static_cast<std::uint8_t>(tampered[id_offset] ^ (1u << bit));
    SCOPED_TRACE("flip bit " + std::to_string(bit));
    if (recode::codec::codec_id_valid(tampered[id_offset])) {
      CompressedMatrix parsed = parse(tampered);
      std::vector<recode::sparse::index_t> idx;
      std::vector<double> val;
      try {
        recode::codec::decompress_block(parsed, 0, idx, val);
      } catch (const recode::Error&) {
        // wrong-but-valid codec on a stream encoded differently: a clean
        // recode::Error is an acceptable outcome.
      }
    } else {
      EXPECT_THROW(parse(tampered), recode::Error);
    }
  }
}

TEST(ContainerV2, TruncationMidBlockThrows) {
  const Csr src = recode::sparse::gen_stencil2d(
      30, 24, ValueModel::kSmoothField, 13);
  const CompressedMatrix cm =
      recode::codec::compress(src, PipelineConfig::udp_adaptive());
  const recode::codec::Bytes clean = serialize(cm);
  // Cuts inside the per-block section (past the header/tables) — every
  // one must surface as recode::Error, never as an abort or a hang.
  for (const std::size_t keep :
       {clean.size() - 1, clean.size() - 3, clean.size() / 2,
        clean.size() - clean.size() / 4}) {
    SCOPED_TRACE("keep=" + std::to_string(keep));
    recode::codec::Bytes cut(clean.begin(),
                             clean.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(parse(cut), recode::Error);
  }
}

TEST(ContainerV2, CorruptionEngineSweepNeverAborts) {
  const Csr src = recode::sparse::gen_fem_like(
      400, 6, 50, ValueModel::kFewDistinct, 17);
  const CompressedMatrix cm =
      recode::codec::compress(src, PipelineConfig::udp_adaptive());
  const recode::codec::Bytes clean = serialize(cm);
  const Csr want = recode::codec::decompress(cm);

  const std::uint64_t seed = recode::test_seed(0xBADC0DE);
  const auto variants =
      recode::testing::corruption_variants(clean, clean, seed, 24);
  int parse_failures = 0;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    SCOPED_TRACE("variant=" + std::to_string(i));
    try {
      const CompressedMatrix parsed = parse(variants[i]);
      // Parsed despite corruption (or the corruption was benign): decode
      // must finish or throw — through both host engines.
      std::vector<recode::sparse::index_t> idx;
      std::vector<double> val;
      for (std::size_t b = 0; b < parsed.blocks.size(); ++b) {
        recode::codec::decompress_block_reference(parsed, b, idx, val);
        recode::codec::decompress_block(parsed, b, idx, val);
      }
    } catch (const recode::Error&) {
      ++parse_failures;
    }
  }
  // The sweep must actually exercise the reject paths.
  EXPECT_GT(parse_failures, 0);
}

}  // namespace
