// Fast-decode differential suite: the arena/word-wise decode path
// (codec::decompress_block_fast and the fast:: stage decoders) must be
// bitwise-identical to the reference scalar path on every valid stream,
// and throw a recode::Error with the same message on every malformed one.
// Runs across all pipeline stage combinations, hundreds of random blocks,
// and CorruptionEngine-mutated inputs; under the sanitize preset ASan
// additionally proves the word-wise loops never read or write past the
// slop margin.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "codec/arena.h"
#include "codec/fast_decode.h"
#include "codec/huffman.h"
#include "codec/pipeline.h"
#include "codec/snappy.h"
#include "common/error.h"
#include "common/prng.h"
#include "common/varint.h"
#include "sparse/generators.h"
#include "testing/corrupt.h"

namespace recode::testing {
namespace {

using codec::Bytes;
using codec::ByteSpan;
using codec::CompressedMatrix;
using codec::DecodeArena;
using codec::PipelineConfig;
using codec::Transform;
using sparse::Csr;
using sparse::ValueModel;

// Every stage combination the pipeline can be configured into.
std::vector<PipelineConfig> all_configs() {
  std::vector<PipelineConfig> configs;
  for (const bool huffman : {false, true}) {
    for (const bool snappy : {false, true}) {
      for (const Transform idx : {Transform::kNone, Transform::kDelta32,
                                  Transform::kVarintDelta}) {
        for (const Transform val : {Transform::kNone, Transform::kDelta32}) {
          PipelineConfig cfg;
          cfg.huffman = huffman;
          cfg.snappy = snappy;
          cfg.index_transform = idx;
          cfg.value_transform = val;
          configs.push_back(cfg);
        }
      }
    }
  }
  return configs;
}

struct DecodeOutcome {
  bool ok = false;
  std::string error;
  std::vector<sparse::index_t> indices;
  std::vector<double> values;

  bool operator==(const DecodeOutcome& other) const {
    return ok == other.ok && error == other.error &&
           indices == other.indices && values == other.values;
  }
};

DecodeOutcome run_reference(const CompressedMatrix& cm, std::size_t b) {
  DecodeOutcome out;
  try {
    codec::decompress_block_reference(cm, b, out.indices, out.values);
    out.ok = true;
  } catch (const recode::Error& e) {
    out.error = e.what();
  }
  return out;
}

DecodeOutcome run_fast(const CompressedMatrix& cm, std::size_t b,
                       DecodeArena& scratch, DecodeArena& out_arena) {
  DecodeOutcome out;
  try {
    const codec::DecodedBlock d =
        codec::decompress_block_fast(cm, b, scratch, out_arena);
    out.indices.assign(d.indices.begin(), d.indices.end());
    out.values.assign(d.values.begin(), d.values.end());
    out.ok = true;
  } catch (const recode::Error& e) {
    out.error = e.what();
  }
  return out;
}

void expect_same(const DecodeOutcome& ref, const DecodeOutcome& fast,
                 const std::string& context) {
  EXPECT_EQ(ref.ok, fast.ok) << context << " ref_err=" << ref.error
                             << " fast_err=" << fast.error;
  EXPECT_EQ(ref.error, fast.error) << context;
  EXPECT_EQ(ref.indices, fast.indices) << context;
  if (ref.values.size() == fast.values.size()) {
    // Bitwise, not numeric: NaN payloads and signed zeros must survive.
    for (std::size_t i = 0; i < ref.values.size(); ++i) {
      EXPECT_EQ(std::memcmp(&ref.values[i], &fast.values[i], sizeof(double)),
                0)
          << context << " value " << i;
    }
  } else {
    ADD_FAILURE() << context << " value sizes differ";
  }
}

TEST(FastDecodeDifferential, AllStageCombinationsBitwiseIdentical) {
  const Csr csr =
      sparse::gen_fem_like(3000, 10, 70, ValueModel::kSmoothField, 501);
  std::size_t blocks_checked = 0;
  for (const PipelineConfig& cfg : all_configs()) {
    const CompressedMatrix cm = codec::compress(csr, cfg);
    DecodeArena scratch, out;
    for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
      const DecodeOutcome ref = run_reference(cm, b);
      const DecodeOutcome fast = run_fast(cm, b, scratch, out);
      ASSERT_TRUE(ref.ok) << "clean stream must decode";
      expect_same(ref, fast,
                  "cfg huffman=" + std::to_string(cfg.huffman) +
                      " snappy=" + std::to_string(cfg.snappy) +
                      " idx_t=" + codec::transform_name(cfg.index_transform) +
                      " val_t=" + codec::transform_name(cfg.value_transform) +
                      " block=" + std::to_string(b));
      ++blocks_checked;
    }
  }
  // The acceptance floor: well over 100 distinct blocks proved identical.
  EXPECT_GE(blocks_checked, 100u);
}

TEST(FastDecodeDifferential, RandomMatricesAcrossFamilies) {
  Prng prng(502);
  const std::vector<Csr> matrices = {
      sparse::gen_random(2000, 2000, 30000, ValueModel::kRandom, 503),
      sparse::gen_banded(8000, 7, 0.85, ValueModel::kStencilCoeffs, 504),
      sparse::gen_circuit(4000, 5, ValueModel::kFewDistinct, 505),
  };
  for (const auto& csr : matrices) {
    for (const PipelineConfig& cfg :
         {PipelineConfig::udp_dsh(), PipelineConfig::udp_vsh(),
          PipelineConfig::cpu_snappy()}) {
      const CompressedMatrix cm = codec::compress(csr, cfg);
      DecodeArena scratch, out;
      for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
        expect_same(run_reference(cm, b), run_fast(cm, b, scratch, out),
                    "family block " + std::to_string(b));
      }
    }
  }
}

// Corrupted streams: the fast path must agree with the reference on
// whether the stream is rejected AND on the exact error message — the
// corruption surface is where shortcuts in a fast decoder usually
// diverge. Arenas are reused across variants, so a poisoned decode must
// also not corrupt later decodes.
TEST(FastDecodeDifferential, CorruptionParityAllConfigs) {
  const Csr csr =
      sparse::gen_fem_like(1500, 8, 50, ValueModel::kSmoothField, 506);
  std::uint64_t seed = 507;
  int rejected = 0;
  int checked = 0;
  for (const PipelineConfig& cfg : all_configs()) {
    CompressedMatrix cm = codec::compress(csr, cfg);
    if (cm.blocks.size() < 2) continue;
    DecodeArena scratch, out;
    const Bytes clean_idx = cm.blocks[0].index_data;
    const Bytes clean_val = cm.blocks[0].value_data;
    const Bytes sibling = cm.blocks[1].index_data;

    for (const bool corrupt_values : {false, true}) {
      const Bytes& clean = corrupt_values ? clean_val : clean_idx;
      for (const Bytes& variant :
           corruption_variants(clean, sibling, ++seed, 6)) {
        if (corrupt_values) {
          cm.blocks[0].value_data = variant;
        } else {
          cm.blocks[0].index_data = variant;
        }
        const DecodeOutcome ref = run_reference(cm, 0);
        const DecodeOutcome fast = run_fast(cm, 0, scratch, out);
        expect_same(ref, fast, "corrupt stream parity");
        rejected += ref.ok ? 0 : 1;
        ++checked;
        // The arena must stay usable after a mid-decode throw: the next
        // clean block decodes bitwise-correctly through the same arenas.
        cm.blocks[0].index_data = clean_idx;
        cm.blocks[0].value_data = clean_val;
        const DecodeOutcome clean_ref = run_reference(cm, 0);
        const DecodeOutcome clean_fast = run_fast(cm, 0, scratch, out);
        ASSERT_TRUE(clean_ref.ok);
        expect_same(clean_ref, clean_fast, "post-corruption clean decode");
      }
    }
  }
  EXPECT_GT(checked, 100);
  EXPECT_GT(rejected, 0) << "corruption model never tripped the decoder";
}

// Stream-level parity for the stage decoders in isolation, on corrupted
// inputs (sized with the same untrusted-length validation the pipeline
// performs before sizing a slab).
TEST(FastDecodeDifferential, HuffmanStreamCorruptionParity) {
  Prng prng(508);
  Bytes sample(1 << 14);
  for (auto& b : sample) {
    b = prng.next_below(100) < 70
            ? static_cast<std::uint8_t>(prng.next_below(8))
            : static_cast<std::uint8_t>(prng.next());
  }
  const auto table =
      std::make_shared<const codec::HuffmanTable>(codec::HuffmanTable::train(sample));
  const codec::HuffmanCodec codec(table);
  const Bytes clean = codec.encode(sample);
  const Bytes sibling = codec.encode(Bytes(sample.begin(), sample.begin() + 512));
  DecodeArena arena;
  int rejected = 0;
  for (const Bytes& variant : corruption_variants(clean, sibling, 509, 24)) {
    std::optional<Bytes> ref;
    std::string ref_err;
    try {
      ref = codec.decode(variant);
    } catch (const recode::Error& e) {
      ref_err = e.what();
    }
    std::optional<std::size_t> fast_n;
    std::string fast_err;
    std::uint8_t* dst = nullptr;
    try {
      // The pipeline's pre-slab validation, replicated.
      std::size_t pos = 0;
      const std::uint64_t n =
          varint_read(variant.data(), variant.size(), pos);
      if (n > (static_cast<std::uint64_t>(variant.size()) - pos) * 8) {
        fail("huffman: declared count exceeds stream capacity");
      }
      dst = arena.slab(DecodeArena::kScratchA, static_cast<std::size_t>(n));
      fast_n = codec::fast::huffman_decode(*table, variant, dst);
    } catch (const recode::Error& e) {
      fast_err = e.what();
    }
    ASSERT_EQ(ref.has_value(), fast_n.has_value()) << ref_err << " vs " << fast_err;
    ASSERT_EQ(ref_err, fast_err);
    if (ref.has_value()) {
      ASSERT_EQ(ref->size(), *fast_n);
      // ref->data() is null for an empty decode; memcmp's args are
      // declared nonnull, so only compare nonempty outputs.
      if (!ref->empty()) {
        ASSERT_EQ(std::memcmp(dst, ref->data(), ref->size()), 0);
      }
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

// ---- The 4-lane interleaved Huffman layout (huffman.h) ----

struct StreamOutcome {
  bool ok = false;
  std::string error;
  Bytes out;

  bool operator==(const StreamOutcome&) const = default;
};

StreamOutcome reference_stream(const codec::HuffmanCodec& codec,
                               const Bytes& stream) {
  StreamOutcome r;
  try {
    r.out = codec.decode(stream);
    r.ok = true;
  } catch (const recode::Error& e) {
    r.error = e.what();
  }
  return r;
}

// The lane-generic fast decoder into an exact-size heap buffer: no slop,
// so under ASan any store past the lanes' output ranges is caught.
StreamOutcome fast_stream(const codec::HuffmanTable& table,
                          const Bytes& stream, bool interleaved) {
  StreamOutcome r;
  try {
    const std::uint64_t n =
        codec::parse_huffman_frame(stream, interleaved).count;
    std::vector<std::uint8_t> dst(static_cast<std::size_t>(n));
    const std::size_t got =
        codec::fast::huffman_decode(table, stream, dst.data(), interleaved);
    r.out.assign(dst.begin(), dst.begin() + static_cast<std::ptrdiff_t>(got));
    r.ok = true;
  } catch (const recode::Error& e) {
    r.error = e.what();
  }
  return r;
}

void expect_stream_parity(const codec::HuffmanCodec& ref_codec,
                          const codec::HuffmanTable& table,
                          const Bytes& stream, const std::string& context) {
  const StreamOutcome ref = reference_stream(ref_codec, stream);
  const StreamOutcome fast = fast_stream(table, stream, true);
  EXPECT_EQ(ref.ok, fast.ok) << context << " ref_err=" << ref.error
                             << " fast_err=" << fast.error;
  EXPECT_EQ(ref.error, fast.error) << context;
  EXPECT_EQ(ref.out, fast.out) << context;
}

std::shared_ptr<const codec::HuffmanTable> skewed_table(std::uint64_t seed) {
  Prng prng(seed);
  Bytes sample(1 << 12);
  for (auto& b : sample) {
    b = prng.next_below(100) < 70
            ? static_cast<std::uint8_t>(prng.next_below(8))
            : static_cast<std::uint8_t>(prng.next());
  }
  return std::make_shared<const codec::HuffmanTable>(
      codec::HuffmanTable::train(sample));
}

// Every symbol count around the lane split (n < 4 leaves lanes empty;
// n = 5, 7, 9 leave the last lane short), plus counts whose sub-streams
// are shorter than, equal to and longer than the 8-byte word step.
TEST(FastDecodeDifferential, InterleavedSymbolCountsBitwiseIdentical) {
  const auto table = skewed_table(512);
  const codec::HuffmanCodec codec(table, /*interleaved=*/true);
  Prng prng(513);
  for (const std::size_t n :
       {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 31, 32, 33, 47, 64, 100, 1000, 4099}) {
    Bytes raw(n);
    for (auto& b : raw) b = static_cast<std::uint8_t>(prng.next_below(40));
    const Bytes enc = codec.encode(raw);
    const codec::HuffmanFrame f = codec::parse_huffman_frame(enc, true);
    ASSERT_EQ(n, f.count);
    ASSERT_EQ(codec::kHuffmanLanes, f.lanes);
    std::uint64_t total = 0;
    for (int k = 0; k < f.lanes; ++k) {
      EXPECT_EQ(total, f.first(k));
      total += f.symbols(k);
      if (f.symbols(k) == 0) {
        EXPECT_TRUE(f.streams[k].empty());
      }
    }
    EXPECT_EQ(n, total);
    const std::string ctx = "n=" + std::to_string(n);
    EXPECT_EQ(raw, reference_stream(codec, enc).out) << ctx;
    expect_stream_parity(codec, *table, enc, ctx);
  }
}

// One lane far shorter than its siblings in bytes: its symbols all take
// the shortest code, so the interleaved loop stops on it early and the
// other lanes finish alone.
TEST(FastDecodeDifferential, InterleavedUnevenLanesBitwiseIdentical) {
  const auto table = skewed_table(514);
  const codec::HuffmanCodec codec(table, /*interleaved=*/true);
  std::uint8_t shortest = 0;
  for (int s = 0; s < 256; ++s) {
    if (table->length(static_cast<std::uint8_t>(s)) <
        table->length(shortest)) {
      shortest = static_cast<std::uint8_t>(s);
    }
  }
  Prng prng(515);
  for (int lane = 0; lane < codec::kHuffmanLanes; ++lane) {
    Bytes raw(2000);
    for (std::size_t i = 0; i < raw.size(); ++i) {
      raw[i] = i / 500 == static_cast<std::size_t>(lane)
                   ? shortest
                   : static_cast<std::uint8_t>(prng.next());
    }
    const Bytes enc = codec.encode(raw);
    EXPECT_EQ(raw, reference_stream(codec, enc).out);
    expect_stream_parity(codec, *table, enc, "short lane " +
                                                 std::to_string(lane));
  }
}

// Hand-built jump headers: lengths summing past the payload, a single
// length past it, an overlong (overflowing) varint, and a header cut
// short. Each must fail identically in both decoders.
TEST(FastDecodeDifferential, InterleavedJumpHeaderErrorsIdentical) {
  const auto table = skewed_table(516);
  const codec::HuffmanCodec codec(table, /*interleaved=*/true);
  const auto frame = [](std::uint64_t n, std::vector<std::uint64_t> jumps,
                        std::size_t body) {
    Bytes s;
    varint_append(s, n);
    for (const std::uint64_t j : jumps) varint_append(s, j);
    s.resize(s.size() + body, 0x5A);
    return s;
  };
  struct Case {
    const char* name;
    Bytes stream;
    const char* error;
  };
  Bytes overlong;
  varint_append(overlong, 3);
  overlong.insert(overlong.end(), 11, 0xFF);
  overlong.push_back(0x01);
  const std::vector<Case> cases = {
      {"sum past payload", frame(8, {4, 4, 4}, 10),
       "huffman: sub-stream lengths exceed stream"},
      {"one length past payload", frame(8, {0, 0, 40}, 10),
       "huffman: sub-stream lengths exceed stream"},
      {"huge length", frame(8, {~std::uint64_t{0}, 1, 1}, 10),
       "huffman: sub-stream lengths exceed stream"},
      {"overlong varint", overlong, "varint: overlong encoding"},
      {"cut header", frame(0, {1}, 0), "varint: truncated stream"},
      {"count past capacity", frame(800, {1, 1, 1}, 4),
       "huffman: declared count exceeds stream capacity"},
      {"empty lanes, symbols owed", frame(4, {0, 0, 0}, 0),
       "huffman: truncated stream"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const StreamOutcome ref = reference_stream(codec, c.stream);
    EXPECT_FALSE(ref.ok);
    EXPECT_EQ(c.error, ref.error);
    expect_stream_parity(codec, *table, c.stream, c.name);
  }
}

// CorruptionEngine mutations aimed at the jump header alone, at the
// sub-stream bytes alone, and at the whole payload.
TEST(FastDecodeDifferential, InterleavedCorruptionParity) {
  const auto table = skewed_table(517);
  const codec::HuffmanCodec codec(table, /*interleaved=*/true);
  Prng prng(518);
  Bytes raw(3000);
  for (auto& b : raw) b = static_cast<std::uint8_t>(prng.next_below(64));
  const Bytes clean = codec.encode(raw);
  const Bytes sibling = codec.encode(Bytes(raw.begin(), raw.begin() + 300));
  const codec::HuffmanFrame f = codec::parse_huffman_frame(clean, true);
  const std::size_t header =
      static_cast<std::size_t>(f.streams[0].data() - clean.data());
  const ByteSpan head(clean.data(), header);
  const ByteSpan body(clean.data() + header, clean.size() - header);

  CorruptionEngine engine(test_seed(519));
  int rejected = 0;
  int checked = 0;
  const auto check = [&](const Bytes& variant, const std::string& ctx) {
    expect_stream_parity(codec, *table, variant, ctx);
    rejected += reference_stream(codec, variant).ok ? 0 : 1;
    ++checked;
  };
  for (int i = 0; i < 40; ++i) {
    // Header-only: flips inside the count + jump varints, then the
    // untouched sub-streams.
    Bytes h = engine.bit_flip(head, 1 + static_cast<int>(prng.next_below(3)));
    h.insert(h.end(), body.begin(), body.end());
    check(h, "header flip " + std::to_string(i));
    // Sub-stream-only: the clean header over flipped or cut code bits.
    Bytes b(head.begin(), head.end());
    const Bytes mutated = i % 2 == 0 ? engine.bit_flip(body, 1 + i % 5)
                                     : engine.truncate(body);
    b.insert(b.end(), mutated.begin(), mutated.end());
    check(b, "sub-stream mutation " + std::to_string(i));
  }
  for (const Bytes& variant : corruption_variants(clean, sibling, 520, 12)) {
    check(variant, "whole-payload variant");
  }
  EXPECT_GT(checked, 100);
  EXPECT_GT(rejected, 0) << "corruption model never tripped the decoder";
}

TEST(FastDecodeDifferential, SnappyStreamCorruptionParity) {
  Prng prng(510);
  Bytes payload(1 << 14);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>((i / 5) & 0xFF);
  }
  const codec::SnappyCodec codec;
  const Bytes clean = codec.encode(payload);
  const Bytes sibling = codec.encode(Bytes(256, 0x3C));
  DecodeArena arena;
  int rejected = 0;
  for (const Bytes& variant : corruption_variants(clean, sibling, 511, 24)) {
    std::optional<Bytes> ref;
    std::string ref_err;
    try {
      ref = codec.decode(variant);
    } catch (const recode::Error& e) {
      ref_err = e.what();
    }
    std::optional<std::size_t> fast_n;
    std::string fast_err;
    std::uint8_t* dst = nullptr;
    try {
      std::size_t pos = 0;
      const std::uint64_t n =
          varint_read(variant.data(), variant.size(), pos);
      if (n > static_cast<std::uint64_t>(variant.size() - pos) * 24 + 8) {
        fail("snappy: declared length implausible for stream size");
      }
      dst = arena.slab(DecodeArena::kScratchA, static_cast<std::size_t>(n));
      fast_n = codec::fast::snappy_decode(variant, dst);
    } catch (const recode::Error& e) {
      fast_err = e.what();
    }
    ASSERT_EQ(ref.has_value(), fast_n.has_value()) << ref_err << " vs " << fast_err;
    ASSERT_EQ(ref_err, fast_err);
    if (ref.has_value()) {
      ASSERT_EQ(ref->size(), *fast_n);
      if (!ref->empty()) {
        ASSERT_EQ(std::memcmp(dst, ref->data(), ref->size()), 0);
      }
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace recode::testing
