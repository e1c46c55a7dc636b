// Canonical Huffman codec over bytes with externally-trained tables.
//
// The paper trains one Huffman tree per matrix by sampling up to 40% of
// its 8 KB blocks (§IV-B), then encodes every block with that shared tree.
// HuffmanTable captures that: build it from a histogram of sampled data,
// serialize it once per matrix, and use stateless encode/decode per block.
//
// Codes are canonical with lengths capped at kMaxCodeLen (15), so the
// table serializes as 256 4-bit lengths (128 bytes) and decode can use a
// flat 2^15-entry lookup table — the same structure the UDP program's
// multi-way dispatch exploits.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "codec/codec.h"

namespace recode::codec {

inline constexpr int kMaxCodeLen = 15;

class HuffmanTable {
 public:
  // Uniform-code table (all lengths 8): a valid fallback when no training
  // data is available.
  HuffmanTable();

  // Builds length-limited canonical codes from byte frequencies.
  // Zero-frequency symbols are smoothed to frequency 1 so blocks outside
  // the training sample always remain encodable.
  static HuffmanTable build(const std::array<std::uint64_t, 256>& histogram);

  // Histogram over a sample buffer, then build().
  static HuffmanTable train(ByteSpan sample);

  // 128-byte serialization (256 packed 4-bit code lengths).
  Bytes serialize() const;
  static HuffmanTable deserialize(ByteSpan data);

  std::uint16_t code(std::uint8_t symbol) const { return codes_[symbol]; }
  std::uint8_t length(std::uint8_t symbol) const { return lengths_[symbol]; }

  // Average code length in bits under the given histogram (for tests and
  // the sampling ablation).
  double expected_bits(const std::array<std::uint64_t, 256>& histogram) const;

  // Flat decode table: index = next 15 bits of the stream (MSB-aligned),
  // value = {symbol, code length}.
  struct DecodeEntry {
    std::uint8_t symbol;
    std::uint8_t length;
  };
  const DecodeEntry* decode_table() const { return decode_.data(); }

  // Multi-symbol decode table (the fast path's one-lookup-many-symbols
  // step): index = next kMaxCodeLen bits, value = every symbol whose full
  // code is contained in those bits, up to 4. At least one symbol is
  // always present (no code is longer than the window), so the fast
  // decoder needs no fallback lookup while >= kMaxCodeLen bits remain.
  // Decoding the entries in sequence is bit-for-bit identical to repeated
  // single-symbol lookups: symbol k+1 is only packed when its whole code
  // fits in the window bits left after symbols 1..k, i.e. when it is
  // fully determined by real stream bits.
  struct MultiEntry {
    std::uint8_t symbols[4];  // valid: [0, count); rest zero (slop-safe)
    std::uint8_t count;       // 1..4 symbols decoded by this window
    std::uint8_t bits;        // total code bits those symbols consume
  };
  const MultiEntry* multi_table() const { return multi_.data(); }

  bool operator==(const HuffmanTable& other) const {
    return lengths_ == other.lengths_;
  }

 private:
  void assign_canonical_codes();
  void build_decode_table();

  std::array<std::uint8_t, 256> lengths_{};
  std::array<std::uint16_t, 256> codes_{};
  std::array<DecodeEntry, 1u << kMaxCodeLen> decode_{};
  std::array<MultiEntry, 1u << kMaxCodeLen> multi_{};
};

// Sub-streams per payload in the interleaved Huffman layout (codec id
// bit 6, codec/registry.h). A format constant: the layout has no other
// lane count.
inline constexpr int kHuffmanLanes = 4;

// The two Huffman payload layouts. Both start with varint(decoded byte
// count) n; the code bits follow as:
//
//   1 lane (v1/v2 files, bit 6 clear): one MSB-first bit stream of all
//     n symbols, zero-padded to a byte.
//   4 lanes (what compress() writes): a jump header of 3 varint byte
//     lengths for sub-streams 0..2, then sub-streams 0..3 back to back
//     (sub-stream 3 runs to the end of the payload). Sub-stream k is its
//     own zero-padded MSB-first bit stream of symbols
//     [k*q, min(n, (k+1)*q)), q = ceil(n/4), so a decoder can walk all
//     four at once with independent bit buffers (zstd's 4-stream
//     Huffman layout) and each lane writes a disjoint output range.
//
// HuffmanFrame is the parsed header. Every decoder (the scalar
// reference, fast::huffman_decode and the UDP engine) parses through
// parse_huffman_frame, so header errors are identical across engines by
// construction.
struct HuffmanFrame {
  std::uint64_t count = 0;  // decoded bytes n
  int lanes = 1;            // 1 or kHuffmanLanes
  std::uint64_t stride = 0; // symbols per lane but the last: ceil(n/lanes)
  ByteSpan streams[kHuffmanLanes];  // lane k's sub-stream bytes

  // Output offset of lane k's first symbol, and its symbol count.
  std::uint64_t first(int k) const;
  std::uint64_t symbols(int k) const;
};

// Throws recode::Error on a malformed header: a truncated or overlong
// varint, a count beyond the payload's bit capacity (every symbol takes
// at least one bit, so this bounds the caller's allocation), or jump
// lengths that run past the payload.
HuffmanFrame parse_huffman_frame(ByteSpan input, bool interleaved);

// Stateless Huffman codec bound to a shared table, writing and reading
// one of the two payload layouts above (interleaved = the 4-lane one).
//
// decode() is the scalar reference implementation for both layouts (one
// symbol per table lookup, byte-wise refill, lane after lane); the
// production hot path is fast::huffman_decode (fast_decode.h), which
// must stay bitwise- and error-identical to it — the fast-decode
// differential suite enforces that.
class HuffmanCodec final : public Codec {
 public:
  explicit HuffmanCodec(std::shared_ptr<const HuffmanTable> table,
                        bool interleaved = false)
      : table_(std::move(table)), interleaved_(interleaved) {}

  std::string name() const override { return "huffman"; }
  Bytes encode(ByteSpan input) const override;
  Bytes decode(ByteSpan input) const override;

  // Decoded byte count announced by the preamble without decoding.
  static std::size_t decoded_length(ByteSpan input);

  const HuffmanTable& table() const { return *table_; }

 private:
  std::shared_ptr<const HuffmanTable> table_;
  bool interleaved_;
};

}  // namespace recode::codec
