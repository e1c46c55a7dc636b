#include "codec/huffman.h"

#include <algorithm>
#include <queue>

#include "common/bitio.h"
#include "common/error.h"
#include "common/varint.h"

namespace recode::codec {

namespace {

// Plain Huffman tree build; returns per-symbol code lengths.
std::array<std::uint8_t, 256> huffman_lengths(
    const std::array<std::uint64_t, 256>& freq) {
  struct Node {
    std::uint64_t weight;
    int left;    // -1 for leaf
    int right;
    int symbol;  // leaf only
  };
  std::vector<Node> nodes;
  nodes.reserve(512);
  using HeapItem = std::pair<std::uint64_t, int>;  // (weight, node index)
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  for (int s = 0; s < 256; ++s) {
    nodes.push_back({freq[s], -1, -1, s});
    heap.emplace(freq[s], s);
  }
  while (heap.size() > 1) {
    const auto [wa, a] = heap.top();
    heap.pop();
    const auto [wb, b] = heap.top();
    heap.pop();
    nodes.push_back({wa + wb, a, b, -1});
    heap.emplace(wa + wb, static_cast<int>(nodes.size()) - 1);
  }
  std::array<std::uint8_t, 256> lengths{};
  // Iterative DFS carrying depth.
  std::vector<std::pair<int, int>> stack{{heap.top().second, 0}};
  while (!stack.empty()) {
    const auto [idx, depth] = stack.back();
    stack.pop_back();
    const Node& n = nodes[static_cast<std::size_t>(idx)];
    if (n.left < 0) {
      lengths[static_cast<std::size_t>(n.symbol)] =
          static_cast<std::uint8_t>(std::max(depth, 1));
    } else {
      stack.emplace_back(n.left, depth + 1);
      stack.emplace_back(n.right, depth + 1);
    }
  }
  return lengths;
}

}  // namespace

HuffmanTable::HuffmanTable() {
  lengths_.fill(8);  // uniform byte code
  assign_canonical_codes();
  build_decode_table();
}

HuffmanTable HuffmanTable::build(
    const std::array<std::uint64_t, 256>& histogram) {
  // Add-one smoothing keeps every symbol encodable even when the training
  // sample (a fraction of the matrix's blocks) missed it.
  std::array<std::uint64_t, 256> freq;
  for (int s = 0; s < 256; ++s) freq[s] = histogram[s] + 1;

  // Length-limit by flattening: halving the dynamic range of the weights
  // until the deepest leaf fits in kMaxCodeLen. Converges in a few rounds
  // and is near-optimal for byte alphabets.
  HuffmanTable t;
  for (;;) {
    t.lengths_ = huffman_lengths(freq);
    const std::uint8_t max_len =
        *std::max_element(t.lengths_.begin(), t.lengths_.end());
    if (max_len <= kMaxCodeLen) break;
    for (auto& f : freq) f = (f >> 1) + 1;
  }
  t.assign_canonical_codes();
  t.build_decode_table();
  return t;
}

HuffmanTable HuffmanTable::train(ByteSpan sample) {
  std::array<std::uint64_t, 256> histogram{};
  for (std::uint8_t b : sample) ++histogram[b];
  return build(histogram);
}

Bytes HuffmanTable::serialize() const {
  Bytes out(128);
  for (int s = 0; s < 256; s += 2) {
    out[static_cast<std::size_t>(s / 2)] = static_cast<std::uint8_t>(
        (lengths_[static_cast<std::size_t>(s)] << 4) |
        lengths_[static_cast<std::size_t>(s) + 1]);
  }
  return out;
}

HuffmanTable HuffmanTable::deserialize(ByteSpan data) {
  if (data.size() != 128) fail("huffman table: expected 128 bytes");
  HuffmanTable t;
  for (int s = 0; s < 256; s += 2) {
    const std::uint8_t packed = data[static_cast<std::size_t>(s / 2)];
    t.lengths_[static_cast<std::size_t>(s)] = packed >> 4;
    t.lengths_[static_cast<std::size_t>(s) + 1] = packed & 0xF;
  }
  std::uint64_t kraft = 0;
  for (auto len : t.lengths_) {
    if (len == 0 || len > kMaxCodeLen) fail("huffman table: bad code length");
    kraft += 1u << (kMaxCodeLen - len);
  }
  // Canonical tables built from a 256-symbol Huffman tree are always
  // complete prefix codes. Anything else (tampered lengths) would either
  // overflow the code space or leave undecodable windows in the flat
  // decode table, so reject it before assigning codes.
  if (kraft != (1u << kMaxCodeLen)) {
    fail("huffman table: lengths do not form a complete prefix code");
  }
  t.assign_canonical_codes();
  t.build_decode_table();
  return t;
}

double HuffmanTable::expected_bits(
    const std::array<std::uint64_t, 256>& histogram) const {
  std::uint64_t total = 0;
  std::uint64_t bits = 0;
  for (int s = 0; s < 256; ++s) {
    total += histogram[static_cast<std::size_t>(s)];
    bits += histogram[static_cast<std::size_t>(s)] *
            lengths_[static_cast<std::size_t>(s)];
  }
  return total == 0 ? 0.0 : static_cast<double>(bits) / static_cast<double>(total);
}

void HuffmanTable::assign_canonical_codes() {
  // Canonical order: by (length, symbol).
  std::array<int, 256> order;
  for (int s = 0; s < 256; ++s) order[static_cast<std::size_t>(s)] = s;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (lengths_[static_cast<std::size_t>(a)] !=
        lengths_[static_cast<std::size_t>(b)]) {
      return lengths_[static_cast<std::size_t>(a)] <
             lengths_[static_cast<std::size_t>(b)];
    }
    return a < b;
  });
  std::uint32_t code = 0;
  int prev_len = 0;
  for (int s : order) {
    const int len = lengths_[static_cast<std::size_t>(s)];
    code <<= (len - prev_len);
    RECODE_CHECK_MSG(code < (1u << len), "huffman: code space overflow");
    codes_[static_cast<std::size_t>(s)] = static_cast<std::uint16_t>(code);
    ++code;
    prev_len = len;
  }
}

void HuffmanTable::build_decode_table() {
  for (int s = 0; s < 256; ++s) {
    const int len = lengths_[static_cast<std::size_t>(s)];
    const std::uint32_t code = codes_[static_cast<std::size_t>(s)];
    const std::uint32_t first = code << (kMaxCodeLen - len);
    const std::uint32_t count = 1u << (kMaxCodeLen - len);
    for (std::uint32_t i = 0; i < count; ++i) {
      decode_[first + i] = {static_cast<std::uint8_t>(s),
                            static_cast<std::uint8_t>(len)};
    }
  }

  // Multi-symbol table: for every window, greedily replay single-symbol
  // decodes while the next code still fits entirely in the window's
  // remaining (real) bits. Shifting the window up zero-fills the low
  // bits, but an entry whose length <= remaining bits never looked at
  // them, so the packed symbols are exactly what the scalar decoder
  // would produce from the live stream.
  constexpr std::uint32_t kWindowMask = (1u << kMaxCodeLen) - 1;
  for (std::uint32_t w = 0; w <= kWindowMask; ++w) {
    MultiEntry e{};
    int consumed = 0;
    while (e.count < 4) {
      const DecodeEntry d = decode_[(w << consumed) & kWindowMask];
      if (e.count > 0 && d.length > kMaxCodeLen - consumed) break;
      e.symbols[e.count++] = d.symbol;
      consumed += d.length;
    }
    e.bits = static_cast<std::uint8_t>(consumed);
    multi_[w] = e;
  }
}

namespace {

// Code bits of a symbol run under `table`.
std::uint64_t code_bits(const HuffmanTable& table, ByteSpan symbols) {
  std::uint64_t bits = 0;
  for (std::uint8_t b : symbols) bits += table.length(b);
  return bits;
}

// Appends one lane's MSB-first bit stream, zero-padded to a byte, to out.
Bytes append_lane(const HuffmanTable& table, ByteSpan symbols, Bytes out) {
  BitWriter writer(std::move(out));
  for (std::uint8_t b : symbols) writer.write(table.code(b), table.length(b));
  return writer.finish();
}

// Scalar reference decode of one lane: `count` symbols from `in`, one
// single-table lookup each, appended to out.
void decode_lane(const HuffmanTable::DecodeEntry* table, ByteSpan in,
                 std::uint64_t count, Bytes& out) {
  // Bit accumulator: keep >= kMaxCodeLen bits available when possible.
  std::uint32_t acc = 0;
  int acc_bits = 0;
  std::size_t byte_pos = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    while (acc_bits < kMaxCodeLen && byte_pos < in.size()) {
      acc = (acc << 8) | in[byte_pos++];
      acc_bits += 8;
    }
    if (acc_bits <= 0) fail("huffman: truncated stream");
    // MSB-align the next kMaxCodeLen bits (zero-pad at stream end).
    const std::uint32_t window =
        acc_bits >= kMaxCodeLen
            ? (acc >> (acc_bits - kMaxCodeLen)) & ((1u << kMaxCodeLen) - 1)
            : (acc << (kMaxCodeLen - acc_bits)) & ((1u << kMaxCodeLen) - 1);
    const auto entry = table[window];
    if (entry.length > acc_bits) fail("huffman: truncated stream");
    acc_bits -= entry.length;
    out.push_back(entry.symbol);
  }
}

}  // namespace

std::uint64_t HuffmanFrame::first(int k) const {
  return std::min(count, static_cast<std::uint64_t>(k) * stride);
}

std::uint64_t HuffmanFrame::symbols(int k) const {
  return (k + 1 == lanes ? count : first(k + 1)) - first(k);
}

HuffmanFrame parse_huffman_frame(ByteSpan input, bool interleaved) {
  HuffmanFrame f;
  std::size_t pos = 0;
  f.count = varint_read(input.data(), input.size(), pos);
  // Untrusted count: every symbol consumes at least one bit, so a count
  // beyond the stream's bit capacity is corruption — reject it before
  // any caller sizes an output buffer by it.
  if (f.count > (static_cast<std::uint64_t>(input.size()) - pos) * 8) {
    fail("huffman: declared count exceeds stream capacity");
  }
  if (!interleaved) {
    f.stride = f.count;
    f.streams[0] = input.subspan(pos);
    return f;
  }
  f.lanes = kHuffmanLanes;
  f.stride = (f.count + kHuffmanLanes - 1) / kHuffmanLanes;
  std::uint64_t lengths[kHuffmanLanes - 1];
  for (auto& len : lengths) len = varint_read(input.data(), input.size(), pos);
  std::uint64_t rest = input.size() - pos;
  for (int k = 0; k < kHuffmanLanes - 1; ++k) {
    if (lengths[k] > rest) fail("huffman: sub-stream lengths exceed stream");
    f.streams[k] = input.subspan(pos, static_cast<std::size_t>(lengths[k]));
    pos += static_cast<std::size_t>(lengths[k]);
    rest -= lengths[k];
  }
  f.streams[kHuffmanLanes - 1] = input.subspan(pos);
  return f;
}

Bytes HuffmanCodec::encode(ByteSpan input) const {
  const int lanes = interleaved_ ? kHuffmanLanes : 1;
  const std::size_t stride = (input.size() + lanes - 1) / lanes;
  ByteSpan lane_symbols[kHuffmanLanes];
  std::uint64_t lane_bytes[kHuffmanLanes];
  std::uint64_t total = 0;
  for (int k = 0; k < lanes; ++k) {
    const std::size_t first = std::min(input.size(), k * stride);
    const std::size_t last = std::min(input.size(), first + stride);
    lane_symbols[k] = input.subspan(first, last - first);
    lane_bytes[k] = (code_bits(*table_, lane_symbols[k]) + 7) / 8;
    total += lane_bytes[k];
  }
  // Sized exactly up front: count, jump header, then each lane's bits.
  std::uint64_t size = varint_size(input.size()) + total;
  for (int k = 0; k + 1 < lanes; ++k) size += varint_size(lane_bytes[k]);
  Bytes out;
  out.reserve(static_cast<std::size_t>(size));
  varint_append(out, input.size());
  for (int k = 0; k + 1 < lanes; ++k) varint_append(out, lane_bytes[k]);
  for (int k = 0; k < lanes; ++k) {
    out = append_lane(*table_, lane_symbols[k], std::move(out));
  }
  return out;
}

std::size_t HuffmanCodec::decoded_length(ByteSpan input) {
  std::size_t pos = 0;
  return static_cast<std::size_t>(
      varint_read(input.data(), input.size(), pos));
}

Bytes HuffmanCodec::decode(ByteSpan input) const {
  const HuffmanFrame f = parse_huffman_frame(input, interleaved_);
  Bytes out;
  out.reserve(f.count);
  for (int k = 0; k < f.lanes; ++k) {
    decode_lane(table_->decode_table(), f.streams[k], f.symbols(k), out);
  }
  return out;
}

}  // namespace recode::codec
