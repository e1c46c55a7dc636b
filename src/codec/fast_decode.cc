#include "codec/fast_decode.h"

#include <cstring>

#include "codec/arena.h"
#include "common/error.h"
#include "common/varint.h"

namespace recode::codec::fast {

namespace {

// Unaligned 8-byte big-endian load: the bit buffer appends stream bytes
// MSB-first, so a byte-swapped little-endian load hands us the next 8
// bytes already in shift-in order.
std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_bswap64(v);
#else
  std::uint64_t r = 0;
  for (int i = 0; i < 8; ++i) r = (r << 8) | p[i];
  return r;
#endif
}

std::uint32_t unzigzag32(std::uint32_t z) {
  return (z >> 1) ^ (~(z & 1) + 1);
}

// Snappy element tags (format_description.txt; mirrors snappy.cc).
constexpr int kTagLiteral = 0;
constexpr int kTagCopy1 = 1;
constexpr int kTagCopy2 = 2;
constexpr int kTagCopy4 = 3;

// Match copy with the destination as its own source. off >= 8: forward
// 8-byte chunks — every load trails the corresponding store by at least
// 8 bytes, so already-written output feeds later chunks and the copy
// still replicates runs correctly. off < 8: the chunks would straddle
// unwritten bytes, so fall back to the byte loop that replicates the
// short pattern. Both may write up to 7 bytes past op + len, covered by
// the destination's kArenaSlop margin.
void copy_match(std::uint8_t* dst, std::size_t op, std::size_t off,
                std::size_t len) {
  const std::uint8_t* src = dst + (op - off);
  std::uint8_t* out = dst + op;
  if (off >= 8) {
    for (std::size_t i = 0; i < len; i += 8) {
      std::uint64_t v;
      std::memcpy(&v, src + i, 8);
      std::memcpy(out + i, &v, 8);
    }
  } else {
    for (std::size_t i = 0; i < len; ++i) out[i] = src[i];
  }
}

}  // namespace

std::size_t huffman_decode(const HuffmanTable& table, ByteSpan input,
                           std::uint8_t* dst, bool interleaved) {
  // Same header validation (count capacity, jump-table bounds) and the
  // same error messages as the reference decoder, by construction.
  const HuffmanFrame frame = parse_huffman_frame(input, interleaved);
  const HuffmanTable::MultiEntry* multi = table.multi_table();
  const HuffmanTable::DecodeEntry* single = table.decode_table();
  constexpr std::uint32_t kWindowMask = (1u << kMaxCodeLen) - 1;

  // One sub-stream mid-decode: `bit` bits of `in` consumed, output
  // written up to `out`, which stops at the lane's own range end.
  struct Lane {
    const std::uint8_t* in;
    std::size_t in_bytes;
    std::size_t bit;
    std::uint8_t* out;
    std::uint8_t* out_end;
  };
  Lane lanes[kHuffmanLanes]{};
  for (int k = 0; k < frame.lanes; ++k) {
    std::uint8_t* out = dst + frame.first(k);
    lanes[k] = {frame.streams[k].data(), frame.streams[k].size(), 0, out,
                out + frame.symbols(k)};
  }

  // A word-wise step reads one unaligned 8-byte load at the lane's bit
  // position — the next 57..64 real stream bits, MSB-aligned — and makes
  // up to `probes` multi-table probes from it, each emitting up to 4
  // symbols with one 4-byte store. Three probes consume at most 45 bits,
  // so every probe's 15-bit window lies in real bits. A step runs only
  // while the load stays inside the lane's sub-stream and every store
  // stays inside the lane's output range, so no lane ever writes over
  // another's symbols and no step can hit a truncation.
  const auto ready = [](const Lane& l, int probes) {
    return (l.bit >> 3) + 8 <= l.in_bytes &&
           l.out_end - l.out >= 4 * probes;
  };
  const auto peek = [](const Lane& l) {
    return load_be64(l.in + (l.bit >> 3)) << (l.bit & 7);
  };
  const auto probe = [multi](Lane& l, std::uint64_t& window) {
    const HuffmanTable::MultiEntry& e = multi[window >> (64 - kMaxCodeLen)];
    std::memcpy(l.out, e.symbols, 4);
    l.out += e.count;
    l.bit += e.bits;
    window <<= e.bits;
  };

  // Interleaved bulk: the four lanes' probes are independent, so their
  // table lookups overlap instead of each waiting on the previous code
  // length. Runs until any lane nears the end of its sub-stream.
  if (frame.lanes == kHuffmanLanes) {
    for (;;) {
      bool all_ready = true;
      for (const Lane& l : lanes) all_ready &= ready(l, 3);
      if (!all_ready) break;
      std::uint64_t windows[kHuffmanLanes];
      for (int k = 0; k < kHuffmanLanes; ++k) windows[k] = peek(lanes[k]);
      for (int p = 0; p < 3; ++p) {
        for (int k = 0; k < kHuffmanLanes; ++k) probe(lanes[k], windows[k]);
      }
    }
  }

  // Per-lane finish (the whole decode of a 1-lane payload): word-wise
  // steps while they fit, then a scalar tail of single-symbol lookups on
  // zero-padded windows, identical to HuffmanCodec::decode including its
  // truncation errors.
  for (int k = 0; k < frame.lanes; ++k) {
    Lane& l = lanes[k];
    while (ready(l, 3)) {
      std::uint64_t window = peek(l);
      probe(l, window);
      probe(l, window);
      probe(l, window);
    }
    while (ready(l, 1)) {
      std::uint64_t window = peek(l);
      probe(l, window);
    }
    const std::size_t total_bits = l.in_bytes * 8;
    while (l.out < l.out_end) {
      if (l.bit >= total_bits) fail("huffman: truncated stream");
      const std::size_t byte = l.bit >> 3;
      std::uint32_t v = 0;  // the next 3 bytes, zero past the end
      for (std::size_t i = byte; i < byte + 3; ++i) {
        v = (v << 8) | (i < l.in_bytes ? l.in[i] : 0u);
      }
      const std::uint32_t window =
          (v >> (24 - kMaxCodeLen - (l.bit & 7))) & kWindowMask;
      const HuffmanTable::DecodeEntry e = single[window];
      if (e.length > total_bits - l.bit) fail("huffman: truncated stream");
      l.bit += e.length;
      *l.out++ = e.symbol;
    }
  }
  return static_cast<std::size_t>(frame.count);
}

std::size_t snappy_decode(ByteSpan input, std::uint8_t* dst) {
  std::size_t pos = 0;
  const std::uint64_t decoded =
      varint_read(input.data(), input.size(), pos);
  // Same expansion-bound rejection as the reference decoder.
  const std::size_t body = input.size() - pos;
  if (decoded > static_cast<std::uint64_t>(body) * 24 + 8) {
    fail("snappy: declared length implausible for stream size");
  }

  const std::uint8_t* p = input.data();
  const std::size_t n = input.size();
  std::size_t op = 0;

  auto need = [&](std::size_t count) {
    if (pos + count > n) fail("snappy: truncated stream");
  };
  auto room = [&](std::size_t count) {
    if (count > decoded - op) {
      fail("snappy: output exceeds declared length");
    }
  };

  while (pos < n) {
    const std::uint8_t tag = p[pos++];
    switch (tag & 3) {
      case kTagLiteral: {
        std::size_t len = (tag >> 2) + 1;
        if (len > 60) {
          const std::size_t extra = len - 60;  // 1..4 length bytes
          need(extra);
          len = 0;
          for (std::size_t i = 0; i < extra; ++i) {
            len |= static_cast<std::size_t>(p[pos + i]) << (8 * i);
          }
          len += 1;
          pos += extra;
        }
        need(len);
        room(len);
        if (len <= 16 && pos + 16 <= n) {
          // One 16-byte chunk covers the common short literal; the
          // overshoot lands in the destination slop.
          std::memcpy(dst + op, p + pos, 16);
        } else {
          std::memcpy(dst + op, p + pos, len);
        }
        op += len;
        pos += len;
        break;
      }
      case kTagCopy1: {
        need(1);
        const std::size_t len = ((tag >> 2) & 0x7) + 4;
        const std::size_t off =
            (static_cast<std::size_t>(tag >> 5) << 8) | p[pos++];
        if (off == 0 || off > op) fail("snappy: bad copy offset");
        room(len);
        copy_match(dst, op, off, len);
        op += len;
        break;
      }
      case kTagCopy2: {
        need(2);
        const std::size_t len = (tag >> 2) + 1;
        const std::size_t off = static_cast<std::size_t>(p[pos]) |
                                (static_cast<std::size_t>(p[pos + 1]) << 8);
        pos += 2;
        if (off == 0 || off > op) fail("snappy: bad copy offset");
        room(len);
        copy_match(dst, op, off, len);
        op += len;
        break;
      }
      case kTagCopy4: {
        need(4);
        const std::size_t len = (tag >> 2) + 1;
        std::size_t off = 0;
        for (int i = 0; i < 4; ++i) {
          off |= static_cast<std::size_t>(p[pos + i]) << (8 * i);
        }
        pos += 4;
        if (off == 0 || off > op) fail("snappy: bad copy offset");
        room(len);
        copy_match(dst, op, off, len);
        op += len;
        break;
      }
    }
  }
  if (op != decoded) fail("snappy: length mismatch after decode");
  return op;
}

std::size_t delta_decode(ByteSpan input, std::uint8_t* dst) {
  if (input.size() % 4 != 0) fail("delta32: input not a multiple of 4 bytes");
  const std::uint8_t* p = input.data();
  std::uint32_t acc = 0;
  for (std::size_t i = 0; i < input.size(); i += 4) {
    std::uint32_t z;
    std::memcpy(&z, p + i, 4);
    acc += unzigzag32(z);
    std::memcpy(dst + i, &acc, 4);
  }
  return input.size();
}

std::size_t varint_delta_decode(ByteSpan input, std::uint8_t* dst,
                                std::size_t dst_cap) {
  std::uint32_t acc = 0;
  std::size_t pos = 0;
  std::size_t out = 0;
  while (pos < input.size()) {
    const std::uint64_t z = varint_read(input.data(), input.size(), pos);
    if (z > 0xFFFFFFFFull) fail("varint-delta32: delta exceeds 32 bits");
    acc += unzigzag32(static_cast<std::uint32_t>(z));
    // Past dst_cap only the running total advances: the caller detects
    // the overflow as a size mismatch after the full parse, exactly
    // where the reference decode-then-check order surfaces it.
    if (out + 4 <= dst_cap) std::memcpy(dst + out, &acc, 4);
    out += 4;
  }
  return out;
}

std::size_t byte_untranspose(ByteSpan input, std::uint8_t* dst) {
  const std::size_t n = input.size() / 8;
  const std::uint8_t* p = input.data();
  // Gather each record's 8 plane bytes into one word, store with a single
  // 8-byte write. Plane j's byte sits at bit 8*j, so the little-endian
  // store lands it at record offset j.
  for (std::size_t r = 0; r < n; ++r) {
    std::uint64_t w = 0;
    for (std::size_t j = 0; j < 8; ++j) {
      w |= static_cast<std::uint64_t>(p[j * n + r]) << (8 * j);
    }
    std::memcpy(dst + r * 8, &w, 8);
  }
  if (const std::size_t tail = input.size() - n * 8; tail != 0) {
    std::memcpy(dst + n * 8, p + n * 8, tail);
  }
  return input.size();
}

}  // namespace recode::codec::fast
