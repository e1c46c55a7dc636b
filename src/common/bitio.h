// MSB-first bit stream reader/writer used by the canonical Huffman codec.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.h"

namespace recode {

// Accumulates bits MSB-first into a byte vector. The final byte is
// zero-padded on finish(). Bits gather in a 64-bit accumulator and leave
// it 32 at a time, so the per-symbol cost of a Huffman encode is a shift,
// an or and a compare, not a loop over the code's bits.
class BitWriter {
 public:
  BitWriter() = default;
  // Appends after `prefix` (already whole bytes), e.g. a length header.
  explicit BitWriter(std::vector<std::uint8_t> prefix)
      : bytes_(std::move(prefix)) {}

  // Writes the low `nbits` bits of `value`, most significant first.
  void write(std::uint32_t value, int nbits) {
    RECODE_CHECK(nbits >= 0 && nbits <= 32);
    // nacc_ < 32 on entry, so the accumulator never holds more than 63
    // live bits; the bits above them are stale and masked on the way out.
    acc_ = (acc_ << nbits) | (value & ((std::uint64_t{1} << nbits) - 1));
    nacc_ += nbits;
    if (nacc_ >= 32) {
      nacc_ -= 32;
      const auto word = static_cast<std::uint32_t>(acc_ >> nacc_);
      bytes_.push_back(static_cast<std::uint8_t>(word >> 24));
      bytes_.push_back(static_cast<std::uint8_t>(word >> 16));
      bytes_.push_back(static_cast<std::uint8_t>(word >> 8));
      bytes_.push_back(static_cast<std::uint8_t>(word));
    }
    bit_count_ += static_cast<std::size_t>(nbits);
  }

  // Pads the trailing partial byte with zeros and returns the buffer
  // (prefix included).
  std::vector<std::uint8_t> finish() {
    for (; nacc_ >= 8; nacc_ -= 8) {
      bytes_.push_back(static_cast<std::uint8_t>(acc_ >> (nacc_ - 8)));
    }
    if (nacc_ > 0) {
      bytes_.push_back(static_cast<std::uint8_t>(acc_ << (8 - nacc_)));
    }
    acc_ = 0;
    nacc_ = 0;
    return std::move(bytes_);
  }

  std::size_t bit_count() const { return bit_count_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint64_t acc_ = 0;  // low nacc_ bits are pending output
  int nacc_ = 0;
  std::size_t bit_count_ = 0;
};

// Reads bits MSB-first from a byte buffer. Does not own the buffer.
class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  // Reads `nbits` bits MSB-first. Throws on exhaustion.
  std::uint32_t read(int nbits) {
    RECODE_CHECK(nbits >= 0 && nbits <= 32);
    std::uint32_t v = 0;
    for (int i = 0; i < nbits; ++i) v = (v << 1) | read_bit();
    return v;
  }

  std::uint32_t read_bit() {
    if (byte_pos_ >= size_) fail("BitReader: out of data");
    const std::uint32_t bit = (data_[byte_pos_] >> (7 - bit_pos_)) & 1u;
    if (++bit_pos_ == 8) {
      bit_pos_ = 0;
      ++byte_pos_;
    }
    return bit;
  }

  // Bits consumed so far.
  std::size_t position() const { return byte_pos_ * 8 + bit_pos_; }

  bool exhausted() const { return byte_pos_ >= size_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t byte_pos_ = 0;
  int bit_pos_ = 0;
};

}  // namespace recode
