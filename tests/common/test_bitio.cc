#include "common/bitio.h"

#include <gtest/gtest.h>

#include "common/prng.h"

namespace recode {
namespace {

TEST(BitWriter, PacksMsbFirst) {
  BitWriter w;
  w.write(0b101, 3);
  w.write(0b01, 2);
  w.write(0b110, 3);
  const auto bytes = w.finish();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b10101110);
}

TEST(BitWriter, PadsFinalByteWithZeros) {
  BitWriter w;
  w.write(0b11, 2);
  const auto bytes = w.finish();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b11000000);
}

TEST(BitWriter, TracksBitCount) {
  BitWriter w;
  w.write(0, 5);
  w.write(0, 11);
  EXPECT_EQ(w.bit_count(), 16u);
}

// The word-wise accumulator must emit exactly the bytes a one-bit-at-a-
// time packer does, for every width 0..32 and with stray bits above
// `nbits` in the value (write() takes only the low nbits).
TEST(BitWriter, WordWiseMatchesBitByBitPacking) {
  Prng prng(7);
  for (int trial = 0; trial < 20; ++trial) {
    BitWriter w;
    std::vector<std::uint8_t> want;
    std::uint8_t cur = 0;
    int ncur = 0;
    const int n = static_cast<int>(prng.next_below(300));
    for (int i = 0; i < n; ++i) {
      const int nbits = static_cast<int>(prng.next_below(33));
      const auto value = static_cast<std::uint32_t>(prng.next());
      w.write(value, nbits);
      for (int b = nbits - 1; b >= 0; --b) {
        cur = static_cast<std::uint8_t>((cur << 1) | ((value >> b) & 1u));
        if (++ncur == 8) {
          want.push_back(cur);
          cur = 0;
          ncur = 0;
        }
      }
    }
    if (ncur > 0) want.push_back(static_cast<std::uint8_t>(cur << (8 - ncur)));
    EXPECT_EQ(w.finish(), want) << "trial " << trial;
  }
}

TEST(BitReader, ReadsBackWhatWriterWrote) {
  Prng prng(42);
  std::vector<std::pair<std::uint32_t, int>> items;
  BitWriter w;
  for (int i = 0; i < 1000; ++i) {
    const int nbits = 1 + static_cast<int>(prng.next_below(24));
    const auto value =
        static_cast<std::uint32_t>(prng.next()) & ((1u << nbits) - 1);
    items.emplace_back(value, nbits);
    w.write(value, nbits);
  }
  const auto bytes = w.finish();
  BitReader r(bytes.data(), bytes.size());
  for (const auto& [value, nbits] : items) {
    EXPECT_EQ(r.read(nbits), value);
  }
}

TEST(BitReader, ThrowsWhenExhausted) {
  const std::uint8_t byte = 0xFF;
  BitReader r(&byte, 1);
  EXPECT_EQ(r.read(8), 0xFFu);
  EXPECT_THROW(r.read_bit(), Error);
}

TEST(BitReader, PositionCountsBits) {
  const std::uint8_t bytes[2] = {0xAB, 0xCD};
  BitReader r(bytes, 2);
  r.read(3);
  EXPECT_EQ(r.position(), 3u);
  r.read(8);
  EXPECT_EQ(r.position(), 11u);
}

}  // namespace
}  // namespace recode
