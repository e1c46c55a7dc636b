#include "codec/selector.h"

#include "codec/registry.h"

namespace recode::codec {

PipelineConfig select_pipeline(const sparse::MatrixStats& stats) {
  PipelineConfig cfg = PipelineConfig::udp_dsh();
  // Varint deltas win when the typical intra-row gap fits in one LEB128
  // byte (zigzag(gap) < 128 => gap <= 63) and row starts don't jump far
  // (bounded bandwidth keeps the between-row delta small too).
  const bool tight_gaps =
      stats.mean_intra_row_gap > 0 && stats.mean_intra_row_gap <= 48.0;
  const bool bounded_jumps =
      stats.bandwidth > 0 &&
      static_cast<double>(stats.bandwidth) <
          0.05 * static_cast<double>(std::max(stats.rows, stats.cols));
  if (tight_gaps && bounded_jumps) {
    cfg.index_transform = Transform::kVarintDelta;
  }
  return cfg;
}

PipelineConfig select_pipeline(const sparse::Csr& csr) {
  return select_pipeline(sparse::compute_stats(csr));
}

CodecId select_block_codec(const sparse::BlockStats& stats,
                           const PipelineConfig& cfg) {
  BlockCodec c{cfg.index_transform, cfg.value_transform, cfg.snappy,
               cfg.huffman, cfg.huffman};
  // Index stream: when ~all successive deltas zigzag into one LEB128
  // byte, varint-delta stores the block in ~a quarter of the fixed-width
  // words; otherwise the fixed-width delta stays the safe default
  // (varint can expand scattered indices to 5 bytes per delta).
  if (stats.count >= 2 && stats.fraction_small_gaps >= 0.9) {
    c.index_transform = Transform::kVarintDelta;
  } else {
    c.index_transform = Transform::kDelta32;
  }
  // Value stream: plane-major regrouping pays when the block shares a
  // handful of sign/exponent patterns (real-valued data of one scale) —
  // the top-byte planes become long runs. Constant blocks are already
  // Snappy's best case; transposing would only break the 8-byte repeats.
  if (!stats.constant_values && stats.count >= 64 &&
      stats.distinct_exponents * 8 <= stats.count) {
    c.value_transform = Transform::kByteTranspose;
  }
  return codec_id(c);
}

}  // namespace recode::codec
