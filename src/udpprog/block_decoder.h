// Runs the full per-block decompression pipeline on the UDP lane
// simulator: Huffman decode -> Snappy decode -> inverse delta, as a
// series of steps in a single lane (§V-A: "run as a series of steps in a
// single lane of the UDP", intermediate buffers in the lane scratchpad).
//
// Outputs are produced entirely by the simulated programs; the software
// codecs are used only by callers to cross-validate.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "codec/arena.h"
#include "codec/pipeline.h"
#include "udp/accelerator.h"
#include "udp/effclip.h"
#include "udp/lane.h"

namespace recode::udpprog {

struct StageCycles {
  std::uint64_t huffman = 0;
  std::uint64_t snappy = 0;
  std::uint64_t delta = 0;

  std::uint64_t total() const { return huffman + snappy + delta; }
};

struct BlockResult {
  std::vector<sparse::index_t> indices;
  std::vector<double> values;
  StageCycles index_cycles;
  StageCycles value_cycles;

  // One block is decoded start-to-finish on one lane.
  std::uint64_t lane_cycles() const {
    return index_cycles.total() + value_cycles.total();
  }
};

class UdpPipelineDecoder {
 public:
  // Builds and lays out the stage programs for this matrix (the Huffman
  // programs are specialized to its trained tables).
  explicit UdpPipelineDecoder(const codec::CompressedMatrix& cm,
                              udp::LaneConfig lane_config = {});

  // Decodes block b on the simulator. Throws recode::Error if the stream
  // is malformed or the decoded sizes disagree with the blocking plan.
  BlockResult decode_block(std::size_t b);

  // Same decode, with the block's compressed streams supplied by the
  // caller (a ContainerSource lease) instead of read from cm.blocks, so
  // a header-only matrix decodes too. Bitwise-identical to the resident
  // overload for the same bytes.
  BlockResult decode_block(std::size_t b, codec::ByteSpan index_data,
                           codec::ByteSpan value_data);

  // Dispatch-memory packing achieved by EffCLiP across all stage programs
  // (min over layouts) — tests assert near-perfect density.
  double min_layout_density() const;

  // Total dispatch-memory slots across the stage programs (the lane's
  // program footprint).
  std::size_t total_table_slots() const;

 private:
  // Runs `layout` over `input`; copies the scratch bytes [0, R5) into the
  // given arena slot and returns a span over them (valid until the slot
  // is reused).
  codec::ByteSpan run_stage(const udp::Layout& layout, codec::ByteSpan input,
                            std::uint64_t init_count, std::uint64_t& cycles,
                            std::size_t out_slot);

  // The Huffman stage: one program run over a 1-lane payload, or one run
  // per sub-stream of an interleaved payload (count supplied in R1, the
  // jump header parsed by codec::parse_huffman_frame), each lane's
  // symbols landing at its offset in out_slot.
  codec::ByteSpan run_huffman_stage(const udp::Layout& layout,
                                    codec::ByteSpan input, bool interleaved,
                                    std::uint64_t& cycles,
                                    std::size_t out_slot);

  // Stage intermediates ping-pong between the arena's scratch slabs; the
  // last stage lands in out_slot. Zero heap allocations once the arena is
  // warm (the lane's own scratchpad aside — that models UDP hardware).
  // The stage flags come from the block's codec (codec/registry.h), so
  // mixed-id streams dispatch per block like the host engines.
  codec::ByteSpan decode_stream(codec::ByteSpan data, bool huffman_on,
                                bool interleaved, bool snappy_on,
                                codec::Transform transform,
                                const udp::Layout* huffman_layout,
                                std::size_t expect_bytes, std::size_t out_slot,
                                StageCycles& cycles);

  const codec::CompressedMatrix* cm_;
  codec::DecodeArena arena_;
  udp::Program delta_program_;
  udp::Program varint_delta_program_;
  udp::Program transpose_program_;
  udp::Program snappy_program_;
  udp::Program index_huffman_program_;
  udp::Program value_huffman_program_;
  std::unique_ptr<udp::Layout> delta_layout_;
  std::unique_ptr<udp::Layout> varint_delta_layout_;
  std::unique_ptr<udp::Layout> transpose_layout_;
  std::unique_ptr<udp::Layout> snappy_layout_;
  std::unique_ptr<udp::Layout> index_huffman_layout_;
  std::unique_ptr<udp::Layout> value_huffman_layout_;
  udp::LaneConfig lane_config_;
};

}  // namespace recode::udpprog
