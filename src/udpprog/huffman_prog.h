// Canonical Huffman decode as a UDP program, specialized per table.
//
// This is the showcase for multi-way dispatch: the first level consumes
// 8 stream bits and dispatches 256 ways; prefixes that fully determine a
// (length <= 8) code emit their symbol directly, rewinding the over-read
// bits; longer codes fall through to a per-prefix second-level state that
// dispatches on 7 more bits (kMaxCodeLen = 15). Each emitted symbol loops
// through a count-check state. No comparisons, no branch prediction —
// dictionary decode as table walk, which is the workload the UDP was
// built for (§III-E: "80% cycle waste" on CPUs from dispatch branches).
//
// Stream format matches one lane of codec::HuffmanCodec (huffman.h): an
// MSB-first bit stream. Two ways in, picked by R4:
//   * a 1-lane payload (v1/v2 files): R4 = 0, and the program parses the
//     leading varint(symbol count) in-program;
//   * one sub-stream of a 4-lane interleaved payload: R4 = 1, and R1
//     holds the sub-stream's symbol count. The engine parses the jump
//     header with codec::parse_huffman_frame and runs the program once
//     per sub-stream (UdpPipelineDecoder).
// Register convention:
//   R1 (in)  symbol count when R4 = 1 (ignored when R4 = 0)
//   R4 (in)  1 = count supplied in R1, 0 = parse it from the stream
//   R5 (in)  scratchpad output base; (out) one past the last byte written
#pragma once

#include "codec/huffman.h"
#include "udp/program.h"

namespace recode::udpprog {

inline constexpr int kHuffmanCountReg = 1;
inline constexpr int kHuffmanCountGivenReg = 4;
inline constexpr int kHuffmanOutReg = 5;

udp::Program build_huffman_decode_program(const codec::HuffmanTable& table);

}  // namespace recode::udpprog
