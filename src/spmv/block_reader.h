// The one block-read path of every compressed-domain engine (the decode
// step of the paper's Fig 7 tiled loop). Engines reach compressed bytes
// only through a codec::ContainerSource and decode them only through a
// BlockReader, whatever backend holds the bytes: a resident matrix is
// just the default source (codec::make_resident_source), so no engine
// carries a resident-only branch, and every engine x backend x decode
// engine combination runs the same code.
//
// A BlockReader is one worker's decode context: the software-engine
// arenas (monotonic capacity, so a warmed reader decodes without heap
// allocation), the lazily built UDP lane simulator, the decoded-index
// range check, and the per-block counters. BlockLease and SourceRun end
// a lease and a run on every exit, unwinding included (release() and
// end_run() report no recoverable errors, so they are safe there).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>

#include "codec/arena.h"
#include "codec/container_source.h"
#include "codec/pipeline.h"
#include "udpprog/block_decoder.h"

namespace recode::spmv {

enum class DecodeEngine {
  kSoftware,      // software codecs (the functional reference)
  kUdpSimulated,  // every block through the UDP lane simulator
};

const char* decode_engine_name(DecodeEngine engine);

// Throws recode::Error if any decoded column index falls outside
// [0, cols). A corrupt-but-well-framed index stream must surface as a
// recoverable error, never as an out-of-bounds gather in the multiply
// (the PR 1 hardening contract, extended to the SpMV consumers).
void check_block_indices(std::span<const sparse::index_t> indices,
                         sparse::index_t cols);

// A row band: consecutive blocks [first_block, first_block + block_count)
// whose rows [first_row, end_row) no other band touches. The unit of
// scheduling and of source leases in the banded engines.
struct RowBand {
  std::size_t first_block = 0;
  std::size_t block_count = 0;
  sparse::index_t first_row = 0;
  sparse::index_t end_row = 0;  // exclusive
};

// `source` when it serves an out-of-core container; otherwise (null or
// resident) a resident source over cm.blocks. cm must outlive the result.
std::shared_ptr<codec::ContainerSource> source_or_resident(
    const codec::CompressedMatrix& cm,
    std::shared_ptr<codec::ContainerSource> source);

// Pre-provisions `leases` concurrent leases of the largest band's extent
// (ContainerSource::reserve), so a warmed out-of-core steady state never
// grows the source's window pool. No-op for sources without extents.
void reserve_for_bands(codec::ContainerSource& source,
                       std::span<const RowBand> bands, std::size_t leases);

// Holds the lease on blocks [first, first + count) until destroyed.
class BlockLease {
 public:
  BlockLease(codec::ContainerSource& source, std::size_t first,
             std::size_t count)
      : source_(&source), first_(first), count_(count) {
    source.acquire(first, count);
  }
  ~BlockLease() { source_->release(first_, count_); }
  BlockLease(const BlockLease&) = delete;
  BlockLease& operator=(const BlockLease&) = delete;

 private:
  codec::ContainerSource* source_;
  std::size_t first_;
  std::size_t count_;
};

// Run boundary: calls end_run() when destroyed, reclaiming prefetched
// ranges a finished or failed run never consumed.
class SourceRun {
 public:
  explicit SourceRun(codec::ContainerSource& source) : source_(&source) {}
  ~SourceRun() { source_->end_run(); }
  SourceRun(const SourceRun&) = delete;
  SourceRun& operator=(const SourceRun&) = delete;

 private:
  codec::ContainerSource* source_;
};

// What a reader decoded. bytes counts each block's compressed streams
// plus its codec-id dispatch byte (container v2), matching
// CompressedMatrix::stream_bytes().
struct DecodeCounts {
  std::uint64_t blocks = 0;
  std::uint64_t bytes = 0;
  std::uint64_t udp_cycles = 0;  // kUdpSimulated only
};

class BlockReader {
 public:
  // Serial-walk lease granularity: enough blocks that an out-of-core
  // source's prefetch covers real read latency, few enough that at most
  // two chunks of compressed bytes are addressable at once.
  static constexpr std::size_t kChunkBlocks = 16;

  BlockReader(const codec::CompressedMatrix& cm,
              codec::ContainerSource& source,
              DecodeEngine engine = DecodeEngine::kSoftware);

  void set_engine(DecodeEngine engine) { engine_ = engine; }

  // Decodes block b, whose bytes a held lease must cover, and checks its
  // column indices. The spans stay valid until the next decode.
  codec::DecodedBlock decode(std::size_t b);

  // Leases [first, first + count), hints the range the caller will lease
  // next (if any) to the source, then calls f(b, decoded) per block.
  // Hinting only after the lease is held keeps a staged-but-unconsumed
  // range from starving this acquire of window budget.
  template <typename F>
  void for_each(std::size_t first, std::size_t count, F&& f,
                std::size_t next_first = 0, std::size_t next_count = 0) {
    BlockLease lease(*source_, first, count);
    if (next_count > 0) source_->prefetch(next_first, next_count);
    for (std::size_t b = first; b < first + count; ++b) f(b, decode(b));
  }

  // Serial walk over every block in stream order: kChunkBlocks-block
  // leases with the next chunk prefetched before the current one
  // decodes, so storage reads overlap decode without threads. Ends the
  // source run on every exit.
  template <typename F>
  void for_each_chunked(F&& f) {
    SourceRun run(*source_);
    const std::size_t n = cm_->blocking.blocks.size();
    if (n > 0) source_->prefetch(0, std::min(kChunkBlocks, n));
    for (std::size_t first = 0; first < n; first += kChunkBlocks) {
      const std::size_t next = first + kChunkBlocks;
      for_each(first, std::min(kChunkBlocks, n - first), f, next,
               next < n ? std::min(kChunkBlocks, n - next) : 0);
    }
  }

  codec::DecodeArena& scratch_arena() { return scratch_; }
  codec::DecodeArena& out_arena() { return out_; }

  // Accumulated by decode(); owners reset or read it as they need.
  DecodeCounts counts;

 private:
  const codec::CompressedMatrix* cm_;
  codec::ContainerSource* source_;
  DecodeEngine engine_;
  // Software engine: stage intermediates ping-pong in scratch_, the
  // final stages land in out_'s slabs (no output copy).
  codec::DecodeArena scratch_;
  codec::DecodeArena out_;
  // UDP engine: built on first use; the lane simulator returns vectors,
  // held here so the decoded spans outlive decode().
  std::unique_ptr<udpprog::UdpPipelineDecoder> udp_;
  udpprog::BlockResult udp_result_;
};

}  // namespace recode::spmv
