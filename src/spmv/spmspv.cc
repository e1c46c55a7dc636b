#include "spmv/spmspv.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/error.h"
#include "spmv/block_reader.h"
#include "telemetry/telemetry.h"

namespace recode::spmv {

namespace {

// Kernel-hop feed, one call per processed block (skipped blocks feed
// nothing — they were never decoded, so conservation holds). Same byte
// model as the SpMV kernel: the full decoded stream is consumed (phase 1
// multiplies every nnz against the dense frontier scatter), the block's
// rows are written, and x/y vector traffic rides the vector counter.
inline void ledger_kernel_block(const sparse::BlockRange& range) {
  if constexpr (telemetry::kEnabled) {
    const auto count = static_cast<std::uint64_t>(range.count);
    const std::uint64_t rows = static_cast<std::uint64_t>(range.last_row) -
                               static_cast<std::uint64_t>(range.first_row) + 1;
    telemetry::MovementLedger& ledger = telemetry::MovementLedger::global();
    telemetry::MovementLedger::HopFlow& f =
        ledger.hop(telemetry::Hop::kKernel);
    f.bytes_in.add(count * 12);
    f.bytes_out.add(rows * 8);
    f.ops.add(1);
    ledger.kernel_vector_bytes().add(count * 8 + rows * 16);
    ledger.kernel_flops().add(2 * count);
    ledger.kernel_nnz().add(count);
  }
}

}  // namespace

struct SpmspvEngine::WorkerScratch {
  WorkerScratch(const codec::CompressedMatrix& cm,
                codec::ContainerSource& source)
      : reader(cm, source) {}

  BlockReader reader;
  std::vector<double> products;  // phase-1 output, one slot per block nnz
};

SpmspvEngine::~SpmspvEngine() = default;

SpmspvEngine::SpmspvEngine(const codec::CompressedMatrix& cm, SpmspvConfig cfg)
    : SpmspvEngine(cm, nullptr, cfg) {}

SpmspvEngine::SpmspvEngine(const codec::CompressedMatrix& cm,
                           std::shared_ptr<codec::ContainerSource> source,
                           SpmspvConfig cfg)
    : cm_(&cm),
      source_(source_or_resident(cm, std::move(source))),
      cfg_(cfg) {
  bands_ = make_row_bands(cm_->blocking, cfg_.blocks_per_band);
  const std::size_t workers = resolve_workers(cfg_.threads, bands_.size());
  in_frontier_.assign(static_cast<std::size_t>(cm_->cols), 0);
  x_dense_.assign(static_cast<std::size_t>(cm_->cols), 0.0);
  band_stats_.resize(bands_.size());
  band_order_.resize(bands_.size());
  std::iota(band_order_.begin(), band_order_.end(), 0u);
  for (std::size_t i = 0; i < workers; ++i) {
    scratch_.push_back(std::make_unique<WorkerScratch>(cm, *source_));
  }
  survey_blocks();
  reserve_for_bands(*source_, bands_, 2 * workers);
  runner_ = std::make_unique<BandRunner>(workers, bands_.size());
}

// One streaming pass over every block to record column spans and
// signatures — the metadata multiply() skips against. Runs at
// construction, outside any ledger run window (see spmspv.h).
void SpmspvEngine::survey_blocks() {
  summaries_.resize(cm_->blocking.blocks.size());
  scratch_[0]->reader.for_each_chunked(
      [&](std::size_t b, const codec::DecodedBlock& decoded) {
        BlockSummary& s = summaries_[b];
        s.col_min = cm_->cols;
        s.col_max = -1;
        s.signature = 0;
        for (const sparse::index_t c : decoded.indices) {
          s.col_min = std::min(s.col_min, c);
          s.col_max = std::max(s.col_max, c);
          s.signature |= column_bit(c);
        }
      });
}

SpmspvEngine::BlockRun SpmspvEngine::needed_run(const RowBand& band,
                                                std::size_t from) const {
  const std::size_t end = band.first_block + band.block_count;
  while (from < end && !block_needed(summaries_[from])) ++from;
  std::size_t last = from;
  while (last < end && block_needed(summaries_[last])) ++last;
  return {from, last - from};
}

bool SpmspvEngine::block_needed(const BlockSummary& s) const {
  if (s.col_min > frontier_max_ || s.col_max < frontier_min_ ||
      (s.signature & frontier_signature_) == 0) {
    return false;
  }
  // Exact span membership: a scattered frontier overlaps almost every
  // block's span in the min/max sense, but binary search tells us
  // whether a frontier column actually lands inside [col_min, col_max].
  const auto it = std::lower_bound(frontier_cols_.begin(),
                                   frontier_cols_.end(), s.col_min);
  return it != frontier_cols_.end() && *it <= s.col_max;
}

void SpmspvEngine::process_band(std::size_t band_id, WorkerScratch& ws,
                                std::span<double> y) {
  const RowBand& band = bands_[band_id];
  SpmspvStats& bs = band_stats_[band_id];
  bs = SpmspvStats{};
  bs.blocks_total = band.block_count;
  const auto& blocks = cm_->blocking.blocks;
  const DecodeCounts before = ws.reader.counts;

  // Walk the band as maximal contiguous runs of non-skippable blocks so
  // out-of-core leases cover only the bytes that will be decoded; each
  // run's lease hints the next run to the source.
  for (BlockRun run = needed_run(band, band.first_block); run.count > 0;) {
    const BlockRun next = needed_run(band, run.first + run.count);
    const auto body = [&](std::size_t b, const codec::DecodedBlock& decoded) {
      const sparse::BlockRange& range = blocks[b];
      telemetry::StageTimer ledger_timer(
          telemetry::MovementLedger::global().hop(telemetry::Hop::kKernel).ns);
      // Phase 1 — row-boundary-free: products against the dense
      // frontier scatter, no row logic (Liu & Vinter's load-balanced
      // phase; x_dense_ is 0.0 outside the frontier, so this is the
      // same multiply sequence as the dense kernel).
      ws.products.resize(range.count);
      for (std::size_t n = 0; n < range.count; ++n) {
        const auto col = static_cast<std::size_t>(decoded.indices[n]);
        ws.products[n] = decoded.values[n] * x_dense_[col];
        bs.products += in_frontier_[col];
      }
      // Phase 2 — segmented fold: walk the covered rows once, seed each
      // partial from y so rows spanning blocks accumulate exactly like
      // the serial row-walk kernel, and add products in stream order.
      const auto row_ptr = std::span<const sparse::offset_t>(cm_->row_ptr);
      std::size_t n = 0;
      for (sparse::index_t r = range.first_row; r <= range.last_row; ++r) {
        const auto row_end = static_cast<std::size_t>(
            row_ptr[static_cast<std::size_t>(r) + 1]);
        const std::size_t seg_end =
            std::min(row_end - range.first_nnz, range.count);
        double partial = y[static_cast<std::size_t>(r)];
        for (; n < seg_end; ++n) partial += ws.products[n];
        y[static_cast<std::size_t>(r)] = partial;
      }
      ledger_kernel_block(range);
    };
    ws.reader.for_each(run.first, run.count, body, next.first, next.count);
    run = next;
  }
  bs.blocks_decoded = ws.reader.counts.blocks - before.blocks;
  bs.compressed_bytes = ws.reader.counts.bytes - before.bytes;
  bs.blocks_skipped = band.block_count - bs.blocks_decoded;
  if (bs.blocks_skipped == band.block_count) bs.bands_skipped = 1;
}

void SpmspvEngine::multiply(const SparseVector& x, std::span<double> y) {
  RECODE_PARSE_CHECK(x.indices.size() == x.values.size(),
                     "spmspv: frontier indices/values size mismatch");
  RECODE_CHECK(y.size() == static_cast<std::size_t>(cm_->rows));
  std::fill(y.begin(), y.end(), 0.0);

  // Validate before scattering so a bad frontier leaves the engine clean.
  sparse::index_t prev = -1;
  for (const sparse::index_t c : x.indices) {
    RECODE_PARSE_CHECK(c >= 0 && c < cm_->cols,
                       "spmspv: frontier index out of range");
    RECODE_PARSE_CHECK(c > prev,
                       "spmspv: frontier must be sorted and duplicate-free");
    prev = c;
  }

  // Scatter the frontier and build its span + signature.
  frontier_signature_ = 0;
  frontier_min_ = cm_->cols;
  frontier_max_ = -1;
  frontier_cols_.assign(x.indices.begin(), x.indices.end());
  for (std::size_t i = 0; i < x.indices.size(); ++i) {
    const sparse::index_t c = x.indices[i];
    in_frontier_[static_cast<std::size_t>(c)] = 1;
    x_dense_[static_cast<std::size_t>(c)] = x.values[i];
    frontier_signature_ |= column_bit(c);
    frontier_min_ = std::min(frontier_min_, c);
    frontier_max_ = std::max(frontier_max_, c);
  }

  // Un-scatter the frontier (O(|x|), keeps the dense buffers warm) —
  // also before an error propagates, so the engine stays usable.
  const auto unscatter = [&] {
    for (const sparse::index_t c : x.indices) {
      in_frontier_[static_cast<std::size_t>(c)] = 0;
      x_dense_[static_cast<std::size_t>(c)] = 0.0;
    }
  };

  SpmspvStats totals;
  totals.frontier_nnz = x.indices.size();
  if (!bands_.empty() && !x.indices.empty()) {
    const auto body = [&](std::size_t band_id, std::size_t worker) {
      process_band(band_id, *scratch_[worker], y);
    };
    const auto prefetch = [this](std::size_t t, std::size_t) {
      // Hint exactly the band's first lease.
      const BlockRun lease = needed_run(bands_[t], bands_[t].first_block);
      if (lease.count > 0) source_->prefetch(lease.first, lease.count);
    };
    try {
      SourceRun run(*source_);
      runner_->run(band_order_, runner_->workers(), body,
                   source_->out_of_core() ? TaskFn(prefetch) : TaskFn());
    } catch (...) {
      unscatter();
      throw;
    }
    for (const SpmspvStats& bs : band_stats_) {
      totals.blocks_total += bs.blocks_total;
      totals.blocks_skipped += bs.blocks_skipped;
      totals.bands_skipped += bs.bands_skipped;
      totals.products += bs.products;
      totals.blocks_decoded += bs.blocks_decoded;
      totals.compressed_bytes += bs.compressed_bytes;
    }
  } else {
    // Empty frontier (or empty matrix): every block is skipped.
    totals.blocks_total = cm_->blocking.block_count();
    totals.blocks_skipped = totals.blocks_total;
    totals.bands_skipped = bands_.size();
  }
  unscatter();

  total_blocks_decoded_ += totals.blocks_decoded;
  total_blocks_skipped_ += totals.blocks_skipped;
  last_stats_ = totals;
}

}  // namespace recode::spmv
