// Data-movement ledger: per-run byte/bandwidth attribution across the
// decode chain, and the one per-stage decode record (bytes and
// nanoseconds per Huffman/Snappy/transform stage) for every engine.
//
// Every engine feeds the same process-wide MovementLedger with typed
// byte-flow edges as data moves through the fixed hop chain
//
//   storage -> container -> huffman -> snappy -> transform -> kernel
//                                                  \-> cache -/
//
// where `storage` is the out-of-core read from the container file
// (bytes_in = the on-disk extent fetched including varint framing,
// bytes_out = the record bytes handed to the container hop; all-zero
// for fully-resident runs), `container` is the compressed-stream read
// (bytes_in includes
// the per-block codec-id dispatch byte, bytes_out is the payload handed
// to the codec chain), each codec stage records bytes in/out and
// nanoseconds (inactive stages record an equal-bytes pass-through so
// the chain stays conservation-checkable), `cache` is the decoded-band
// cache (bytes_in = pinned on insert, bytes_out = served on hit), and
// `kernel` is the SpMV accumulate (bytes_in = matrix stream consumed,
// bytes_out = result rows written; x/y vector traffic and flops are
// tracked separately).
//
// Feeding is a handful of relaxed-atomic Counter adds per *block* (never
// per nnz) on existing MetricsRegistry primitives, so the fast decode
// path stays zero-allocation; with RECODE_TELEMETRY=OFF everything here
// compiles to empty inlines and snapshots read all-zero.
//
// A "run" is a window between two snapshots: callers capture
// MovementLedger::snapshot() before and after the measured region and
// build a RunReport from the delta (BenchReport does this for every
// bench behind --json/--report). The report renders as a table, as a
// `recode-run-v1` JSON block, and answers the conservation check
// (stage-out == next-stage-in, decoded + cache-served == kernel-consumed).
#pragma once

#ifndef RECODE_TELEMETRY_ENABLED
#define RECODE_TELEMETRY_ENABLED 1
#endif

#include <cstdint>
#include <string>

#include "telemetry/metrics.h"

namespace recode::telemetry {

class JsonWriter;

// Fixed hop set, in flow order.
enum class Hop : int {
  kStorage = 0,
  kContainer = 1,
  kHuffman = 2,
  kSnappy = 3,
  kTransform = 4,
  kCache = 5,
  kKernel = 6,
};
inline constexpr int kHopCount = 7;

const char* hop_name(Hop hop);

// Plain-struct copy of the ledger counters (all zeros when telemetry is
// compiled out). Subtraction gives a run window.
struct LedgerSnapshot {
  struct Flow {
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t ns = 0;
    std::uint64_t ops = 0;  // blocks / streams / lookups through the hop
  };
  Flow hops[kHopCount];
  std::uint64_t kernel_vector_bytes = 0;  // x gathers + y read/modify/write
  std::uint64_t kernel_flops = 0;
  std::uint64_t kernel_nnz = 0;  // nnz visits (re-decodes counted again)

  const Flow& hop(Hop h) const { return hops[static_cast<int>(h)]; }

  // Flows accumulated since `earlier` (counters are monotonic).
  LedgerSnapshot since(const LedgerSnapshot& earlier) const;
};

class MovementLedger {
 public:
  // The process-wide ledger every engine reports into. Counters live in
  // MetricsRegistry::global() under "ledger.<hop>.*", so they also show
  // up in the ordinary metrics snapshot and survive registry reset()
  // semantics (references stay valid).
  static MovementLedger& global();

  struct HopFlow {
    Counter& bytes_in;
    Counter& bytes_out;
    Counter& ns;
    Counter& ops;
  };

  HopFlow& hop(Hop h) { return hops_[static_cast<int>(h)]; }

  // One call per hop traversal: bytes entering and leaving the hop.
  void flow(Hop h, std::uint64_t in, std::uint64_t out) {
    HopFlow& f = hop(h);
    f.bytes_in.add(in);
    f.bytes_out.add(out);
    f.ops.add(1);
  }

  // Inactive-stage pass-through: the bytes traverse the hop unchanged
  // (and cost no time), keeping stage-out == next-stage-in exact.
  void pass_through(Hop h, std::uint64_t bytes) { flow(h, bytes, bytes); }

  Counter& kernel_vector_bytes() { return kernel_vector_bytes_; }
  Counter& kernel_flops() { return kernel_flops_; }
  Counter& kernel_nnz() { return kernel_nnz_; }

  LedgerSnapshot snapshot() const;

 private:
  MovementLedger();

  HopFlow hops_[kHopCount];
  Counter& kernel_vector_bytes_;
  Counter& kernel_flops_;
  Counter& kernel_nnz_;
};

// One run's byte-flow graph plus wall time: renders as a table, as the
// `recode-run-v1` JSON block, and as the conservation verdict.
struct RunReport {
  std::string label;
  std::string engine;      // optional ("software" / "udp-sim" / "")
  double wall_seconds = 0.0;
  int host_cores = 0;      // 0 = unknown
  LedgerSnapshot flows;    // window delta

  // Effective bandwidth of a hop against the run's wall clock (defined
  // for every hop; the denominator every hop shares). Bytes moved is
  // bytes_out except for the kernel (bytes_in — what it consumed).
  double hop_wall_gbps(Hop h) const;

  // Bandwidth against the hop's own busy time (NaN when the hop
  // recorded no time — e.g. pass-through stages).
  double hop_busy_gbps(Hop h) const;

  // Roofline / arithmetic-intensity summary.
  double compressed_bytes_per_nnz() const;  // container reads / nnz visit
  double decoded_bytes_per_nnz() const;     // decode-stage output / nnz
  double kernel_bytes_per_nnz() const;      // matrix + vector traffic / nnz
  double arithmetic_intensity() const;      // flops / kernel byte
  // Of the matrix bytes the kernel consumed, the fraction served from
  // the decoded-band cache vs freshly decoded. Storage amplification is
  // the compressed bytes read per kernel matrix byte.
  double cache_served_fraction() const;
  double decode_served_fraction() const;
  double storage_bytes_per_kernel_byte() const;

  // Byte-conservation check over the flow graph:
  //   storage.out == container.in   (only when the storage hop saw any
  //   activity in the window — fully-resident runs record no storage
  //   flow at all),
  //   container.out == huffman.in, huffman.out == snappy.in,
  //   snappy.out == transform.in,
  //   transform.out + cache.out == kernel.in   (skipped when no kernel
  //   ran in the window, e.g. decode-only inspection runs),
  //   cache.in <= transform.out.
  // Returns false and fills `why` (when non-null) on the first violated
  // edge. Trivially true when telemetry is compiled out (all zeros).
  bool conservation_check(std::string* why = nullptr) const;

  // Appends this report as a JSON object value (schema recode-run-v1).
  void to_json(JsonWriter& w) const;
  std::string to_json_string() const;

  // Human-readable flow table (common/table): one row per hop with
  // bytes in/out, time, and effective GB/s, then the roofline summary.
  std::string render_table() const;
};

// Builds the report for the window [begin, end].
RunReport make_run_report(const std::string& label,
                          const LedgerSnapshot& begin,
                          const LedgerSnapshot& end, double wall_seconds);

// Writes `{report JSON}\n` to `path` (fails with recode::Error on I/O).
void write_run_report_file(const std::string& path, const RunReport& report);

}  // namespace recode::telemetry
