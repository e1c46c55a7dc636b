// Repository benchmark: shared declarations.
//
// One process runs one workload. It times each op from outside, around
// calls into the library's public functions, checks every op against
// the serial CSR oracle, and reads the counters the library already
// exposes (OverlapStats, BandCache::Stats, SpmspvStats, the movement
// ledger). Nothing here instruments src/: spans are recorded by this
// benchmark, around its own calls.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "codec/pipeline.h"
#include "sparse/formats.h"
#include "spmv/streaming_executor.h"

namespace perfbench {

namespace codec = recode::codec;
namespace sparse = recode::sparse;
namespace spmv = recode::spmv;

// Every timed op uses this many workers in total (closed loop, one
// caller). One worker: on a guest that shares its vCPUs with other
// tenants, an op that waits on all of its vCPUs at once is slowed by
// whichever of them the hypervisor takes away. Over alternating runs of
// one build, cg_warm's and bfs_mesh's medians ranged over 3x at 4
// workers and their quartile spread was about 0.1 at 1 worker
// (WORKLOADS.md, "Worker count").
inline constexpr std::size_t kWorkers = 1;
// Worker count of the parallel probes in the traced run: the host
// bandwidth, the parallel CSR baseline and the multi-worker executor.
inline constexpr std::size_t kProbeWorkers = 4;

// Percentile reported as op_ms_tail. At full size cg_warm and bfs_mesh
// leave at least 20 samples beyond it, spmv_cold (~1 s ops) about 5.
// Higher percentiles (p90, p95) spread 0.4-0.6 across ten runs during
// host noise episodes on a shared host, while p50 stayed under 0.2.
inline constexpr double kTailPercentile = 0.8;

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Spans: name, start, end, parent span and op id, kept in memory and
// written out when the run ends. Only the calling thread records.

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t op = 0;
};

class Tracer {
 public:
  Tracer();

  std::int32_t open(const char* name);
  void close(std::int32_t id);
  void set_op(std::uint64_t op) { op_ = op; }

  const std::vector<Span>& spans() const { return spans_; }
  // Duration minus the time covered by direct children, per span.
  std::vector<std::int64_t> self_ns() const;
  // Chrome trace_event JSON ("X" events; args carry op and parent).
  void write(const std::string& path) const;

 private:
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
  std::uint64_t op_ = 0;
};

// Opens a span for its lifetime; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name)
      : t_(t), id_(t ? t->open(name) : -1) {}
  ~ScopedSpan() {
    if (t_) t_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  std::int32_t id_;
};

// ---------------------------------------------------------------------
// Small helpers.

double median(std::vector<double> v);
// Nearest-rank percentile, p in [0, 1].
double percentile(std::vector<double> v, double p);

// The single place that maps "N workers in total" onto the executor's
// config. The executor runs decode_threads + compute_threads workers, so
// N >= 2 workers is decode_threads = N - 1 plus one compute thread. Its
// pool has at least two workers; one worker is its inline path, which
// runs every task on the calling thread.
spmv::StreamingConfig streaming_config(std::size_t workers);
// Throws recode::Error unless the executor's last call ran `workers`.
void require_workers(const spmv::OverlapStats& stats, std::size_t workers);

// Bitwise comparison with the oracle. With `flip`, compares a copy of
// `out` with one bit flipped instead (the check's own self-test).
template <typename T>
bool bitwise_equal(std::span<const T> out, std::span<const T> oracle,
                   bool flip) {
  if (out.size() != oracle.size()) return false;
  const std::size_t bytes = out.size() * sizeof(T);
  if (!flip) return std::memcmp(out.data(), oracle.data(), bytes) == 0;
  std::vector<unsigned char> copy(bytes);
  std::memcpy(copy.data(), out.data(), bytes);
  if (!copy.empty()) copy[0] ^= 1u;
  return std::memcmp(copy.data(), oracle.data(), bytes) == 0;
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed);

// ---------------------------------------------------------------------
// Layer counters read from the library after each call.

struct ExecCounters {
  std::uint64_t calls = 0;
  std::uint64_t split_calls = 0;
  double busy_s = 0.0;
  double blocked_s = 0.0;
  double worker_wall_s = 0.0;  // workers x wall, summed over calls
  std::uint64_t steals = 0;
  std::uint64_t tasks = 0;
  std::uint64_t blocks_decoded = 0;
  std::uint64_t cache_hit_bands = 0;
  std::uint64_t cache_miss_bands = 0;
  std::size_t workers = 0;       // of the last call
  std::size_t pinned_bytes = 0;  // after the last call

  void add(const spmv::OverlapStats& s);
};

// What the traced run's parallel probe saw: the same ops as the timed
// window, run with kProbeWorkers workers instead of kWorkers.
struct ParallelProbe {
  ExecCounters exec;                 // StreamingExecutor calls
  std::vector<double> exec_call_ms;  // per executor call
  std::vector<double> spmspv_call_ms;  // per SpmspvEngine multiply
  bool ok = true;  // every probed output matched the oracle
};

struct SpmspvCounters {
  std::uint64_t multiplies = 0;
  std::uint64_t blocks_total = 0;
  std::uint64_t blocks_skipped = 0;
  std::uint64_t blocks_decoded = 0;
};

// ---------------------------------------------------------------------
// A workload: one kind of op, its same-run CSR baseline, and its oracle.

struct SetupTimes {
  double total_s = 0.0;     // compression + engine + warm-up op
  double compress_s = 0.0;  // compression alone
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Distinct seeded inputs; op i uses input i % inputs().
  virtual std::size_t inputs() const = 0;

  // Compression, engine construction and one untimed warm-up op. Each
  // call rebuilds from the CSR input, so set-up can be repeated.
  virtual SetupTimes setup() = 0;
  // The same op on plain CSR. For cg_warm and bfs_mesh it also produces
  // the oracle the next op() is checked against.
  virtual void csr_op(std::size_t input) = 0;
  // The compressed op, with spans around each call into the library.
  virtual void op(std::size_t input, Tracer* trace) = 0;
  // Bitwise check of the last op() against the oracle.
  virtual bool check(std::size_t input, bool flip) = 0;
  // Traced run only: a few ops with kProbeWorkers workers, each checked
  // against the oracle (see ParallelProbe).
  virtual void probe_parallel(ParallelProbe& /*out*/) {}
  // Matrix nonzeros the last op applied.
  virtual double nnz_applied() const = 0;
  // False if a CSR baseline output disagreed with the serial oracle.
  virtual bool baseline_ok() const { return true; }

  virtual const sparse::Csr& matrix() const = 0;
  virtual const codec::CompressedMatrix& compressed() const = 0;

  // Counters of the timed window's ops, traced or not (set-up does not
  // add to them).
  ExecCounters exec;
  SpmspvCounters spmspv;
  // Exact per-op counts, taken from the first cycle over the inputs.
  double cg_iterations = 0.0;
  double bfs_levels = 0.0;
  double skip_ratio = 0.0;
};

enum class Size { kSmoke, kFull };

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Size size);

// ---------------------------------------------------------------------
// Per-layer probes, run once after the traced window.

struct CodecProbe {
  double decode_ns_per_nnz = 0.0;
  double huffman_ns_per_nnz = 0.0;
  double snappy_ns_per_nnz = 0.0;
  double transform_ns_per_nnz = 0.0;
  bool ok = true;  // decoded streams bitwise-equal to the CSR arrays
};
CodecProbe probe_codec(const codec::CompressedMatrix& cm,
                       const sparse::Csr& a);

// Serial accumulate_block over every block's decoded streams.
double probe_kernel_ns_per_nnz(const codec::CompressedMatrix& cm,
                               const sparse::Csr& a);

// spmv_csr_parallel at kProbeWorkers threads: median ms per pass.
double probe_csr_ms(const sparse::Csr& a);
// Bytes one CSR pass reads and writes, computed from array sizes.
double csr_pass_bytes(const sparse::Csr& a);

struct TriadProbe {
  double gbps = 0.0;
  double array_mib = 0.0;
};
// STREAM triad a = b + s*c at kProbeWorkers threads, each array >= 4x
// LLC.
TriadProbe probe_triad(std::size_t llc_bytes);

// Host facts.
std::size_t host_llc_bytes();
// CPU time of the whole guest from /proc/stat, in ticks. The steal share
// between two readings is the time the hypervisor ran other tenants on
// this guest's CPUs; it tells host contention apart from a slow program.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks read_cpu_ticks();
// Peak RSS (VmHWM) since the last reset_peak_rss(), in MiB.
void reset_peak_rss();
double peak_rss_mb();

}  // namespace perfbench
