// Per-layer probes of the traced run. Each times one layer in isolation
// on the workload's own matrix, from outside its public functions.
#include <algorithm>
#include <memory>
#include <vector>

#include "bench.h"
#include "codec/arena.h"
#include "common/thread_pool.h"
#include "spmv/kernels.h"
#include "spmv/recoded.h"
#include "telemetry/ledger.h"

namespace perfbench {

namespace {

double ns_per(double ms, std::size_t nnz) {
  return nnz == 0 ? 0.0 : ms * 1e6 / static_cast<double>(nnz);
}

}  // namespace

CodecProbe probe_codec(const codec::CompressedMatrix& cm,
                       const sparse::Csr& a) {
  namespace tel = recode::telemetry;
  codec::DecodeArena scratch;
  codec::DecodeArena out;
  CodecProbe p;
  // An untimed pass warms the arenas, so the timed pass allocates
  // nothing (the executor's steady state), and checks that the decoded
  // streams are the CSR arrays.
  for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
    const codec::DecodedBlock d =
        codec::decompress_block_fast(cm, b, scratch, out);
    const sparse::BlockRange& r = cm.blocking.blocks[b];
    p.ok = p.ok &&
           bitwise_equal(d.indices, sparse::block_indices(a, r), false) &&
           bitwise_equal(d.values, sparse::block_values(a, r), false);
  }
  const tel::LedgerSnapshot before = tel::MovementLedger::global().snapshot();
  const auto t0 = Clock::now();
  for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
    codec::decompress_block_fast(cm, b, scratch, out);
  }
  const double ms = ms_since(t0);
  const tel::LedgerSnapshot flows =
      tel::MovementLedger::global().snapshot().since(before);
  const std::size_t nnz = a.nnz();
  p.decode_ns_per_nnz = ns_per(ms, nnz);
  auto hop_ns = [&](tel::Hop h) {
    return static_cast<double>(flows.hop(h).ns) / static_cast<double>(nnz);
  };
  if (nnz > 0) {
    p.huffman_ns_per_nnz = hop_ns(tel::Hop::kHuffman);
    p.snappy_ns_per_nnz = hop_ns(tel::Hop::kSnappy);
    p.transform_ns_per_nnz = hop_ns(tel::Hop::kTransform);
  }
  return p;
}

double probe_kernel_ns_per_nnz(const codec::CompressedMatrix& cm,
                               const sparse::Csr& a) {
  // The decoded streams of every block are bitwise the CSR arrays
  // (probe_codec checks it), so the kernel reads them in place.
  const std::vector<double> x =
      random_vector(static_cast<std::size_t>(a.cols), 7);
  std::vector<double> y(static_cast<std::size_t>(a.rows));
  std::vector<double> passes;
  const auto start = Clock::now();
  while (passes.size() < 3 || (passes.size() < 50 && ms_since(start) < 300)) {
    std::fill(y.begin(), y.end(), 0.0);
    const auto t0 = Clock::now();
    for (const sparse::BlockRange& r : cm.blocking.blocks) {
      spmv::accumulate_block(r, a.row_ptr, sparse::block_indices(a, r),
                             sparse::block_values(a, r), x, y);
    }
    passes.push_back(ms_since(t0));
  }
  return ns_per(median(passes), a.nnz());
}

double probe_csr_ms(const sparse::Csr& a) {
  recode::ThreadPool pool(kProbeWorkers);
  const std::vector<double> x =
      random_vector(static_cast<std::size_t>(a.cols), 11);
  std::vector<double> y(static_cast<std::size_t>(a.rows));
  spmv::spmv_csr_parallel(a, x, y, pool);  // first touch of y
  std::vector<double> passes;
  const auto start = Clock::now();
  while (passes.size() < 20 || (passes.size() < 500 && ms_since(start) < 300)) {
    const auto t0 = Clock::now();
    spmv::spmv_csr_parallel(a, x, y, pool);
    passes.push_back(ms_since(t0));
  }
  return median(passes);
}

double csr_pass_bytes(const sparse::Csr& a) {
  const double nnz = static_cast<double>(a.nnz());
  return nnz * static_cast<double>(sizeof(sparse::index_t) + sizeof(double)) +
         static_cast<double>(a.row_ptr.size() * sizeof(sparse::offset_t)) +
         static_cast<double>(a.cols) * sizeof(double) +   // x
         static_cast<double>(a.rows) * sizeof(double);    // y
}

TriadProbe probe_triad(std::size_t llc_bytes) {
  // STREAM's rule: each array at least 4x the last-level cache.
  const std::size_t bytes =
      std::max<std::size_t>(4 * llc_bytes, std::size_t{64} << 20);
  const std::size_t n = bytes / sizeof(double);
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  recode::ThreadPool pool(kProbeWorkers);
  // Touch every page before the timed passes.
  pool.parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  const double s = 3.0;
  double best_ms = 0.0;
  for (int pass = 0; pass < 5; ++pass) {
    const auto t0 = Clock::now();
    pool.parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
    });
    const double ms = ms_since(t0);
    if (pass == 0 || ms < best_ms) best_ms = ms;
  }
  TriadProbe p;
  p.array_mib = static_cast<double>(n * sizeof(double)) / (1024.0 * 1024.0);
  p.gbps = 3.0 * static_cast<double>(n * sizeof(double)) / (best_ms * 1e6);
  return p;
}

}  // namespace perfbench
