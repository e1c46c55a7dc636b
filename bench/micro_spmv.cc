// Microbench for the SpMV kernels and the serial recoded engine: plain
// CSR (serial, row-parallel, merge-path) and RecodedSpmv over a DSH
// container, each reported as best-of-reps Mnnz/s on the same matrix.
#include "bench/bench_util.h"
#include "codec/pipeline.h"
#include "common/thread_pool.h"
#include "sparse/generators.h"
#include "spmv/kernels.h"
#include "spmv/recoded.h"

namespace recode::bench {
namespace {

constexpr int kReps = 5;
constexpr double kMinSeconds = 0.05;

sparse::Csr bench_matrix(sparse::index_t n) {
  return sparse::gen_fem_like(n, 12, n / 50 + 8,
                              sparse::ValueModel::kSmoothField, 7);
}

std::vector<double> bench_vector(std::size_t n) {
  Prng prng(3);
  std::vector<double> x(n);
  for (auto& v : x) v = prng.next_double();
  return x;
}

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  BenchReport report(cli, "micro_spmv");
  cli.done();
  print_header("micro_spmv", "CSR kernels and serial RecodedSpmv, Mnnz/s");

  ThreadPool pool;
  Table table({"kernel", "rows", "nnz", "Mnnz/s"});
  for (const sparse::index_t n : {10000, 50000}) {
    const sparse::Csr a = bench_matrix(n);
    const auto x = bench_vector(static_cast<std::size_t>(a.cols));
    std::vector<double> y(static_cast<std::size_t>(a.rows));
    const auto record = [&](const std::string& name, auto&& multiply) {
      const double s = best_seconds(kReps, kMinSeconds, multiply);
      const double mnnz_per_s = static_cast<double>(a.nnz()) / s / 1e6;
      table.add_row({name, std::to_string(a.rows), std::to_string(a.nnz()),
                     Table::num(mnnz_per_s, 1)});
      report.add_result(name + "_n" + std::to_string(n) + "_mnnz_per_s",
                        mnnz_per_s);
    };
    record("csr_serial", [&] { spmv::spmv_csr(a, x, y); });
    record("csr_parallel", [&] { spmv::spmv_csr_parallel(a, x, y, pool); });
    record("csr_merge", [&] { spmv::spmv_csr_merge(a, x, y, pool); });
    if (n == 10000) {
      const auto cm = codec::compress(a, codec::PipelineConfig::udp_dsh());
      spmv::RecodedSpmv recoded(cm);
      record("recoded_software", [&] { recoded.multiply(x, y); });
    }
  }
  table.print();
  report.write();
  return 0;
}

}  // namespace
}  // namespace recode::bench

int main(int argc, char** argv) { return recode::bench::run(argc, argv); }
