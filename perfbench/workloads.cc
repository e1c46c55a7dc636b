// The three workloads. Why each was chosen is recorded in BENCHMARK.json
// and perfbench/WORKLOADS.md; the comments here say how each is built.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/error.h"
#include "common/prng.h"
#include "common/thread_pool.h"
#include "solver/graph.h"
#include "solver/solver.h"
#include "sparse/generators.h"
#include "spmv/kernels.h"
#include "spmv/spmspv.h"

namespace perfbench {

namespace solver = recode::solver;

namespace {

template <typename T>
std::span<const T> cspan(const std::vector<T>& v) {
  return {v.data(), v.size()};
}

// Times compress + construct + one warm-up op; the engine-specific
// parts come in as callables so all workloads count set-up the same way.
template <typename Build, typename WarmUp>
SetupTimes timed_setup(const sparse::Csr& a,
                       std::unique_ptr<codec::CompressedMatrix>& cm,
                       Build build, WarmUp warm_up) {
  SetupTimes t;
  cm.reset();  // one compressed copy at a time
  const auto t0 = Clock::now();
  cm = std::make_unique<codec::CompressedMatrix>(
      codec::compress(a, codec::PipelineConfig::udp_dsh()));
  t.compress_s = ms_since(t0) / 1e3;
  build();
  warm_up();
  t.total_s = ms_since(t0) / 1e3;
  return t;
}

// ---------------------------------------------------------------------
// spmv_cold: y = A*x, cache off, every pass decodes every block. The
// full size puts the 12 B/nnz CSR stream above a 105 MiB L3.

class SpmvCold final : public Workload {
 public:
  SpmvCold(std::uint64_t seed, Size size) {
    const sparse::index_t n = size == Size::kSmoke ? 20000 : 750000;
    a_ = sparse::gen_fem_like(n, 12, n / 50 + 8,
                              sparse::ValueModel::kSmoothField, seed);
    for (std::size_t k = 0; k < inputs(); ++k) {
      xs_.push_back(random_vector(static_cast<std::size_t>(n),
                                  seed * 1000003 + k));
      oracle_.emplace_back(static_cast<std::size_t>(n));
      spmv::spmv_csr(a_, xs_[k], oracle_[k]);
    }
    y_.resize(static_cast<std::size_t>(n));
    y_csr_.resize(static_cast<std::size_t>(n));
  }

  std::size_t inputs() const override { return 4; }

  SetupTimes setup() override {
    exec_.reset();
    return timed_setup(
        a_, cm_,
        [&] {
          exec_ = std::make_unique<spmv::StreamingExecutor>(
              *cm_, streaming_config(kWorkers));
        },
        [&] {
          exec_->multiply(xs_[0], y_);
          require_workers(exec_->last_stats(), kWorkers);
        });
  }

  void csr_op(std::size_t in) override {
    spmv::spmv_csr_parallel(a_, xs_[in], y_csr_, pool_);
  }

  void op(std::size_t in, Tracer* trace) override {
    {
      ScopedSpan s(trace, "exec.multiply");
      exec_->multiply(xs_[in], y_);
    }
    exec.add(exec_->last_stats());
  }

  void probe_parallel(ParallelProbe& out) override {
    spmv::StreamingExecutor wide(*cm_, streaming_config(kProbeWorkers));
    for (std::size_t i = 0; i < 2 * inputs(); ++i) {
      const std::size_t in = i % inputs();
      const auto t0 = Clock::now();
      wide.multiply(xs_[in], y_);
      out.exec_call_ms.push_back(ms_since(t0));
      require_workers(wide.last_stats(), kProbeWorkers);
      out.exec.add(wide.last_stats());
      out.ok = out.ok && bitwise_equal(cspan(y_), cspan(oracle_[in]), false);
    }
  }

  bool check(std::size_t in, bool flip) override {
    // The baseline is checked here, outside its timed call.
    baseline_ok_ = baseline_ok_ &&
                   bitwise_equal(cspan(y_csr_), cspan(oracle_[in]), false);
    return bitwise_equal(cspan(y_), cspan(oracle_[in]), flip);
  }

  double nnz_applied() const override {
    return static_cast<double>(a_.nnz());
  }
  bool baseline_ok() const override { return baseline_ok_; }
  const sparse::Csr& matrix() const override { return a_; }
  const codec::CompressedMatrix& compressed() const override { return *cm_; }

 private:
  sparse::Csr a_;
  std::vector<std::vector<double>> xs_;
  std::vector<std::vector<double>> oracle_;  // serial spmv_csr
  std::vector<double> y_;
  std::vector<double> y_csr_;
  bool baseline_ok_ = true;
  recode::ThreadPool pool_{kWorkers};
  std::unique_ptr<codec::CompressedMatrix> cm_;
  std::unique_ptr<spmv::StreamingExecutor> exec_;
};

// ---------------------------------------------------------------------
// cg_warm: CG to 1e-8 on an SPD operator served from a warm band cache.
// The structure is gen_fem_like's (symmetric, ~24 nnz/row). The values
// are rewritten symmetric with diagonal 1.1 s + 1, where s is the row's
// off-diagonal magnitude sum. By Gershgorin every eigenvalue lies in
// [0.1 s + 1, 2.1 s + 1], so CG converges in tens of iterations.

sparse::Csr make_spd(std::uint64_t seed, sparse::index_t n) {
  sparse::Csr a = sparse::gen_fem_like(n, 22, n / 50 + 8,
                                       sparse::ValueModel::kUnit, seed);
  for (sparse::index_t r = 0; r < a.rows; ++r) {
    double offdiag = 0.0;
    std::size_t diag = 0;
    for (auto k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
      const auto c = a.col_idx[static_cast<std::size_t>(k)];
      if (c == r) {
        diag = static_cast<std::size_t>(k);
        continue;
      }
      // Symmetric in (r, c): a function of the unordered pair.
      const auto lo = static_cast<std::uint64_t>(std::min(r, c));
      const auto hi = static_cast<std::uint64_t>(std::max(r, c));
      recode::Prng h(seed ^ (lo * 0x9E3779B97F4A7C15ull + hi));
      const double v = -static_cast<double>(1 + h.next_below(8)) / 8.0;
      a.val[static_cast<std::size_t>(k)] = v;
      offdiag -= v;
    }
    a.val[diag] = offdiag * 1.1 + 1.0;
  }
  return a;
}

// A cache budget that covers the whole decoded matrix: after the first
// pass no block is decoded again.
spmv::StreamingConfig cached_config(std::size_t workers, std::size_t nnz) {
  spmv::StreamingConfig cfg = streaming_config(workers);
  cfg.cache_budget_bytes = 2 * spmv::decoded_band_bytes(nnz);
  return cfg;
}

class CgWarm final : public Workload {
 public:
  CgWarm(std::uint64_t seed, Size size)
      : a_(make_spd(seed, size == Size::kSmoke ? 3000 : 47000)) {
    for (std::size_t k = 0; k < inputs(); ++k) {
      bs_.push_back(random_vector(static_cast<std::size_t>(a_.rows),
                                  seed * 1000003 + k));
    }
    iterations_.assign(inputs(), -1);
    opts_.tol = 1e-8;
    opts_.max_iters = 1000;
  }

  std::size_t inputs() const override { return 4; }

  SetupTimes setup() override {
    exec_.reset();
    return timed_setup(
        a_, cm_,
        [&] {
          exec_ = std::make_unique<spmv::StreamingExecutor>(
              *cm_, cached_config(kWorkers, a_.nnz()));
        },
        [&] {
          std::vector<double> y(static_cast<std::size_t>(a_.rows));
          exec_->multiply(bs_[0], y);
          require_workers(exec_->last_stats(), kWorkers);
        });
  }

  void csr_op(std::size_t in) override {
    const solver::Operator csr = [this](std::span<const double> x,
                                        std::span<double> y) {
      spmv::spmv_csr_parallel(a_, x, y, pool_);
    };
    oracle_ = solver::conjugate_gradient(csr, bs_[in], opts_);
  }

  void op(std::size_t in, Tracer* trace) override {
    const solver::Operator apply = [this, trace](std::span<const double> x,
                                                 std::span<double> y) {
      {
        ScopedSpan s(trace, "exec.multiply");
        exec_->multiply(x, y);
      }
      exec.add(exec_->last_stats());
    };
    result_ = solver::conjugate_gradient(apply, bs_[in], opts_);
    if (iterations_[in] < 0) {
      iterations_[in] = result_.iterations;
      if (std::all_of(iterations_.begin(), iterations_.end(),
                      [](int it) { return it >= 0; })) {
        double sum = 0.0;
        for (int it : iterations_) sum += it;
        cg_iterations = sum / static_cast<double>(iterations_.size());
      }
    }
  }

  void probe_parallel(ParallelProbe& out) override {
    spmv::StreamingExecutor wide(*cm_,
                                 cached_config(kProbeWorkers, a_.nnz()));
    std::vector<double> y(static_cast<std::size_t>(a_.rows));
    wide.multiply(bs_[0], y);  // fills the cache, as set-up does
    require_workers(wide.last_stats(), kProbeWorkers);
    const solver::Operator apply = [&](std::span<const double> x,
                                       std::span<double> yy) {
      const auto t0 = Clock::now();
      wide.multiply(x, yy);
      out.exec_call_ms.push_back(ms_since(t0));
      out.exec.add(wide.last_stats());
    };
    for (std::size_t in = 0; in < inputs(); ++in) {
      csr_op(in);
      const solver::CgResult r =
          solver::conjugate_gradient(apply, bs_[in], opts_);
      out.ok = out.ok && r.converged && r.iterations == oracle_.iterations &&
               bitwise_equal(cspan(r.x), cspan(oracle_.x), false);
    }
  }

  bool check(std::size_t, bool flip) override {
    return result_.converged && oracle_.converged &&
           result_.iterations == oracle_.iterations &&
           bitwise_equal(cspan(result_.x), cspan(oracle_.x), flip);
  }

  double nnz_applied() const override {
    return static_cast<double>(a_.nnz()) * result_.iterations;
  }
  const sparse::Csr& matrix() const override { return a_; }
  const codec::CompressedMatrix& compressed() const override { return *cm_; }

 private:
  sparse::Csr a_;
  std::vector<std::vector<double>> bs_;
  std::vector<int> iterations_;  // per input, from its first solve
  solver::CgOptions opts_;
  solver::CgResult oracle_;  // CG with the spmv_csr_parallel operator
  solver::CgResult result_;
  recode::ThreadPool pool_{kWorkers};
  std::unique_ptr<codec::CompressedMatrix> cm_;
  std::unique_ptr<spmv::StreamingExecutor> exec_;
};

// ---------------------------------------------------------------------
// bfs_mesh: BFS over an L x L periodic grid (a torus). Every vertex of a
// torus has the same eccentricity, so the level count, and with it the
// work per traversal, does not depend on which source the seed draws.

sparse::Csr make_torus(sparse::index_t side) {
  RECODE_CHECK(side >= 3);
  sparse::Csr g;
  g.rows = g.cols = side * side;
  g.row_ptr.push_back(0);
  for (sparse::index_t r = 0; r < side; ++r) {
    for (sparse::index_t c = 0; c < side; ++c) {
      sparse::index_t nb[4] = {((r + side - 1) % side) * side + c,
                               ((r + 1) % side) * side + c,
                               r * side + (c + side - 1) % side,
                               r * side + (c + 1) % side};
      std::sort(nb, nb + 4);
      for (sparse::index_t v : nb) {
        g.col_idx.push_back(v);
        g.val.push_back(1.0);
      }
      g.row_ptr.push_back(static_cast<sparse::offset_t>(g.col_idx.size()));
    }
  }
  return g;
}

// Serial queue BFS over the CSR adjacency: the baseline and the oracle.
void queue_bfs(const sparse::Csr& g, sparse::index_t source,
               std::vector<sparse::index_t>& level,
               std::vector<sparse::index_t>& queue) {
  level.assign(static_cast<std::size_t>(g.rows), -1);
  queue.clear();
  level[static_cast<std::size_t>(source)] = 0;
  queue.push_back(source);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const sparse::index_t u = queue[head];
    const sparse::index_t next = level[static_cast<std::size_t>(u)] + 1;
    for (auto k = g.row_ptr[u]; k < g.row_ptr[u + 1]; ++k) {
      const sparse::index_t v = g.col_idx[static_cast<std::size_t>(k)];
      if (level[static_cast<std::size_t>(v)] < 0) {
        level[static_cast<std::size_t>(v)] = next;
        queue.push_back(v);
      }
    }
  }
}

spmv::SpmspvConfig engine_config(std::size_t threads) {
  spmv::SpmspvConfig cfg;
  cfg.threads = threads;
  return cfg;
}

class BfsMesh final : public Workload {
 public:
  BfsMesh(std::uint64_t seed, Size size)
      : g_(make_torus(size == Size::kSmoke ? 48 : 200)) {
    recode::Prng prng(seed);
    for (std::size_t k = 0; k < inputs(); ++k) {
      sources_.push_back(static_cast<sparse::index_t>(
          prng.next_below(static_cast<std::uint64_t>(g_.rows))));
    }
    seen_.assign(inputs(), 0);
  }

  std::size_t inputs() const override { return 8; }

  SetupTimes setup() override {
    engine_.reset();
    return timed_setup(
        g_, cm_,
        [&] {
          engine_ = std::make_unique<spmv::SpmspvEngine>(
              *cm_, engine_config(kWorkers));
        },
        [&] { solver::bfs(*engine_, sources_[0]); });
  }

  void csr_op(std::size_t in) override {
    queue_bfs(g_, sources_[in], oracle_, queue_);
  }

  void op(std::size_t in, Tracer* trace) override {
    const SpmspvCounters before = spmspv;
    const solver::FrontierOperator push =
        [this, trace](const spmv::SparseVector& x, std::span<double> y) {
          {
            ScopedSpan s(trace, "spmspv.multiply");
            engine_->multiply(x, y);
          }
          const spmv::SpmspvStats& st = engine_->last_stats();
          ++spmspv.multiplies;
          spmspv.blocks_total += st.blocks_total;
          spmspv.blocks_skipped += st.blocks_skipped;
          spmspv.blocks_decoded += st.blocks_decoded;
        };
    result_ = solver::bfs(push, g_.rows, sources_[in]);
    if (!seen_[in]) {
      seen_[in] = 1;
      first_levels_ += static_cast<double>(result_.max_level + 1);
      first_total_ += spmspv.blocks_total - before.blocks_total;
      first_skipped_ += spmspv.blocks_skipped - before.blocks_skipped;
      if (std::all_of(seen_.begin(), seen_.end(),
                      [](char s) { return s != 0; })) {
        bfs_levels = first_levels_ / static_cast<double>(inputs());
        skip_ratio = first_total_ == 0
                         ? 0.0
                         : static_cast<double>(first_skipped_) /
                               static_cast<double>(first_total_);
      }
    }
  }

  void probe_parallel(ParallelProbe& out) override {
    spmv::SpmspvEngine wide(*cm_, engine_config(kProbeWorkers));
    const solver::FrontierOperator push = [&](const spmv::SparseVector& x,
                                              std::span<double> y) {
      const auto t0 = Clock::now();
      wide.multiply(x, y);
      out.spmspv_call_ms.push_back(ms_since(t0));
    };
    for (std::size_t in = 0; in < 2; ++in) {
      csr_op(in);
      const solver::BfsResult r = solver::bfs(push, g_.rows, sources_[in]);
      out.ok = out.ok && bitwise_equal(cspan(r.level), cspan(oracle_), false);
    }
  }

  bool check(std::size_t, bool flip) override {
    return bitwise_equal(cspan(result_.level), cspan(oracle_), flip);
  }

  double nnz_applied() const override {
    return static_cast<double>(g_.nnz());
  }
  const sparse::Csr& matrix() const override { return g_; }
  const codec::CompressedMatrix& compressed() const override { return *cm_; }

 private:
  sparse::Csr g_;
  std::vector<sparse::index_t> sources_;
  std::vector<sparse::index_t> oracle_;  // queue-BFS levels
  std::vector<sparse::index_t> queue_;
  solver::BfsResult result_;
  std::vector<char> seen_;  // inputs whose first traversal was counted
  double first_levels_ = 0.0;
  std::uint64_t first_total_ = 0;
  std::uint64_t first_skipped_ = 0;
  std::unique_ptr<codec::CompressedMatrix> cm_;
  std::unique_ptr<spmv::SpmspvEngine> engine_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Size size) {
  if (name == "spmv_cold") return std::make_unique<SpmvCold>(seed, size);
  if (name == "cg_warm") return std::make_unique<CgWarm>(seed, size);
  if (name == "bfs_mesh") return std::make_unique<BfsMesh>(seed, size);
  throw recode::Error("unknown workload '" + name + "'");
}

}  // namespace perfbench
