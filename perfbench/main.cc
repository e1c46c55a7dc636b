// Repository benchmark: one workload per process.
//
//   perfbench --workload <spmv_cold|cg_warm|bfs_mesh> --seed <n>
//             --seconds <s> --trace <0|1> [--size full|smoke]
//             [--trace-out <file>] [--inject-mismatch 0|1]
//
// --trace 0 prints the end-to-end metrics of one untraced timed window.
// --trace 1 traces every other op of the window, then probes each layer
// on its own (the executor and SpMSpV engine again at kProbeWorkers
// workers), and prints the per-layer metrics. The last stdout line is
// the result object; the line before it records the host and input
// facts the numbers depend on.
#include <cstdio>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/cli.h"
#include "common/error.h"
#include "telemetry/json_writer.h"
#include "telemetry/metrics.h"

namespace perfbench {
namespace {

// Set-up runs at least kMinSetupReps times and, while it is short, again
// until kSetupTargetS of set-up time has been measured: a single host
// hiccup then moves the median of many set-ups, not one of three.
constexpr std::size_t kMinSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 15;
constexpr double kSetupTargetS = 2.0;

struct Window {
  std::vector<double> op_ms;      // untraced ops that matched the oracle
  std::vector<double> traced_ms;  // traced ops that matched the oracle
  std::vector<double> csr_ms;     // the same ops on plain CSR
  double nnz_applied = 0.0;       // over the untraced ops
  double op_seconds = 0.0;        // over the untraced ops
  double steal_share = 0.0;       // host steal over the window
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// Closed loop, one caller: each op starts when the previous one ended.
// Runs at least one op per distinct input so the exact counts are
// always taken over a full cycle. With a tracer, every other op is
// traced, and the parity shifts each cycle so every input is run both
// ways; traced and untraced ops then see the same host drift.
Window run_window(Workload& w, double seconds, Tracer* trace, bool flip) {
  Window win;
  const std::size_t inputs = w.inputs();
  const std::size_t min_ops = trace ? 2 * inputs : inputs;
  const CpuTicks ticks0 = read_cpu_ticks();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < min_ops || ms_since(start) < seconds * 1e3;
       ++i) {
    const std::size_t in = i % inputs;
    Tracer* t = trace && ((i + i / inputs) & 1) ? trace : nullptr;
    if (t) t->set_op(i);
    {
      const auto t0 = Clock::now();
      ScopedSpan s(t, "csr_op");
      w.csr_op(in);
      win.csr_ms.push_back(ms_since(t0));
    }
    ++win.attempted;
    bool ok = false;
    double ms = 0.0;
    try {
      const auto t0 = Clock::now();
      {
        ScopedSpan s(t, "op");
        w.op(in, t);
      }
      ms = ms_since(t0);
      ok = w.check(in, flip);
    } catch (const recode::Error& e) {
      std::fprintf(stderr, "perfbench: op %zu threw: %s\n", i, e.what());
    }
    // A wrong answer is never reported as a timing.
    if (!ok) {
      ++win.failed;
      continue;
    }
    if (t) {
      win.traced_ms.push_back(ms);
      continue;
    }
    win.op_ms.push_back(ms);
    win.op_seconds += ms / 1e3;
    win.nnz_applied += w.nnz_applied();
  }
  const CpuTicks ticks1 = read_cpu_ticks();
  if (ticks1.total > ticks0.total) {
    win.steal_share = static_cast<double>(ticks1.steal - ticks0.steal) /
                      static_cast<double>(ticks1.total - ticks0.total);
  }
  return win;
}

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

void put_metrics(recode::telemetry::JsonWriter& j,
                 const std::vector<Metric>& metrics) {
  j.key("metrics");
  j.begin_object();
  for (const Metric& m : metrics) {
    j.key(m.name);
    j.begin_object();
    j.kv("value", m.value);
    j.kv("unit", m.unit);
    j.end_object();
  }
  j.end_object();
}

// What the traced ops' spans say: per op, its self time (its duration
// minus the library calls under it) and the summed duration of those
// calls; and the durations of the calls, by kind.
struct SpanSummary {
  std::vector<double> op_self_ms;
  std::vector<double> op_calls_ms;
  std::vector<double> exec_ms;
  std::vector<double> spmspv_ms;
};

SpanSummary summarize(const Tracer& t) {
  SpanSummary s;
  const std::vector<std::int64_t> self = t.self_ns();
  const std::vector<Span>& spans = t.spans();
  std::vector<double> calls_ms(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    const double dur_ms =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
    if (name == "exec.multiply") {
      s.exec_ms.push_back(dur_ms);
    } else if (name == "spmspv.multiply") {
      s.spmspv_ms.push_back(dur_ms);
    } else {
      continue;
    }
    if (spans[i].parent >= 0) {
      calls_ms[static_cast<std::size_t>(spans[i].parent)] += dur_ms;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::string(spans[i].name) != "op") continue;
    s.op_self_ms.push_back(static_cast<double>(self[i]) / 1e6);
    s.op_calls_ms.push_back(calls_ms[i]);
  }
  return s;
}

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

int run(int argc, char** argv) {
  recode::Cli cli(argc, argv);
  const std::string name = cli.get_string("workload", "", "workload name");
  const auto seed = static_cast<std::uint64_t>(
      cli.get_int("seed", 1, "input seed"));
  const double seconds = cli.get_double("seconds", 10, "timed window (s)");
  const bool traced = cli.get_int("trace", 0, "1 = per-layer run") != 0;
  const std::string size_name =
      cli.get_string("size", "full", "full | smoke (self-test inputs)");
  const std::string trace_out =
      cli.get_string("trace-out", "", "write the spans here (trace 1)");
  const bool flip = cli.get_int("inject-mismatch", 0,
                                "1 = flip a bit of each checked output") != 0;
  cli.done();
  if (size_name != "full" && size_name != "smoke") {
    throw recode::Error("--size must be full or smoke");
  }
  const Size size = size_name == "smoke" ? Size::kSmoke : Size::kFull;

  // Input generation is not part of set-up, nor of either peak RSS: the
  // high-water mark restarts from the resident inputs, and again from
  // the set-up's result before the timed window.
  std::unique_ptr<Workload> w = make_workload(name, seed, size);
  reset_peak_rss();
  std::vector<double> setup_s;
  std::vector<double> compress_s;
  double setup_total_s = 0.0;
  while (setup_s.size() < kMinSetupReps ||
         (setup_total_s < kSetupTargetS && setup_s.size() < kMaxSetupReps)) {
    const SetupTimes t = w->setup();
    setup_s.push_back(t.total_s);
    compress_s.push_back(t.compress_s);
    setup_total_s += t.total_s;
  }
  const double setup_rss_mb = peak_rss_mb();
  reset_peak_rss();

  const sparse::Csr& a = w->matrix();
  const codec::CompressedMatrix& cm = w->compressed();
  const double nnz = static_cast<double>(a.nnz());
  const std::size_t llc = host_llc_bytes();

  std::vector<Metric> metrics;
  // End-to-end numbers come from the window's untraced ops.
  Window shown;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool layers_ok = true;
  double span_coverage = 0.0;
  double triad_mib = 0.0;

  if (!traced) {
    shown = run_window(*w, seconds, nullptr, flip);
    attempted = shown.attempted;
    failed = shown.failed;
    const double p50 = median(shown.op_ms);
    metrics = {
        {"op_ms_p50", "ms", p50},
        {"op_ms_tail", "ms", percentile(shown.op_ms, kTailPercentile)},
        {"mnnz_per_s", "Mnnz/s", ratio(shown.nnz_applied / 1e6,
                                       shown.op_seconds)},
        {"slowdown_vs_csr", "ratio", ratio(p50, median(shown.csr_ms))},
        {"setup_s", "s", median(setup_s)},
        {"peak_rss_mb", "MiB", peak_rss_mb()},
        {"setup_peak_rss_mb", "MiB", setup_rss_mb},
    };
  } else {
    Tracer tracer;
    shown = run_window(*w, seconds, &tracer, flip);
    attempted = shown.attempted;
    failed = shown.failed;
    if (!trace_out.empty()) tracer.write(trace_out);

    const ExecCounters& ex = w->exec;
    const SpanSummary spans = summarize(tracer);
    // The spans' account of a traced op (library calls plus the
    // solver's own time) against the untraced ops' wall time. Means
    // add up where medians do not.
    span_coverage = ratio(mean(spans.op_calls_ms) + mean(spans.op_self_ms),
                          mean(shown.op_ms));

    ParallelProbe par;
    w->probe_parallel(par);
    const ExecCounters& wide = par.exec;
    const CodecProbe codec = probe_codec(cm, a);
    const double kernel_ns = probe_kernel_ns_per_nnz(cm, a);
    const double csr_ms = probe_csr_ms(a);
    // Smoke runs only exercise the probe; 0 sizes it at its floor.
    const TriadProbe triad = probe_triad(size == Size::kFull ? llc : 0);
    triad_mib = triad.array_mib;
    layers_ok = codec.ok && par.ok;

    const bool is_cg = name == "cg_warm";
    const bool is_bfs = name == "bfs_mesh";
    // The counters cover every op of the window, traced or not.
    const double traversals = static_cast<double>(shown.attempted);
    const double block_mb =
        ratio(nnz * 12.0 / 1e6, static_cast<double>(cm.blocks.size()));
    metrics = {
        {"codec.bytes_per_nnz", "B/nnz", cm.bytes_per_nnz()},
        {"codec.decode_ns_per_nnz", "ns/nnz", codec.decode_ns_per_nnz},
        {"codec.huffman_ns_per_nnz", "ns/nnz", codec.huffman_ns_per_nnz},
        {"codec.snappy_ns_per_nnz", "ns/nnz", codec.snappy_ns_per_nnz},
        {"codec.transform_ns_per_nnz", "ns/nnz", codec.transform_ns_per_nnz},
        {"codec.compress_s", "s", median(compress_s)},
        {"spmv.kernel.ns_per_nnz", "ns/nnz", kernel_ns},
        {"spmv.kernel.csr_ms_p50", "ms", csr_ms},
        {"host.triad_gbps", "GB/s", triad.gbps},
        {"spmv.kernel.csr_bw_frac", "ratio",
         ratio(csr_pass_bytes(a) / (csr_ms * 1e6), triad.gbps)},
        {"spmv.exec.call_ms_p50", "ms", median(spans.exec_ms)},
        // The scheduler's counters come from the kProbeWorkers probe: at
        // the window's one worker the executor runs inline.
        {"spmv.exec.call_ms_p50_4w", "ms", median(par.exec_call_ms)},
        {"spmv.exec.busy_share", "ratio",
         ratio(wide.busy_s, wide.worker_wall_s)},
        {"spmv.exec.blocked_share", "ratio",
         ratio(wide.blocked_s, wide.worker_wall_s)},
        {"spmv.exec.split_share", "ratio",
         ratio(static_cast<double>(wide.split_calls),
               static_cast<double>(wide.calls))},
        {"spmv.exec.steals_per_call", "count",
         ratio(static_cast<double>(wide.steals),
               static_cast<double>(wide.calls))},
        {"spmv.exec.tasks_per_call", "count",
         ratio(static_cast<double>(wide.tasks),
               static_cast<double>(wide.calls))},
        {"spmv.exec.workers", "count", static_cast<double>(wide.workers)},
        {"spmv.exec.blocks_decoded_per_call", "count",
         ratio(static_cast<double>(ex.blocks_decoded),
               static_cast<double>(ex.calls))},
        {"spmv.cache.hit_ratio", "ratio",
         ratio(static_cast<double>(ex.cache_hit_bands),
               static_cast<double>(ex.cache_hit_bands + ex.cache_miss_bands))},
        {"spmv.cache.pinned_mb", "MB",
         static_cast<double>(ex.pinned_bytes) / 1e6},
        {"spmv.spmspv.skip_ratio", "ratio", w->skip_ratio},
        {"spmv.spmspv.multiply_ms_p50", "ms", median(spans.spmspv_ms)},
        {"spmv.spmspv.multiply_ms_p50_4w", "ms", median(par.spmspv_call_ms)},
        {"spmv.spmspv.multiplies_per_op", "count",
         ratio(static_cast<double>(w->spmspv.multiplies), traversals)},
        {"spmv.spmspv.decoded_mb_per_op", "MB",
         ratio(static_cast<double>(w->spmspv.blocks_decoded) * block_mb,
               traversals)},
        {"solver.cg_iterations", "count", w->cg_iterations},
        {"solver.self_ms_per_iter", "ms",
         is_cg ? ratio(sum(spans.op_self_ms),
                       static_cast<double>(spans.exec_ms.size()))
               : 0.0},
        {"solver.bfs_levels", "count", w->bfs_levels},
        {"solver.bfs_self_ms", "ms",
         is_bfs ? median(spans.op_self_ms) : 0.0},
        {"trace.overhead_frac", "ratio",
         ratio(median(shown.traced_ms), median(shown.op_ms)) - 1.0},
    };
  }

  const bool correct = failed == 0 && attempted > 0 && w->baseline_ok() &&
                       layers_ok;

  recode::telemetry::JsonWriter f;
  f.begin_object();
  f.key("facts");
  f.begin_object();
  f.kv("workload", name.c_str());
  f.kv("seed", seed);
  f.kv("size", size_name.c_str());
  f.kv("trace", traced);
  f.kv("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  f.kv("llc_bytes", static_cast<std::uint64_t>(llc));
  f.kv("telemetry_compiled", recode::telemetry::kEnabled);
  f.kv("workers_per_op", static_cast<std::uint64_t>(kWorkers));
  f.kv("probe_workers", static_cast<std::uint64_t>(kProbeWorkers));
  f.kv("closed_loop_clients", std::uint64_t{1});
  f.kv("rows", static_cast<std::int64_t>(a.rows));
  f.kv("nnz", static_cast<std::uint64_t>(a.nnz()));
  f.kv("compressed_bytes", static_cast<std::uint64_t>(cm.stream_bytes()));
  f.kv("decoded_bytes", static_cast<std::uint64_t>(a.nnz() * 12));
  f.kv("csr_pass_bytes", csr_pass_bytes(a));
  f.kv("compressed_over_llc",
       ratio(static_cast<double>(cm.stream_bytes()), static_cast<double>(llc)));
  f.kv("decoded_over_llc", ratio(nnz * 12.0, static_cast<double>(llc)));
  f.kv("op_samples", static_cast<std::uint64_t>(shown.op_ms.size()));
  if (traced) {
    f.kv("traced_op_samples",
         static_cast<std::uint64_t>(shown.traced_ms.size()));
  }
  f.kv("csr_samples", static_cast<std::uint64_t>(shown.csr_ms.size()));
  f.kv("tail_percentile", kTailPercentile);
  f.key("setup_s_samples");
  f.begin_array();
  for (double v : setup_s) f.value(v);
  f.end_array();
  f.key("compress_s_samples");
  f.begin_array();
  for (double v : compress_s) f.value(v);
  f.end_array();
  f.kv("fail_ratio", ratio(static_cast<double>(failed),
                           static_cast<double>(attempted)));
  f.kv("baseline_ok", w->baseline_ok());
  f.kv("host_steal_share", shown.steal_share);
  if (traced) {
    f.kv("op_span_coverage", span_coverage);
    f.kv("triad_array_mib", triad_mib);
  }
  f.end_object();
  f.end_object();
  std::printf("%s\n", f.str().c_str());

  recode::telemetry::JsonWriter j;
  j.begin_object();
  j.kv("correct", correct);
  j.kv("attempted", attempted);
  j.kv("failed", failed);
  put_metrics(j, metrics);
  j.end_object();
  std::printf("%s\n", j.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
