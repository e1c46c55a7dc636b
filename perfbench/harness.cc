#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>

#include "bench.h"
#include "common/error.h"
#include "common/prng.h"
#include "telemetry/json_writer.h"

namespace perfbench {

Tracer::Tracer() : t0_(Clock::now()) {
  // Reserve up front so appending a span never reallocates mid-op.
  spans_.reserve(1u << 20);
}

std::int32_t Tracer::open(const char* name) {
  Span s;
  s.name = name;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - t0_)
                   .count();
  s.parent = current_;
  s.op = op_;
  spans_.push_back(s);
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  return current_;
}

void Tracer::close(std::int32_t id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - t0_)
                 .count();
  current_ = s.parent;
}

std::vector<std::int64_t> Tracer::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  // One thread records, so children nest inside their parent and never
  // overlap each other: subtracting their durations is exact.
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  return self;
}

void Tracer::write(const std::string& path) const {
  recode::telemetry::JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.kv("name", s.name);
    w.kv("ph", "X");
    w.kv("pid", std::int64_t{1});
    w.kv("tid", std::int64_t{1});
    w.kv("ts", static_cast<double>(s.start_ns) / 1e3);
    w.kv("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    w.key("args");
    w.begin_object();
    w.kv("id", static_cast<std::int64_t>(i));
    w.kv("parent", static_cast<std::int64_t>(s.parent));
    w.kv("op", s.op);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path);
  out << w.str() << '\n';
  if (!out) throw recode::Error("cannot write trace file " + path);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

spmv::StreamingConfig streaming_config(std::size_t workers) {
  RECODE_CHECK(workers >= 1);
  spmv::StreamingConfig cfg;
  cfg.decode_threads = std::max<std::size_t>(workers - 1, 1);
  cfg.compute_threads = 1;
  if (workers == 1) cfg.fused_inline_blocks = ~std::size_t{0};
  return cfg;
}

void require_workers(const spmv::OverlapStats& stats, std::size_t workers) {
  if (stats.workers != workers) {
    throw recode::Error("executor ran " + std::to_string(stats.workers) +
                        " workers, expected " + std::to_string(workers));
  }
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  recode::Prng prng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = prng.next_double() * 2.0 - 1.0;
  return v;
}

void ExecCounters::add(const spmv::OverlapStats& s) {
  ++calls;
  if (!s.fused) ++split_calls;
  busy_s += s.decode_busy_seconds + s.compute_busy_seconds;
  blocked_s += s.decode_blocked_seconds + s.compute_blocked_seconds;
  worker_wall_s += static_cast<double>(s.workers) * s.wall_seconds;
  steals += s.steals;
  tasks += s.bands;
  blocks_decoded += s.blocks_decoded;
  cache_hit_bands += s.cache_hit_bands;
  cache_miss_bands += s.cache_miss_bands;
  workers = s.workers;
  pinned_bytes = s.cache_bytes_pinned;
}

namespace {

std::size_t parse_cache_size(const std::string& text) {
  std::size_t value = 0;
  std::size_t i = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    value = value * 10 + static_cast<std::size_t>(text[i] - '0');
    ++i;
  }
  if (i < text.size() && (text[i] == 'K' || text[i] == 'k')) value <<= 10;
  if (i < text.size() && (text[i] == 'M' || text[i] == 'm')) value <<= 20;
  return value;
}

}  // namespace

std::size_t host_llc_bytes() {
  std::size_t best = 0;
  int best_level = 0;
  for (int idx = 0; idx < 8; ++idx) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx);
    std::ifstream level_in(dir + "/level");
    std::ifstream size_in(dir + "/size");
    int level = 0;
    std::string size;
    if (!(level_in >> level) || !(size_in >> size)) continue;
    if (level >= best_level) {
      best_level = level;
      best = parse_cache_size(size);
    }
  }
  if (best == 0) {
    const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (l3 > 0) best = static_cast<std::size_t>(l3);
  }
  return best;
}

CpuTicks read_cpu_ticks() {
  // "cpu user nice system idle iowait irq softirq steal ..."
  std::ifstream in("/proc/stat");
  std::string label;
  CpuTicks t;
  if (!(in >> label) || label != "cpu") return t;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) return CpuTicks{};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

// Writing 5 to clear_refs restarts the kernel's VmHWM from the current
// RSS. Freed heap is handed back first, so pages the input generator
// released do not stay counted as resident.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.close();
  if (!out) throw recode::Error("cannot reset the peak RSS (clear_refs)");
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
    std::getline(in, key);
  }
  throw recode::Error("no VmHWM in /proc/self/status");
}

}  // namespace perfbench
