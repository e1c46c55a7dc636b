// MetricsRegistry / Counter / Gauge / Histogram unit tests: bucket
// boundaries, snapshot contents, registry identity and reset, concurrent
// hot-path updates, and the snapshot JSON schema (via minijson).
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "minijson.h"
#include "telemetry/telemetry.h"

namespace recode::telemetry {
namespace {

namespace mj = recode::testing::minijson;

TEST(Counter, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  if (kEnabled) {
    EXPECT_EQ(c.value(), 42u);
  } else {
    EXPECT_EQ(c.value(), 0u);
  }
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAndReset) {
  Gauge g;
  g.set(2.5);
  if (kEnabled) {
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
  }
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, BucketIndexBoundaries) {
  // Bucket 0 is [0, 1); bucket i >= 1 is [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(Histogram::bucket_index(0.999), 0);
  EXPECT_EQ(Histogram::bucket_index(1.0), 1);
  EXPECT_EQ(Histogram::bucket_index(1.999), 1);
  EXPECT_EQ(Histogram::bucket_index(2.0), 2);
  EXPECT_EQ(Histogram::bucket_index(3.0), 2);
  EXPECT_EQ(Histogram::bucket_index(4.0), 3);
  EXPECT_EQ(Histogram::bucket_index(1024.0), 11);
  // Degenerate inputs land in bucket 0 rather than faulting.
  EXPECT_EQ(Histogram::bucket_index(-5.0), 0);
  EXPECT_EQ(Histogram::bucket_index(std::nan("")), 0);
  // Huge values saturate at the last bucket.
  EXPECT_EQ(Histogram::bucket_index(1e300), Histogram::kBuckets - 1);

  // Every bucket's value range maps back into that bucket.
  for (int i = 1; i < Histogram::kBuckets - 1; ++i) {
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_upper(i - 1)), i)
        << "lower edge of bucket " << i;
  }
}

TEST(Histogram, SnapshotCountsAndExtremes) {
  Histogram h;
  HistogramSnapshot empty = h.snapshot();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_TRUE(std::isnan(empty.min));  // stats.h empty-input convention
  EXPECT_TRUE(std::isnan(empty.max));
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);

  h.observe(0.5);
  h.observe(3.0);
  h.observe(100.0);
  HistogramSnapshot s = h.snapshot();
  if (!kEnabled) {
    EXPECT_EQ(s.count, 0u);
    return;
  }
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 103.5);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 34.5);
  // Only non-empty buckets are exported, ascending by bound.
  ASSERT_EQ(s.buckets.size(), 3u);
  EXPECT_DOUBLE_EQ(s.buckets[0].upper, 1.0);    // 0.5
  EXPECT_DOUBLE_EQ(s.buckets[1].upper, 4.0);    // 3.0 in [2,4)
  EXPECT_DOUBLE_EQ(s.buckets[2].upper, 128.0);  // 100 in [64,128)
  for (const auto& b : s.buckets) EXPECT_EQ(b.count, 1u);

  h.reset();
  EXPECT_EQ(h.snapshot().count, 0u);
}

TEST(MetricsRegistry, NamesResolveToSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x.count");
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&reg.counter("y.count"), &a);
  // Distinct kinds share a namespace without clashing.
  reg.gauge("x.count");
  reg.histogram("x.count");

  a.add(7);
  reg.gauge("g").set(1.5);
  reg.histogram("h").observe(10.0);
  MetricsSnapshot snap = reg.snapshot();
  if (kEnabled) {
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].first, "x.count");  // name-sorted
    EXPECT_EQ(snap.counters[0].second, 7u);
  }

  // reset() zeroes in place; references stay valid and usable.
  reg.reset();
  EXPECT_EQ(a.value(), 0u);
  a.add(1);
  if (kEnabled) {
    EXPECT_EQ(a.value(), 1u);
  }
}

TEST(MetricsRegistry, GlobalIsSingleton) {
  EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

TEST(MetricsRegistry, ConcurrentHotPathUpdates) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  Histogram& h = reg.histogram("h");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add(1);
        h.observe(static_cast<double>(i % 37));
      }
    });
  }
  for (auto& t : threads) t.join();
  if (!kEnabled) return;
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const auto& b : s.buckets) bucket_total += b.count;
  EXPECT_EQ(bucket_total, s.count);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 36.0);
}

TEST(MetricsSnapshot, JsonSchema) {
  MetricsRegistry reg;
  reg.counter("codec.encode.blocks").add(12);
  reg.gauge("udp.accel.utilization").set(0.75);
  reg.histogram("spmv.band_queue.push_wait_us").observe(5.0);
  // A gauge left NaN must serialize as null, not break the document.
  reg.gauge("nan.gauge").set(std::nan(""));

  bool ok = false;
  mj::Value doc = mj::parse(reg.snapshot().to_json(), ok);
  ASSERT_TRUE(ok) << "snapshot JSON failed to parse";
  ASSERT_TRUE(doc.is_object());
  ASSERT_TRUE(doc.has("counters"));
  ASSERT_TRUE(doc.has("gauges"));
  ASSERT_TRUE(doc.has("histograms"));
  if (!kEnabled) return;

  EXPECT_DOUBLE_EQ(doc.at("counters").at("codec.encode.blocks").num(), 12.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("udp.accel.utilization").num(), 0.75);
  EXPECT_TRUE(doc.at("gauges").at("nan.gauge").is_null());

  const mj::Value& h =
      doc.at("histograms").at("spmv.band_queue.push_wait_us");
  EXPECT_DOUBLE_EQ(h.at("count").num(), 1.0);
  EXPECT_DOUBLE_EQ(h.at("min").num(), 5.0);
  ASSERT_TRUE(h.at("buckets").is_array());
  ASSERT_EQ(h.at("buckets").array().size(), 1u);
  EXPECT_DOUBLE_EQ(h.at("buckets").array()[0].at("upper").num(), 8.0);
  EXPECT_DOUBLE_EQ(h.at("buckets").array()[0].at("count").num(), 1.0);
}

}  // namespace
}  // namespace recode::telemetry
