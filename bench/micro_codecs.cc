// Microbenchmarks for the software codec hot paths: reference scalar
// decoders vs the fast word-wise/arena decoders (codec::fast), plus the
// encode rates that feed the CPU-baseline model. Huffman and Snappy run
// in situ, on the block payloads of a compressed suite matrix; the
// transforms run on synthetic --size blocks.
//
// Emits a recode-bench-v1 JSON via --json (BENCH_codecs.json in the repo
// root is seeded from this binary). The acceptance number is
// geomean_huffman_snappy_speedup: the fast Huffman + Snappy decode paths
// must hold >= 2x over the reference decoders on real block streams.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "codec/arena.h"
#include "codec/delta.h"
#include "codec/fast_decode.h"
#include "codec/huffman.h"
#include "codec/pipeline.h"
#include "codec/registry.h"
#include "codec/snappy.h"
#include "codec/varint_delta.h"
#include "sparse/generators.h"
#include "sparse/suite.h"

namespace recode::bench {
namespace {

using codec::Bytes;
using codec::DecodeArena;

Bytes structured_block(std::size_t size, std::uint64_t seed) {
  // Delta-coded-index-like content: small repeating words.
  Prng prng(seed);
  Bytes raw(size);
  for (std::size_t i = 0; i < size; i += 4) {
    const std::uint32_t v = 1 + static_cast<std::uint32_t>(prng.next_below(8));
    std::memcpy(raw.data() + i, &v, std::min<std::size_t>(4, size - i));
  }
  return raw;
}

// Keeps decoded bytes observable so the timed loops cannot be elided.
std::uint64_t g_sink = 0;

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto size = static_cast<std::size_t>(cli.get_int(
      "size", 8192, "input bytes per transform call (the pipeline block scale)"));
  const int reps =
      static_cast<int>(cli.get_int("reps", 5, "timed repetitions (best-of)"));
  const double min_ms = cli.get_double(
      "min-ms", 50.0, "minimum measured milliseconds per timing sample");
  const auto env_seed = test_seed(2019);
  const auto seed = static_cast<std::uint64_t>(cli.get_int(
      "seed", static_cast<std::int64_t>(env_seed),
      "content generator seed (default honors RECODE_TEST_SEED)"));
  BenchReport report(cli, "micro_codecs");
  cli.done();
  const double min_s = min_ms / 1e3;

  print_header("micro_codecs",
               "reference vs fast (word-wise, arena) codec decode rates");
  report.add_result("size_bytes", static_cast<double>(size));

  Table table({"stage", "bytes", "ref GB/s", "fast GB/s", "speedup"});
  const double gb = static_cast<double>(size) / 1e9;
  DecodeArena arena;

  // Records one ref/fast decode pair over `bytes` decoded bytes and
  // returns the speedup.
  const auto record_bytes = [&](const std::string& name, std::size_t bytes,
                                double ref_s, double fast_s) {
    const double out_gb = static_cast<double>(bytes) / 1e9;
    table.add_row({name, std::to_string(bytes), Table::num(out_gb / ref_s, 2),
                   Table::num(out_gb / fast_s, 2),
                   Table::num(ref_s / fast_s, 2)});
    report.add_result("ref_" + name + "_decode_gbps", out_gb / ref_s);
    report.add_result("fast_" + name + "_decode_gbps", out_gb / fast_s);
    report.add_result("speedup_" + name, ref_s / fast_s);
    return ref_s / fast_s;
  };
  const auto record = [&](const std::string& name, double ref_s,
                          double fast_s) {
    return record_bytes(name, size, ref_s, fast_s);
  };

  // Huffman and Snappy in situ: decode timed on the real block payloads
  // of a DSH-compressed suite matrix (the copter2 stand-in: FEM, smooth
  // values, like perfbench's spmv_cold), index and value streams apart.
  // These are the calls the ledger's huffman and snappy hops time, on the
  // bytes they see, and rates are decoded bytes per second like the
  // hops' busy_gbps — so the two agree. (A skewed synthetic block read
  // 2-3x faster than any real stream.)
  double entropy_log_speedup = 0.0;
  {
    constexpr double kSuiteScale = 0.25;
    const sparse::Csr a = sparse::representative_suite(kSuiteScale)[0].csr;
    const auto cm = codec::compress(a, codec::PipelineConfig::udp_dsh());
    const codec::SnappyCodec sc;
    std::size_t huffman_in = 0, snappy_in = 0, snappy_out = 0;
    double encode_huffman_s = 0.0, encode_snappy_s = 0.0;
    for (const bool values : {false, true}) {
      const std::string stream = values ? "value" : "index";
      const auto& table_ptr = values ? cm.value_table : cm.index_table;
      // Payload (Huffman input) -> mid (Snappy input) -> raw (transform
      // input), every block; all compress() blocks are interleaved.
      std::vector<codec::ByteSpan> payloads;
      std::vector<Bytes> mids, raws;
      std::size_t mid_bytes = 0, raw_bytes = 0, max_out = 0;
      const codec::HuffmanCodec hc(table_ptr, /*interleaved=*/true);
      for (const auto& block : cm.blocks) {
        payloads.emplace_back(values ? block.value_data : block.index_data);
        mids.push_back(hc.decode(payloads.back()));
        raws.push_back(sc.decode(mids.back()));
        mid_bytes += mids.back().size();
        raw_bytes += raws.back().size();
        huffman_in += payloads.back().size();
        max_out = std::max(max_out, raws.back().size());
      }
      std::uint8_t* dst = arena.slab(DecodeArena::kScratchA, max_out);

      const double huff_ref_s = best_seconds(reps, min_s, [&] {
        for (const auto p : payloads) g_sink += hc.decode(p).size();
      });
      const double huff_fast_s = best_seconds(reps, min_s, [&] {
        for (const auto p : payloads) {
          g_sink += codec::fast::huffman_decode(*table_ptr, p, dst, true);
        }
      });
      entropy_log_speedup += std::log(record_bytes(
          "huffman_" + stream, mid_bytes, huff_ref_s, huff_fast_s));

      const double snappy_ref_s = best_seconds(reps, min_s, [&] {
        for (const auto& m : mids) g_sink += sc.decode(m).size();
      });
      const double snappy_fast_s = best_seconds(reps, min_s, [&] {
        for (const auto& m : mids) {
          g_sink += codec::fast::snappy_decode(m, dst);
        }
      });
      entropy_log_speedup += std::log(record_bytes(
          "snappy_" + stream, raw_bytes, snappy_ref_s, snappy_fast_s));

      encode_huffman_s += best_seconds(reps, min_s, [&] {
        for (const auto& m : mids) g_sink += hc.encode(m).size();
      });
      encode_snappy_s += best_seconds(reps, min_s, [&] {
        for (const auto& r : raws) g_sink += sc.encode(r).size();
      });
      snappy_in += mid_bytes;
      snappy_out += raw_bytes;
    }
    report.add_result("insitu_nnz", static_cast<double>(a.nnz()));
    report.add_result("encode_huffman_gbps",
                      static_cast<double>(snappy_in) / 1e9 / encode_huffman_s);
    report.add_result("encode_snappy_gbps",
                      static_cast<double>(snappy_out) / 1e9 / encode_snappy_s);
    report.add_result("huffman_payload_bytes",
                      static_cast<double>(huffman_in));
  }

  // Fixed-width delta inverse transform.
  {
    const codec::DeltaCodec dc;
    const Bytes raw = structured_block(size, seed + 3);
    const Bytes enc = dc.encode(raw);
    const double ref_s = best_seconds(reps, min_s, [&] {
      g_sink += dc.decode(enc).size();
    });
    std::uint8_t* dst = arena.slab(DecodeArena::kScratchA, size);
    const double fast_s = best_seconds(reps, min_s, [&] {
      g_sink += codec::fast::delta_decode(enc, dst);
    });
    record("delta32", ref_s, fast_s);
    report.add_result("encode_delta32_gbps",
                      gb / best_seconds(reps, min_s, [&] {
                        g_sink += dc.encode(raw).size();
                      }));
  }

  // Varint-delta inverse transform (LEB128 zigzag -> LE32 words).
  {
    const codec::VarintDeltaCodec vc;
    const Bytes raw = structured_block(size, seed + 4);
    const Bytes enc = vc.encode(raw);
    const double ref_s = best_seconds(reps, min_s, [&] {
      g_sink += vc.decode(enc).size();
    });
    std::uint8_t* dst = arena.slab(DecodeArena::kScratchA, size);
    const double fast_s = best_seconds(reps, min_s, [&] {
      g_sink += codec::fast::varint_delta_decode(enc, dst, size);
    });
    record("varint_delta", ref_s, fast_s);
  }

  // Byte-transposition inverse transform (plane-major -> record-major),
  // the registry's value transform for shared-exponent blocks.
  {
    Prng prng(seed + 6);
    Bytes raw(size);
    for (auto& b : raw) b = static_cast<std::uint8_t>(prng.next_below(256));
    const Bytes enc = codec::byte_transpose(raw);
    const double ref_s = best_seconds(reps, min_s, [&] {
      g_sink += codec::byte_untranspose(enc).size();
    });
    std::uint8_t* dst = arena.slab(DecodeArena::kScratchA, size);
    const double fast_s = best_seconds(reps, min_s, [&] {
      g_sink += codec::fast::byte_untranspose(enc, dst);
    });
    record("transpose", ref_s, fast_s);
  }

  // Full block decode through the pipeline: the reference Bytes-chain
  // path vs the fused arena path (decompress_block_fast), over every
  // block of a DSH-compressed FEM-like matrix.
  {
    const sparse::Csr a = sparse::gen_fem_like(
        20000, 12, 400, sparse::ValueModel::kSmoothField, seed + 5);
    const auto cm = codec::compress(a, codec::PipelineConfig::udp_dsh());
    const double block_gb = static_cast<double>(a.nnz()) *
                            (sizeof(sparse::index_t) + sizeof(double)) / 1e9;
    std::vector<sparse::index_t> idx;
    std::vector<double> val;
    const double ref_s = best_seconds(reps, min_s, [&] {
      for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
        codec::decompress_block_reference(cm, b, idx, val);
        g_sink += idx.size();
      }
    });
    DecodeArena scratch, out;
    const double fast_s = best_seconds(reps, min_s, [&] {
      for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
        const auto d = codec::decompress_block_fast(cm, b, scratch, out);
        g_sink += d.indices.size();
      }
    });
    table.add_row({"block(dsh)", std::to_string(a.nnz() * 12),
                   Table::num(block_gb / ref_s, 2),
                   Table::num(block_gb / fast_s, 2),
                   Table::num(ref_s / fast_s, 2)});
    report.add_result("ref_block_dsh_decode_gbps", block_gb / ref_s);
    report.add_result("fast_block_dsh_decode_gbps", block_gb / fast_s);
    report.add_result("speedup_block_dsh", ref_s / fast_s);
  }
  // Per-block adaptive selection (registry exhaustive trial-encode):
  // stream size vs the fixed DSH pipeline on the same matrix, plus the
  // fast-path decode rate over the resulting mixed-id block stream.
  {
    const sparse::Csr a = sparse::gen_fem_like(
        20000, 12, 400, sparse::ValueModel::kSmoothField, seed + 5);
    const auto single = codec::compress(a, codec::PipelineConfig::udp_dsh());
    const auto cm = codec::compress(a, codec::PipelineConfig::udp_adaptive());
    const double block_gb = static_cast<double>(a.nnz()) *
                            (sizeof(sparse::index_t) + sizeof(double)) / 1e9;
    DecodeArena scratch, out;
    const double fast_s = best_seconds(reps, min_s, [&] {
      for (std::size_t b = 0; b < cm.blocks.size(); ++b) {
        const auto d = codec::decompress_block_fast(cm, b, scratch, out);
        g_sink += d.indices.size();
      }
    });
    table.add_row({"block(adaptive)", std::to_string(a.nnz() * 12), "-",
                   Table::num(block_gb / fast_s, 2), "-"});
    report.add_result("fast_block_adaptive_decode_gbps", block_gb / fast_s);
    report.add_result("dsh_bytes_per_nnz", single.bytes_per_nnz());
    report.add_result("adaptive_bytes_per_nnz", cm.bytes_per_nnz());
    report.add_result(
        "adaptive_switched_block_frac",
        static_cast<double>(cm.selection_stats.switched_blocks) /
            static_cast<double>(cm.blocks.size()));
    std::printf("adaptive: %.3f B/nnz vs %.3f dsh (%zu/%zu blocks "
                "switched)\n",
                cm.bytes_per_nnz(), single.bytes_per_nnz(),
                cm.selection_stats.switched_blocks, cm.blocks.size());
  }
  table.print();

  // Over the four in-situ entropy decodes: Huffman and Snappy, index and
  // value streams.
  const double geomean = std::exp(entropy_log_speedup / 4.0);
  std::printf("huffman+snappy decode speedup geomean: %.2fx (floor: 2x)\n",
              geomean);
  std::printf("sink=%llu\n", static_cast<unsigned long long>(g_sink));
  report.add_result("geomean_huffman_snappy_speedup", geomean);
  report.write();
  print_expected(
      "Fig 12 frames software decode as the bottleneck the UDP removes; "
      "the fast path narrows it from the host side — >= 2x geomean over "
      "the reference Huffman+Snappy decoders on real block streams.");
  return 0;
}

}  // namespace
}  // namespace recode::bench

int main(int argc, char** argv) { return recode::bench::run(argc, argv); }
