// Microbench for the UDP simulator itself: how fast the host simulates
// lane execution (simulated cycles per host second), and the EffCLiP
// layout and program-build cost for codec-sized programs.
#include "bench/bench_util.h"
#include "codec/snappy.h"
#include "udp/lane.h"
#include "udpprog/huffman_prog.h"
#include "udpprog/snappy_prog.h"

namespace recode::bench {
namespace {

constexpr int kReps = 5;
constexpr double kMinSeconds = 0.05;

// Keeps results observable so the timed loops cannot be elided.
std::uint64_t g_sink = 0;

codec::Bytes snappy_input(std::size_t size) {
  Prng prng(5);
  codec::Bytes raw(size);
  for (std::size_t i = 0; i < size; i += 4) {
    raw[i] = static_cast<std::uint8_t>(prng.next_below(16));
  }
  return codec::SnappyCodec().encode(raw);
}

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  BenchReport report(cli, "micro_udp");
  cli.done();
  print_header("micro_udp", "UDP lane simulation and EffCLiP layout cost");

  Table table({"case", "host us/call", "sim Mcycles/s"});
  const auto record = [&](const std::string& name, double seconds,
                          std::uint64_t cycles_per_call) {
    const double mcycles_per_s =
        static_cast<double>(cycles_per_call) / seconds / 1e6;
    table.add_row({name, Table::num(seconds * 1e6, 1),
                   cycles_per_call > 0 ? Table::num(mcycles_per_s, 1) : "-"});
    report.add_result(name + "_us", seconds * 1e6);
    if (cycles_per_call > 0) {
      report.add_result(name + "_sim_mcycles_per_s", mcycles_per_s);
    }
  };

  {
    const udp::Program program = udpprog::build_snappy_decode_program();
    const udp::Layout layout(program);
    udp::Lane lane(layout);
    const codec::Bytes enc = snappy_input(8192);
    const std::pair<int, std::uint64_t> init[] = {
        {udpprog::kSnappyOutReg, 0}, {udpprog::kSnappyBaseReg, 0}};
    const std::uint64_t cycles = lane.run(enc, init).cycles;
    record("lane_snappy_decode", best_seconds(kReps, kMinSeconds, [&] {
             g_sink += lane.run(enc, init).cycles;
           }),
           cycles);
  }
  {
    Prng prng(6);
    codec::Bytes raw(8192);
    for (auto& b : raw) b = static_cast<std::uint8_t>(prng.next_below(16));
    const auto table_ptr = std::make_shared<const codec::HuffmanTable>(
        codec::HuffmanTable::train(raw));
    const codec::Bytes enc = codec::HuffmanCodec(table_ptr).encode(raw);
    const udp::Program program =
        udpprog::build_huffman_decode_program(*table_ptr);
    const udp::Layout layout(program);
    udp::Lane lane(layout);
    const std::pair<int, std::uint64_t> init[] = {
        {udpprog::kHuffmanOutReg, 0}};
    const std::uint64_t cycles = lane.run(enc, init).cycles;
    record("lane_huffman_decode", best_seconds(kReps, kMinSeconds, [&] {
             g_sink += lane.run(enc, init).cycles;
           }),
           cycles);
  }
  {
    const udp::Program program = udpprog::build_snappy_decode_program();
    record("effclip_layout_snappy", best_seconds(kReps, kMinSeconds, [&] {
             g_sink += udp::Layout(program).table_size();
           }),
           0);
  }
  {
    Prng prng(7);
    codec::Bytes raw(8192);
    for (auto& b : raw) b = static_cast<std::uint8_t>(prng.next_below(64));
    const codec::HuffmanTable huffman = codec::HuffmanTable::train(raw);
    record("build_huffman_program", best_seconds(kReps, kMinSeconds, [&] {
             g_sink += udpprog::build_huffman_decode_program(huffman)
                           .state_count();
           }),
           0);
  }
  table.print();
  std::printf("sink=%llu\n", static_cast<unsigned long long>(g_sink));
  report.write();
  return 0;
}

}  // namespace
}  // namespace recode::bench

int main(int argc, char** argv) { return recode::bench::run(argc, argv); }
