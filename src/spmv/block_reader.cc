#include "spmv/block_reader.h"

#include "common/error.h"

namespace recode::spmv {

const char* decode_engine_name(DecodeEngine engine) {
  switch (engine) {
    case DecodeEngine::kSoftware: return "software";
    case DecodeEngine::kUdpSimulated: return "udp-sim";
  }
  return "?";
}

void check_block_indices(std::span<const sparse::index_t> indices,
                         sparse::index_t cols) {
  for (const sparse::index_t c : indices) {
    RECODE_PARSE_CHECK(c >= 0 && c < cols,
                       "decoded column index out of range");
  }
}

std::shared_ptr<codec::ContainerSource> source_or_resident(
    const codec::CompressedMatrix& cm,
    std::shared_ptr<codec::ContainerSource> source) {
  if (source && source->out_of_core()) return source;
  return codec::make_resident_source(cm);
}

void reserve_for_bands(codec::ContainerSource& source,
                       std::span<const RowBand> bands, std::size_t leases) {
  std::size_t max_extent = 0;
  for (const RowBand& band : bands) {
    max_extent = std::max(
        max_extent,
        source.range_extent_bytes(band.first_block, band.block_count));
  }
  if (max_extent > 0) source.reserve(leases, max_extent);
}

BlockReader::BlockReader(const codec::CompressedMatrix& cm,
                         codec::ContainerSource& source, DecodeEngine engine)
    : cm_(&cm), source_(&source), engine_(engine) {}

codec::DecodedBlock BlockReader::decode(std::size_t b) {
  const codec::SourceBlockBytes bytes = source_->block(b);
  codec::DecodedBlock decoded;
  if (engine_ == DecodeEngine::kSoftware) {
    decoded = codec::decompress_block_fast(
        *cm_, b, bytes.index_data, bytes.value_data, scratch_, out_);
  } else {
    if (!udp_) udp_ = std::make_unique<udpprog::UdpPipelineDecoder>(*cm_);
    udp_result_ = udp_->decode_block(b, bytes.index_data, bytes.value_data);
    counts.udp_cycles += udp_result_.lane_cycles();
    decoded = {udp_result_.indices, udp_result_.values};
  }
  check_block_indices(decoded.indices, cm_->cols);
  ++counts.blocks;
  counts.bytes += bytes.index_data.size() + bytes.value_data.size() + 1;
  return decoded;
}

}  // namespace recode::spmv
