#include "sim/chip_design.hpp"

#include "common/contracts.hpp"

namespace dmfb::sim {

using biochip::CellUsage;
using reconfig::CoveragePolicy;
using reconfig::ReplacementPool;

ChipDesign::ChipDesign(biochip::HexArray array) : array_(std::move(array)) {
  for (const CoveragePolicy policy :
       {CoveragePolicy::kAllFaultyPrimaries,
        CoveragePolicy::kUsedFaultyPrimaries}) {
    for (const ReplacementPool pool :
         {ReplacementPool::kSparesOnly,
          ReplacementPool::kSparesAndUnusedPrimaries}) {
      Skeleton& skeleton = skeletons_[skeleton_index(policy, pool)];
      skeleton.candidate_offset.push_back(0);
      skeleton.cover_row_of_cell.assign(
          static_cast<std::size_t>(array_.cell_count()), -1);
      skeleton.cover_words.assign(fault_word_count(array_.cell_count()), 0);
      for (const CellIndex primary : array_.primaries()) {
        if (policy == CoveragePolicy::kUsedFaultyPrimaries &&
            array_.usage(primary) != CellUsage::kAssayUsed) {
          continue;
        }
        skeleton.cover_row_of_cell[static_cast<std::size_t>(primary)] =
            static_cast<std::int32_t>(skeleton.cover.size());
        skeleton.cover_words[static_cast<std::size_t>(primary) >> 6] |=
            std::uint64_t{1} << (primary & 63);
        skeleton.cover.push_back(primary);
        reconfig::for_each_candidate(
            array_, primary, pool, [&skeleton](CellIndex candidate) {
              skeleton.candidate_flat.push_back(candidate);
            });
        skeleton.candidate_offset.push_back(
            static_cast<std::int32_t>(skeleton.candidate_flat.size()));
      }
    }
  }
  // Content fingerprint over (coord, role, usage) per cell in index order.
  // FNV-1a, 64-bit: stable across platforms, independent of std::hash.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (byte * 8)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  mix(static_cast<std::uint64_t>(array_.cell_count()));
  for (CellIndex cell = 0; cell < array_.cell_count(); ++cell) {
    const hex::HexCoord at = array_.region().coord_at(cell);
    mix((static_cast<std::uint64_t>(static_cast<std::uint32_t>(at.q)) << 32) |
        static_cast<std::uint32_t>(at.r));
    mix((static_cast<std::uint64_t>(array_.role(cell)) << 8) |
        static_cast<std::uint64_t>(array_.usage(cell)));
  }
  fingerprint_ = hash;
}

std::shared_ptr<const ChipDesign> ChipDesign::make(
    const biochip::HexArray& array) {
  DMFB_EXPECTS(array.faulty_count() == 0);
  return std::shared_ptr<const ChipDesign>(new ChipDesign(array));
}

}  // namespace dmfb::sim
