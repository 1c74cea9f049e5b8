#pragma once

// The compiled engine configurations the campaign cross-validation suites
// sweep: lanes {64, 512} x threads {1, 4}. Every entry must grade
// exactly like the serial simulators and the interpreted backend.

#include <string>
#include <vector>

#include "fault/parallel_faultsim.h"

namespace femu {

inline std::vector<CampaignConfig> compiled_engine_matrix() {
  std::vector<CampaignConfig> configs;
  for (const LaneWidth lanes : {LaneWidth::k64, LaneWidth::k512}) {
    for (const unsigned threads : {1u, 4u}) {
      configs.push_back({SimBackend::kCompiled, lanes, threads});
    }
  }
  return configs;
}

/// "512x4t"-style label for assertion messages.
inline std::string engine_label(const CampaignConfig& config) {
  return std::to_string(lane_count(config.lanes)) + "x" +
         std::to_string(config.num_threads) + "t";
}

}  // namespace femu
