#ifndef SDTWBENCH_PROBES_H_
#define SDTWBENCH_PROBES_H_

/// \file probes.h
/// \brief Per-layer probes: sampled calls into the public functions of the
/// sift, align, core and dtw layers on a workload's own inputs, timed from
/// outside.
///
/// Every timing is the median of kWindows windows, each repeating a pass
/// over the probe inputs until it lasts at least a minimum wall time; one
/// short window is at the mercy of a scheduler hiccup, the median of
/// several is not. Ratios (keypoints per series, kept pairs, band fill,
/// distance error) are exact functions of the inputs.

#include <cstddef>
#include <utility>
#include <vector>

#include "common.h"
#include "ts/time_series.h"

namespace sdtwbench {

inline constexpr int kWindows = 9;

/// \brief The inputs a workload hands its probes. Pointees must outlive
/// the RunProbes call.
struct ProbeInputs {
  /// Series whose salient features are extracted.
  std::vector<const sdtw::ts::TimeSeries*> series;
  /// (x, y) comparisons the band, DP and lower-bound probes run.
  std::vector<std::pair<const sdtw::ts::TimeSeries*,
                        const sdtw::ts::TimeSeries*>>
      pairs;
};

/// Sets sift.*, align.*, core.* and dtw.* metrics; one span per window.
void RunProbes(const ProbeInputs& inputs, bool smoke, Report& report,
               Tracer& tracer);

/// Draws `count` (x, y) pairs with x from `xs` and y from `ys`, skipping
/// x == y, deterministically from `seed`.
std::vector<std::pair<const sdtw::ts::TimeSeries*,
                      const sdtw::ts::TimeSeries*>>
SamplePairs(const std::vector<const sdtw::ts::TimeSeries*>& xs,
            const std::vector<const sdtw::ts::TimeSeries*>& ys,
            std::size_t count, std::uint64_t seed);

}  // namespace sdtwbench

#endif  // SDTWBENCH_PROBES_H_
