#include "core/sdtw.h"

#include <algorithm>
#include <cassert>
#include <chrono>

namespace sdtw {
namespace core {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double>(dt).count();
}

}  // namespace

Sdtw::Sdtw(SdtwOptions options)
    : options_(std::move(options)), extractor_(options_.extractor) {}

std::vector<sift::Keypoint> Sdtw::ExtractFeatures(
    const ts::TimeSeries& series) const {
  return extractor_.Extract(series);
}

namespace {

// One directed run of the alignment pipeline: matching, inconsistency
// pruning, interval extraction, band construction, into `band` and the
// scratch's pair, alignment and interval buffers. The symmetric flag is
// ignored — symmetrisation happens at the Sdtw level by running the
// pipeline in both directions (matching itself is directional, §3.3.3).
void RunDirected(std::size_t len_x, const sift::FeatureBlock& features_x,
                 std::size_t len_y, const sift::FeatureBlock& features_y,
                 const SdtwOptions& options, BandScratch& scratch,
                 dtw::Band* band) {
  if (options.constraint.type == ConstraintType::kFixedCoreFixedWidth) {
    // Pure Sakoe-Chiba: no salient-feature evidence is consumed, so skip
    // matching entirely (the paper's fc,fw baseline has no matching
    // overhead, §4.4 / Figure 17). The interval partition degenerates to
    // the single full-range interval.
    scratch.alignments.clear();
    align::BuildIntervals(len_x, len_y, scratch.alignments,
                          &scratch.intervals);
    dtw::SakoeChibaBand(len_x, len_y,
                        options.constraint.fixed_width_fraction, band);
    return;
  }
  align::FindDominantPairs(features_x, features_y, options.matching, len_x,
                           len_y, scratch.match, &scratch.pairs);
  align::PruneInconsistent(features_x, features_y, scratch.pairs,
                           options.consistency, &scratch.candidates,
                           &scratch.alignments);
  align::BuildIntervals(len_x, len_y, scratch.alignments,
                        &scratch.intervals);
  BuildDirectedBand(len_x, len_y, scratch.intervals, options.constraint,
                    band);
}

}  // namespace

const dtw::Band& Sdtw::BuildBand(const ts::TimeSeries& x,
                                 const sift::FeatureBlock& features_x,
                                 const ts::TimeSeries& y,
                                 const sift::FeatureBlock& features_y,
                                 BandScratch& scratch) const {
  // The blocks' cached scope data were clamped to their own series.
  assert(features_x.series_length() == x.size());
  assert(features_y.series_length() == y.size());
  // Size the pair and interval buffers for the larger direction up front
  // (at most one pair per feature, 2·pairs + 1 intervals), so one build
  // on the largest pair warms the scratch for every smaller one.
  const std::size_t features = std::max(features_x.size(), features_y.size());
  scratch.pairs.reserve(features);
  scratch.candidates.reserve(features);
  scratch.alignments.reserve(features);
  scratch.intervals.reserve(2 * features + 1);
  if (options_.constraint.symmetric) {
    // The Y-driven direction runs first, so the scratch ends up holding
    // the X-driven alignments and intervals.
    RunDirected(y.size(), features_y, x.size(), features_x, options_, scratch,
                &scratch.reverse);
  }
  RunDirected(x.size(), features_x, y.size(), features_y, options_, scratch,
              &scratch.band);
  if (options_.constraint.symmetric) {
    // Paper §3.3.3: "a combined band, including grid-cell positions
    // required by both series X and Y".
    UnionWithTransposed(scratch.reverse, &scratch.transposed, &scratch.band);
  }
  return scratch.band;
}

const dtw::Band& Sdtw::BuildBand(
    const ts::TimeSeries& x, const std::vector<sift::Keypoint>& features_x,
    const ts::TimeSeries& y, const std::vector<sift::Keypoint>& features_y,
    BandScratch& scratch) const {
  scratch.staged_x.Assign(features_x, x);
  scratch.staged_y.Assign(features_y, y);
  return BuildBand(x, scratch.staged_x, y, scratch.staged_y, scratch);
}

dtw::Band Sdtw::BuildBand(
    const ts::TimeSeries& x, const std::vector<sift::Keypoint>& features_x,
    const ts::TimeSeries& y,
    const std::vector<sift::Keypoint>& features_y) const {
  BandScratch scratch;
  BuildBand(x, features_x, y, features_y, scratch);
  return std::move(scratch.band);
}

SdtwResult Sdtw::Compare(const ts::TimeSeries& x,
                         const sift::FeatureBlock& features_x,
                         const ts::TimeSeries& y,
                         const sift::FeatureBlock& features_y,
                         double abandon_above) const {
  SdtwResult result;
  const auto t0 = std::chrono::steady_clock::now();

  BandScratch scratch;
  BuildBand(x, features_x, y, features_y, scratch);
  result.alignments = std::move(scratch.alignments);
  result.intervals = std::move(scratch.intervals);
  result.band = std::move(scratch.band);
  result.timing.matching_seconds = SecondsSince(t0);

  // The banded DP uses band-compressed storage (rolling band-width rows
  // when want_path is off), so both time and memory follow the band area.
  const auto t1 = std::chrono::steady_clock::now();
  dtw::DtwResult dp =
      dtw::DtwBanded(x, y, result.band, options_.dtw, abandon_above);
  result.timing.dp_seconds = SecondsSince(t1);

  result.distance = dp.distance;
  result.path = std::move(dp.path);
  result.cells_filled = dp.cells_filled;
  result.cells_allocated = dp.cells_allocated;
  return result;
}

SdtwResult Sdtw::Compare(const ts::TimeSeries& x,
                         const std::vector<sift::Keypoint>& features_x,
                         const ts::TimeSeries& y,
                         const std::vector<sift::Keypoint>& features_y,
                         double abandon_above) const {
  return Compare(x, sift::FeatureBlock(features_x, x), y,
                 sift::FeatureBlock(features_y, y), abandon_above);
}

SdtwResult Sdtw::Compare(const ts::TimeSeries& x,
                         const ts::TimeSeries& y) const {
  return Compare(x, ExtractFeatures(x), y, ExtractFeatures(y));
}

std::vector<NamedConfig> PaperAlgorithmRoster(std::size_t descriptor_length) {
  std::vector<NamedConfig> roster;

  {
    NamedConfig full;
    full.label = "dtw";
    full.full_dtw = true;
    roster.push_back(full);
  }

  auto base = [descriptor_length]() {
    SdtwOptions o;
    o.extractor.descriptor_length = descriptor_length;
    o.dtw.want_path = false;
    return o;
  };

  const struct {
    const char* label;
    double width;
  } fixed_widths[] = {{"fc,fw 6%", 0.06}, {"fc,fw 10%", 0.10},
                      {"fc,fw 20%", 0.20}};
  for (const auto& fw : fixed_widths) {
    NamedConfig c;
    c.label = fw.label;
    c.options = base();
    c.options.constraint.type = ConstraintType::kFixedCoreFixedWidth;
    c.options.constraint.fixed_width_fraction = fw.width;
    roster.push_back(c);
  }

  {
    NamedConfig c;
    c.label = "fc,aw";
    c.options = base();
    c.options.constraint.type = ConstraintType::kFixedCoreAdaptiveWidth;
    c.options.constraint.adaptive_width_min_fraction = 0.20;  // paper §4.3
    roster.push_back(c);
  }

  const struct {
    const char* label;
    double width;
  } ac_widths[] = {{"ac,fw 6%", 0.06}, {"ac,fw 10%", 0.10},
                   {"ac,fw 20%", 0.20}};
  for (const auto& ac : ac_widths) {
    NamedConfig c;
    c.label = ac.label;
    c.options = base();
    c.options.constraint.type = ConstraintType::kAdaptiveCoreFixedWidth;
    c.options.constraint.fixed_width_fraction = ac.width;
    roster.push_back(c);
  }

  {
    NamedConfig c;
    c.label = "ac,aw";
    c.options = base();
    c.options.constraint.type = ConstraintType::kAdaptiveCoreAdaptiveWidth;
    roster.push_back(c);
  }

  {
    NamedConfig c;
    c.label = "ac2,aw";
    c.options = base();
    c.options.constraint.type = ConstraintType::kAdaptiveCoreAdaptiveWidth;
    c.options.constraint.width_average_radius = 1;
    roster.push_back(c);
  }

  return roster;
}

}  // namespace core
}  // namespace sdtw
