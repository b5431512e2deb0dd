// Classification demo: 1-NN classification on a GunLike train/test split
// using full DTW vs sDTW distances — the paper's §4.2 classification task
// in a leave-one-out form.
//
//   $ ./build/examples/classification_demo [num_series] [length]

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <vector>

#include "core/sdtw.h"
#include "data/generators.h"
#include "dtw/dtw.h"
#include "eval/confusion.h"
#include "retrieval/batch.h"
#include "retrieval/knn.h"

namespace {

// Leave-one-out 1-NN accuracy under a pairwise distance functor.
template <typename DistFn>
double LeaveOneOutAccuracy(const sdtw::ts::Dataset& ds, DistFn&& dist) {
  std::size_t correct = 0;
  for (std::size_t q = 0; q < ds.size(); ++q) {
    double best = std::numeric_limits<double>::infinity();
    int best_label = -1;
    for (std::size_t j = 0; j < ds.size(); ++j) {
      if (j == q) continue;
      const double d = dist(q, j);
      if (d < best) {
        best = d;
        best_label = ds[j].label();
      }
    }
    if (best_label == ds[q].label()) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(ds.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sdtw;

  data::GeneratorOptions gopt;
  gopt.num_series = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 30;
  gopt.length = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 150;
  const ts::Dataset ds = data::MakeGunLike(gopt);
  std::printf("data set: %s, %zu series, %zu classes\n", ds.name().c_str(),
              ds.size(), ds.NumClasses());

  // Full DTW 1-NN.
  const double acc_dtw = LeaveOneOutAccuracy(ds, [&](std::size_t a,
                                                     std::size_t b) {
    return dtw::DtwDistance(ds[a], ds[b]);
  });
  std::printf("1-NN accuracy, full DTW : %.3f\n", acc_dtw);

  // sDTW 1-NN with cached features (the paper's intended deployment: extract
  // once, reuse for every comparison).
  core::SdtwOptions opt;
  opt.constraint.type = core::ConstraintType::kAdaptiveCoreAdaptiveWidth;
  opt.constraint.width_average_radius = 1;
  core::Sdtw engine(opt);
  std::vector<std::vector<sift::Keypoint>> features;
  features.reserve(ds.size());
  for (const auto& s : ds) features.push_back(engine.ExtractFeatures(s));
  const double acc_sdtw = LeaveOneOutAccuracy(ds, [&](std::size_t a,
                                                      std::size_t b) {
    return engine.Compare(ds[a], features[a], ds[b], features[b]).distance;
  });
  std::printf("1-NN accuracy, sDTW     : %.3f (ac2,aw)\n", acc_sdtw);

  // Narrow fixed band for contrast.
  core::SdtwOptions narrow;
  narrow.constraint.type = core::ConstraintType::kFixedCoreFixedWidth;
  narrow.constraint.fixed_width_fraction = 0.06;
  core::Sdtw narrow_engine(narrow);
  const double acc_narrow = LeaveOneOutAccuracy(ds, [&](std::size_t a,
                                                        std::size_t b) {
    return narrow_engine.Compare(ds[a], features[a], ds[b], features[b])
        .distance;
  });
  std::printf("1-NN accuracy, fc,fw 6%% : %.3f\n", acc_narrow);

  // Confusion matrix of the sDTW classifier (leave-one-out 1-NN), served
  // by the batched retrieval engine: one indexed engine, the whole data
  // set as one query batch with per-query self-exclusion, work-stolen
  // across hardware threads.
  retrieval::KnnOptions knn_opt;
  knn_opt.distance = retrieval::DistanceKind::kSdtw;
  knn_opt.sdtw = opt;
  retrieval::KnnEngine knn(knn_opt);
  knn.Index(ds);
  const retrieval::BatchKnnEngine batch(knn);
  const std::vector<ts::TimeSeries> queries(ds.begin(), ds.end());
  std::vector<std::optional<std::size_t>> excludes(ds.size());
  for (std::size_t q = 0; q < ds.size(); ++q) excludes[q] = q;
  const auto hits = batch.QueryBatch(queries, 1, nullptr, excludes);
  eval::ConfusionMatrix cm;
  for (std::size_t q = 0; q < ds.size(); ++q) {
    cm.Add(ds[q].label(), retrieval::VoteLabel(hits[q]));
  }
  std::printf("\nsDTW confusion matrix (rows=truth, cols=predicted):\n%s",
              cm.ToString().c_str());
  std::printf("macro recall: %.3f\n", cm.MacroRecall());
  return 0;
}
