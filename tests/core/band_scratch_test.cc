// Sdtw::BuildBand into a reused core::BandScratch: warm builds perform no
// heap allocation, and a scratch reused across pairs and configs builds
// exactly what a fresh build does.
//
// This binary replaces the global allocation functions with counting
// ones. Counting is armed per thread, so only the code under test is
// counted, never gtest's own bookkeeping.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/sdtw.h"
#include "data/generators.h"

namespace {

thread_local bool t_counting = false;
thread_local std::size_t t_allocations = 0;

void* CountedAlloc(std::size_t size, std::size_t alignment) {
  if (t_counting) ++t_allocations;
  if (size == 0) size = 1;
  void* p = nullptr;
  if (alignment <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, alignment, size) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// Heap allocations made by the calling thread while `fn` runs.
template <typename Fn>
std::size_t AllocationsDuring(Fn&& fn) {
  t_allocations = 0;
  t_counting = true;
  fn();
  t_counting = false;
  return t_allocations;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size, 0); }
void* operator new[](std::size_t size) { return CountedAlloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t al) {
  return CountedAlloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return CountedAlloc(size, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace sdtw {
namespace core {
namespace {

using Features = std::vector<sift::Keypoint>;

// Seeded TraceLike series (the knn workloads' family) and their features:
// `equal_length` series of length 128, then a few of lengths 96 and 200.
struct Corpus {
  std::vector<ts::TimeSeries> series;
  std::vector<Features> features;
  std::size_t equal_length = 0;
  /// Index of the length-128 series with the most features.
  std::size_t most_features = 0;
};

const Corpus& TheCorpus() {
  static const Corpus corpus = [] {
    Corpus c;
    const Sdtw engine;
    for (const auto& [length, count] :
         {std::pair<std::size_t, std::size_t>{128, 40}, {96, 4}, {200, 4}}) {
      data::GeneratorOptions options;
      options.length = length;
      options.num_series = count;
      options.seed = 23 + length;
      const ts::Dataset ds = data::MakeTraceLike(options);
      for (std::size_t i = 0; i < ds.size(); ++i) {
        c.series.push_back(ds[i]);
        c.features.push_back(engine.ExtractFeatures(ds[i]));
      }
      if (c.equal_length == 0) c.equal_length = c.series.size();
    }
    for (std::size_t i = 0; i < c.equal_length; ++i) {
      if (c.features[i].size() > c.features[c.most_features].size()) {
        c.most_features = i;
      }
    }
    return c;
  }();
  return corpus;
}

// The (x, y) pair of the i-th build: every ordered pair in turn.
std::pair<std::size_t, std::size_t> PairOf(std::size_t i, std::size_t n) {
  const std::size_t x = i % n;
  const std::size_t y = (x + 1 + (i / n) % (n - 1)) % n;
  return {x, y};
}

// A cheap fingerprint of a band, so warm builds can be checked later
// without copying (which would allocate) inside the counted region.
std::uint64_t Fingerprint(const dtw::Band& band) {
  std::uint64_t h = band.m();
  for (const dtw::BandRow& r : band.rows()) {
    h = h * 1000003u + r.lo;
    h = h * 1000003u + r.hi;
  }
  return h;
}

std::vector<std::pair<std::string, SdtwOptions>> Variants(
    const NamedConfig& config) {
  std::vector<std::pair<std::string, SdtwOptions>> out;
  for (const bool symmetric : {false, true}) {
    for (const bool mutual : {false, true}) {
      SdtwOptions options = config.options;
      options.constraint.symmetric = symmetric;
      options.matching.require_mutual = mutual;
      out.emplace_back(std::string(config.label) + (symmetric ? " sym" : "") +
                           (mutual ? " mutual" : ""),
                       options);
    }
  }
  return out;
}

class BandScratchTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BandScratchTest, WarmBuildsAllocateNothing) {
  constexpr std::size_t kBuilds = 1000;
  const Corpus& corpus = TheCorpus();
  const std::size_t n = corpus.equal_length;
  for (const auto& [label, options] :
       Variants(PaperAlgorithmRoster()[GetParam()])) {
    SCOPED_TRACE(label);
    const Sdtw engine(options);
    BandScratch scratch;
    // One warm-up build on the pair with the most features (these series
    // all have the same length) sizes every buffer.
    const std::size_t w = corpus.most_features;
    engine.BuildBand(corpus.series[w], corpus.features[w], corpus.series[w],
                     corpus.features[w], scratch);
    std::vector<std::uint64_t> fingerprints;
    fingerprints.reserve(kBuilds);
    const std::size_t allocations = AllocationsDuring([&] {
      for (std::size_t i = 0; i < kBuilds; ++i) {
        const auto [x, y] = PairOf(i, n);
        fingerprints.push_back(Fingerprint(
            engine.BuildBand(corpus.series[x], corpus.features[x],
                             corpus.series[y], corpus.features[y], scratch)));
      }
    });
    EXPECT_EQ(allocations, 0u);
    // The warm builds built the right bands.
    for (std::size_t i = 0; i < kBuilds; i += 37) {
      const auto [x, y] = PairOf(i, n);
      ASSERT_EQ(fingerprints[i],
                Fingerprint(engine.BuildBand(corpus.series[x],
                                             corpus.features[x],
                                             corpus.series[y],
                                             corpus.features[y])))
          << "build " << i;
    }
  }
}

TEST_P(BandScratchTest, ReusedScratchMatchesFreshBuilds) {
  // One scratch shared by every variant and by pairs of mixed lengths:
  // nothing a build leaves behind may leak into the next one.
  const Corpus& corpus = TheCorpus();
  const std::size_t n = corpus.series.size();
  BandScratch scratch;
  for (const auto& [label, options] :
       Variants(PaperAlgorithmRoster()[GetParam()])) {
    const Sdtw engine(options);
    for (std::size_t i = 0; i < 3 * n; ++i) {
      const auto [x, y] = PairOf(i * 7, n);
      SCOPED_TRACE(label + " pair " + std::to_string(x) + "," +
                   std::to_string(y));
      const dtw::Band& band =
          engine.BuildBand(corpus.series[x], corpus.features[x],
                           corpus.series[y], corpus.features[y], scratch);
      const SdtwResult fresh = engine.Compare(
          corpus.series[x], corpus.features[x], corpus.series[y],
          corpus.features[y]);
      ASSERT_EQ(band, fresh.band);
      ASSERT_EQ(scratch.intervals.size(), fresh.intervals.size());
      for (std::size_t k = 0; k < fresh.intervals.size(); ++k) {
        ASSERT_EQ(scratch.intervals[k].begin_x, fresh.intervals[k].begin_x);
        ASSERT_EQ(scratch.intervals[k].end_x, fresh.intervals[k].end_x);
        ASSERT_EQ(scratch.intervals[k].begin_y, fresh.intervals[k].begin_y);
        ASSERT_EQ(scratch.intervals[k].end_y, fresh.intervals[k].end_y);
      }
      ASSERT_EQ(scratch.alignments.size(), fresh.alignments.size());
      for (std::size_t k = 0; k < fresh.alignments.size(); ++k) {
        ASSERT_EQ(scratch.alignments[k].index_x, fresh.alignments[k].index_x);
        ASSERT_EQ(scratch.alignments[k].index_y, fresh.alignments[k].index_y);
      }
    }
  }
}

TEST(AllocationCounterTest, CountsWhileArmed) {
  // The instrument itself: a zero above is only meaningful if an
  // allocation in the armed region is seen.
  EXPECT_EQ(AllocationsDuring([] {}), 0u);
  EXPECT_EQ(AllocationsDuring([] {
              std::vector<int> v(16);
              EXPECT_EQ(v.size(), 16u);
            }),
            1u);
}

INSTANTIATE_TEST_SUITE_P(
    Roster, BandScratchTest,
    ::testing::Range<std::size_t>(0, PaperAlgorithmRoster().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      std::string name = PaperAlgorithmRoster()[info.param].label;
      for (char& ch : name) {
        if (!((ch >= 'a' && ch <= 'z') || (ch >= '0' && ch <= '9'))) {
          ch = '_';
        }
      }
      return name + "_" + std::to_string(info.param);
    });

}  // namespace
}  // namespace core
}  // namespace sdtw
