#ifndef SDTW_ALIGN_MATCH_KERNEL_H_
#define SDTW_ALIGN_MATCH_KERNEL_H_

/// \file match_kernel.h
/// \brief Runtime dispatch of the candidate-scoring kernel of the
/// dominant-pair search (align/matching.h).
///
/// For each X keypoint of a range, the kernel tests the amplitude,
/// position and scale thresholds against every Y keypoint, compacts the
/// passing Y indices in ascending order, and computes each candidate
/// pair's squared descriptor distance. It reads both sides from the
/// arrays of sift::FeatureBlocks, whose descriptor rows put one keypoint
/// per vector lane. In the AVX-512 variant a lane is one candidate pair:
/// a vector takes the next 8 candidates in order (4 vectors in flight),
/// from at most two X keypoints, so a lane's X element is one of two
/// broadcasts and its Y element is selected from the descriptor row. Its
/// scale test needs a division only for a pair whose ratio lies within a
/// few units of roundoff of τ_s. The portable variant sums 4 pairs at a
/// time in scalar code.
///
/// Every variant computes bitwise the same candidates and sums:
///  - a lane sums its pair's elements in index order, multiplying and
///    adding separately (the build sets -ffp-contract=off), so each sum
///    is the one-pair-at-a-time sum;
///  - NaN behaves as in the scalar tests: the amplitude and position
///    tests reject only when |difference| > τ (a NaN difference passes),
///    and the scale test accepts only when ratio <= τ_s, where the ratio
///    is the larger of max(σ, 1e-9) divided exactly by the smaller (a NaN
///    ratio fails).
///
/// The variants are compiled like the DTW row kernels (one TU each in
/// src/align/kernels/, per-file arch flags, internal linkage except the
/// exported ops table), and the active one follows the row kernel's
/// variant: the same CPUID selection, and SDTW_KERNEL forces both. There
/// is no AVX2 matching variant: a vector one measured about 1.0× the
/// portable kernel on the retrieval workload's band builds, so AVX2
/// hosts run the portable table.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dtw/kernel_dispatch.h"

namespace sdtw {
namespace align {

/// Rows of a MatchSide hold a multiple of this many doubles (one AVX-512
/// vector), this many readable doubles follow its last descriptor row,
/// and the output arrays of MatchRows carry this many entries of slack.
inline constexpr std::size_t kMatchLanes = 8;

/// \brief One side of a scoring call: a sift::FeatureBlock's arrays as
/// plain values. The kernel TUs are compiled with arch flags and must
/// call no inline function of another header: in a build that inlines
/// nothing, each would be emitted as a weak symbol the linker may keep
/// for the whole program.
struct MatchSide {
  const double* amplitude = nullptr;
  const double* position = nullptr;
  const double* sigma = nullptr;
  /// Element t of keypoint k at descriptors[t * stride + k].
  const double* descriptors = nullptr;
  /// Doubles per row: size rounded up to a multiple of kMatchLanes.
  std::size_t stride = 0;
  /// Number of keypoints.
  std::size_t size = 0;
};

/// \brief One dispatched scoring call: X keypoints [x_begin, x_end)
/// against every keypoint of Y.
struct MatchRows {
  MatchSide x;
  MatchSide y;
  std::size_t x_begin = 0;
  std::size_t x_end = 0;
  double tau_amplitude = 0.0;
  double tau_scale = 0.0;
  /// Largest |position difference| accepted; negative disables the test.
  double max_shift = -1.0;
  /// Descriptor elements each pair sums, at most the shorter side's
  /// descriptor rows.
  std::size_t length = 0;
  /// Output: the candidates of X keypoint x_begin + r are entries
  /// [row_end[r - 1], row_end[r]) (from 0 for r = 0) of `j` (their Y
  /// indices, ascending) and `sq` (their squared distances). `j` and
  /// `sq` hold (x_end − x_begin) × y.size + kMatchLanes entries,
  /// `row_end` x_end − x_begin.
  std::uint32_t* j = nullptr;
  double* sq = nullptr;
  std::size_t* row_end = nullptr;
};

/// Signature of a dispatched scoring call.
using ScoreRowsFn = void (*)(const MatchRows& rows);

/// \brief One matching-kernel variant. The tables are immutable statics
/// in the variant TUs, valid forever and shareable across threads.
struct MatchKernelOps {
  dtw::KernelVariant variant;
  const char* name;  ///< "portable" / "avx512".
  ScoreRowsFn score_rows;
};

/// The table FindMatchKernelOps gives dtw::ActiveRowKernelOps()'s variant.
const MatchKernelOps& ActiveMatchKernelOps();

/// The table that runs for a row-kernel variant: its own, or the portable
/// one for kAvx2. nullptr for kAvx512 when it is not compiled in.
const MatchKernelOps* FindMatchKernelOps(dtw::KernelVariant variant);

/// Every distinct table this binary can run on this CPU, portable first.
std::vector<const MatchKernelOps*> SupportedMatchKernels();

namespace internal {
/// Variant tables, defined in src/align/kernels/match_kernel_<variant>.cc;
/// reference them through FindMatchKernelOps.
extern const MatchKernelOps kPortableMatchKernelOps;
extern const MatchKernelOps kAvx512MatchKernelOps;
}  // namespace internal

}  // namespace align
}  // namespace sdtw

#endif  // SDTW_ALIGN_MATCH_KERNEL_H_
