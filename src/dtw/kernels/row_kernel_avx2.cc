/// \file row_kernel_avx2.cc
/// \brief AVX2 strip-fill variant: the 8 lanes of a strip in two 4-lane
/// registers.
///
/// Compiled with per-file -mavx2 (src/CMakeLists.txt) and dispatched only
/// after the runtime CPU check, so nothing here may leak into other TUs:
/// every symbol is in an anonymous namespace except the ops table, whose
/// initialisers are plain function pointers.
///
/// One step of the recurrence (row_kernel.h) shifts the strip down one
/// lane across the register pair: a vpermpd rotation of each half, then a
/// blend that moves the high half's lane 0 into the low half and the
/// predecessor cell into the top lane. Dead lanes add +infinity (a blend of the
/// cost vector, off the min/add chain). The live mask is one signed
/// 64-bit compare on sign-flipped operands, which AVX2 lacks unsigned. The
/// pruning exit folds the two halves of min(diag, v) into one compare and
/// one movemask test.

#if !defined(__AVX2__)
#error "row_kernel_avx2.cc must be compiled with -mavx2"
#endif

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "dtw/cost.h"
#include "dtw/kernel_dispatch.h"
#include "dtw/row_kernel.h"

namespace sdtw {
namespace dtw {

namespace {

using internal::kRowInf;

static_assert(kStripRows == 8, "two __m256d hold the strip");

inline __m256d CostVector(SquaredCost, __m256d xv, __m256d yv) {
  const __m256d d = _mm256_sub_pd(xv, yv);
  return _mm256_mul_pd(d, d);
}

inline __m256d CostVector(AbsCost, __m256d xv, __m256d yv) {
  const __m256d d = _mm256_sub_pd(xv, yv);
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), d);
}

inline __m256i LoadLanes(const std::size_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void StoreLanes(std::size_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

template <typename Cost, bool kCount, bool kPrune>
void FillStrip(DpStrip& s) {
  // Locals, not struct reads: stores to the wave may alias the strip.
  const std::size_t steps = s.steps;
  const std::size_t min_steps = s.min_steps;
  const double* pred = s.pred;
  const double* y = s.y;
  double* wave = s.wave;
  double* last = s.last;
  const __m256d inf = _mm256_set1_pd(kRowInf);
  const __m256d threshold = _mm256_set1_pd(s.threshold);
  const __m256d x_lo = _mm256_loadu_pd(s.x);
  const __m256d x_hi = _mm256_loadu_pd(s.x + 4);
  // Lane r is live iff k - begin[r] < width[r], unsigned. Flipping the
  // sign bit of both operands turns that into a signed compare; rel keeps
  // k - begin + 2^63, so it advances by a plain add.
  const __m256i sign = _mm256_set1_epi64x(INT64_MIN);
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i width_lo = _mm256_xor_si256(LoadLanes(s.width), sign);
  const __m256i width_hi = _mm256_xor_si256(LoadLanes(s.width + 4), sign);
  __m256i rel_lo = _mm256_xor_si256(
      _mm256_sub_epi64(_mm256_setzero_si256(), LoadLanes(s.begin)), sign);
  __m256i rel_hi = _mm256_xor_si256(
      _mm256_sub_epi64(_mm256_setzero_si256(), LoadLanes(s.begin + 4)),
      sign);
  __m256d v_lo = inf;
  __m256d v_hi = inf;
  __m256d diag_lo = inf;
  __m256d diag_hi = _mm256_blend_pd(inf, _mm256_set1_pd(pred[0]), 8);
  __m256d min_lo = inf;
  __m256d min_hi = inf;
  __m256i cells_lo = _mm256_setzero_si256();
  __m256i cells_hi = _mm256_setzero_si256();
  std::size_t k = 0;
  for (; k < steps; ++k) {
    // v and diag feed this step and, with pred past the live span, every
    // later one: once all are dead, the rest of the strip is dead too.
    const __m256d a_lo = _mm256_min_pd(diag_lo, v_lo);
    const __m256d a_hi = _mm256_min_pd(diag_hi, v_hi);
    if (kPrune && k >= min_steps &&
        _mm256_movemask_pd(_mm256_cmp_pd(_mm256_min_pd(a_lo, a_hi),
                                         threshold, _CMP_LE_OQ)) == 0) {
      break;
    }
    const __m256i live_lo = _mm256_cmpgt_epi64(width_lo, rel_lo);
    const __m256i live_hi = _mm256_cmpgt_epi64(width_hi, rel_hi);
    rel_lo = _mm256_add_epi64(rel_lo, one);
    rel_hi = _mm256_add_epi64(rel_hi, one);
    const __m256d c_lo = _mm256_blendv_pd(
        inf, CostVector(Cost{}, x_lo, _mm256_loadu_pd(y + k)),
        _mm256_castsi256_pd(live_lo));
    const __m256d c_hi = _mm256_blendv_pd(
        inf, CostVector(Cost{}, x_hi, _mm256_loadu_pd(y + k + 4)),
        _mm256_castsi256_pd(live_hi));
    // Rotations [v1, v2, v3, v0] of each half; the top lane of the low
    // half takes the high half's lane 0, the top lane of the high half the
    // predecessor cell.
    const __m256d rot_lo =
        _mm256_permute4x64_pd(v_lo, _MM_SHUFFLE(0, 3, 2, 1));
    const __m256d rot_hi =
        _mm256_permute4x64_pd(v_hi, _MM_SHUFFLE(0, 3, 2, 1));
    const __m256d up_lo = _mm256_blend_pd(rot_lo, rot_hi, 8);
    const __m256d up_hi =
        _mm256_blend_pd(rot_hi, _mm256_set1_pd(pred[k + 1]), 8);
    const __m256d best_lo = _mm256_min_pd(a_lo, up_lo);
    const __m256d best_hi = _mm256_min_pd(a_hi, up_hi);
    v_lo = _mm256_add_pd(best_lo, c_lo);
    v_hi = _mm256_add_pd(best_hi, c_hi);
    if (kCount) {
      // All-ones lanes are -1: subtracting them counts.
      cells_lo = _mm256_sub_epi64(
          cells_lo,
          _mm256_and_si256(live_lo, _mm256_castpd_si256(_mm256_cmp_pd(
                                        best_lo, threshold, _CMP_LE_OQ))));
      cells_hi = _mm256_sub_epi64(
          cells_hi,
          _mm256_and_si256(live_hi, _mm256_castpd_si256(_mm256_cmp_pd(
                                        best_hi, threshold, _CMP_LE_OQ))));
    }
    min_lo = _mm256_min_pd(min_lo, v_lo);
    min_hi = _mm256_min_pd(min_hi, v_hi);
    double* out = wave + kStripRows * k;
    _mm256_storeu_pd(out, v_lo);
    _mm256_storeu_pd(out + 4, v_hi);
    _mm_store_sd(last + k, _mm256_castpd256_pd128(v_lo));
    diag_lo = up_lo;
    diag_hi = up_hi;
  }
  s.ran = k;
  _mm256_storeu_pd(s.row_min, min_lo);
  _mm256_storeu_pd(s.row_min + 4, min_hi);
  if (kCount) {
    StoreLanes(s.cells, cells_lo);
    StoreLanes(s.cells + 4, cells_hi);
  }
}

// Counting and pruning are chosen per strip from its inputs, so a fill
// that does neither pays for neither.
template <typename Cost>
void Fill(DpStrip& strip) {
  const bool prune = strip.min_steps < strip.steps;
  if (strip.count) {
    prune ? FillStrip<Cost, true, true>(strip)
          : FillStrip<Cost, true, false>(strip);
  } else {
    prune ? FillStrip<Cost, false, true>(strip)
          : FillStrip<Cost, false, false>(strip);
  }
}

}  // namespace

namespace internal {

const RowKernelOps kAvx2RowKernelOps = {
    KernelVariant::kAvx2,
    "avx2",
    &Fill<AbsCost>,
    &Fill<SquaredCost>,
};

}  // namespace internal

}  // namespace dtw
}  // namespace sdtw
