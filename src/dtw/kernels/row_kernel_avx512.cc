/// \file row_kernel_avx512.cc
/// \brief AVX-512 strip-fill variant: the 8 lanes of a strip in one
/// register.
///
/// Compiled with per-file -mavx512f (src/CMakeLists.txt) and dispatched
/// only after the runtime CPU check; the same TU-isolation rules as the
/// AVX2 variant apply (see row_kernel_avx2.cc).
///
/// One step of the recurrence (row_kernel.h) is: `up` as one valignq of
/// the previous step's vector with the predecessor cell broadcast into
/// the top lane; `diag` as the previous step's `up`; two integer mins
/// (see MinValues) and one masked add, whose pass-through of +infinity
/// kills the dead lanes; the
/// live mask as one unsigned 64-bit compare. The pruning exit reuses the
/// first min: one compare of min(diag, v) against the threshold and one
/// mask test. Only plain AVX-512F instructions are used. The row minima
/// and counts stay in registers until the strip ends.

#if !defined(__AVX512F__)
#error "row_kernel_avx512.cc must be compiled with -mavx512f"
#endif

#if defined(__GNUC__) && !defined(__clang__)
// GCC's unmasked AVX-512F intrinsics are defined in terms of their masked
// forms with _mm512_undefined_pd() as the (fully overwritten) pass-through
// operand; -Wmaybe-uninitialized flags that deliberate garbage at -O2
// (GCC PR105593). TU-wide, intrinsics only — keep real uses of
// uninitialised locals out of this file.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <immintrin.h>

#include <cstddef>

#include "dtw/cost.h"
#include "dtw/kernel_dispatch.h"
#include "dtw/row_kernel.h"

namespace sdtw {
namespace dtw {

namespace {

using internal::kRowInf;

static_assert(kStripRows == 8, "one __m512d holds the strip");

inline __m512d CostVector(SquaredCost, __m512d xv, __m512d yv) {
  const __m512d d = _mm512_sub_pd(xv, yv);
  return _mm512_mul_pd(d, d);
}

inline __m512d CostVector(AbsCost, __m512d xv, __m512d yv) {
  return _mm512_abs_pd(_mm512_sub_pd(xv, yv));
}

// min of two DP values as unsigned 64-bit integers. Every DP value is a
// sum of non-negative costs or +infinity, never NaN or -0, and on such
// doubles the unsigned order of the bit patterns is the numeric order, so
// this is exactly _mm512_min_pd — at a quarter of its latency, which
// shortens the step's serial min/min/add chain.
inline __m512d MinValues(__m512d a, __m512d b) {
  return _mm512_castsi512_pd(
      _mm512_min_epu64(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
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
  const __m512d inf = _mm512_set1_pd(kRowInf);
  const __m512d threshold = _mm512_set1_pd(s.threshold);
  const __m512d xv = _mm512_loadu_pd(s.x);
  const __m512i width = _mm512_loadu_si512(s.width);
  const __m512i one = _mm512_set1_epi64(1);
  // rel = k - begin per lane; live iff rel < width, unsigned.
  __m512i rel = _mm512_sub_epi64(_mm512_setzero_si512(),
                                 _mm512_loadu_si512(s.begin));
  __m512d v = inf;
  __m512d diag = _mm512_mask_mov_pd(inf, 0x80, _mm512_set1_pd(pred[0]));
  __m512d row_min = inf;
  __m512i cells = _mm512_setzero_si512();
  std::size_t k = 0;
  for (; k < steps; ++k) {
    // v and diag feed this step and, with pred past the live span, every
    // later one: once all are dead, the rest of the strip is dead too.
    const __m512d a = MinValues(diag, v);
    if (kPrune && k >= min_steps &&
        _mm512_cmp_pd_mask(a, threshold, _CMP_LE_OQ) == 0) {
      break;
    }
    const __mmask8 live = _mm512_cmplt_epu64_mask(rel, width);
    rel = _mm512_add_epi64(rel, one);
    const __m512d c = CostVector(Cost{}, xv, _mm512_loadu_pd(y + k));
    // [v lanes 1..7, pred cell]: valignq by one qword of v:broadcast.
    const __m512d up = _mm512_castsi512_pd(_mm512_alignr_epi64(
        _mm512_castpd_si512(_mm512_set1_pd(pred[k + 1])),
        _mm512_castpd_si512(v), 1));
    const __m512d best = MinValues(a, up);
    v = _mm512_mask_add_pd(inf, live, best, c);
    if (kCount) {
      const __mmask8 counted =
          _mm512_mask_cmp_pd_mask(live, best, threshold, _CMP_LE_OQ);
      cells = _mm512_mask_add_epi64(cells, counted, cells, one);
    }
    row_min = _mm512_min_pd(row_min, v);
    _mm512_storeu_pd(wave + kStripRows * k, v);
    _mm_store_sd(last + k, _mm512_castpd512_pd128(v));
    diag = up;
  }
  s.ran = k;
  _mm512_storeu_pd(s.row_min, row_min);
  if (kCount) _mm512_storeu_si512(s.cells, cells);
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

const RowKernelOps kAvx512RowKernelOps = {
    KernelVariant::kAvx512,
    "avx512",
    &Fill<AbsCost>,
    &Fill<SquaredCost>,
};

}  // namespace internal

}  // namespace dtw
}  // namespace sdtw
