/// \file match_kernel_avx512.cc
/// \brief AVX-512 matching-kernel variant (align/match_kernel.h): the
/// threshold tests over 8 Y keypoints per compare, and 8 candidate pairs
/// per vector, 4 vectors in flight.
///
/// Compiled with per-file -mavx512f (src/CMakeLists.txt), dispatched only
/// after the runtime CPU check, and like the row kernels every definition
/// but the ops table has internal linkage. Only AVX-512F instructions are
/// used (_mm512_abs_pd is F; _mm512_and_pd would need DQ).
///
/// A vector holds up to 8 consecutive candidates of at most two X
/// keypoints: each lane's X element is one of two broadcasts, and its Y
/// element is selected from the descriptor row with one two-source
/// permute when Y has at most 16 keypoints, two and a blend up to 32,
/// and a gather beyond.

#if !defined(__AVX512F__)
#error "match_kernel_avx512.cc must be compiled with -mavx512f"
#endif

#if defined(__GNUC__) && !defined(__clang__)
// As in row_kernel_avx512.cc: GCC's unmasked AVX-512F intrinsics pass
// _mm512_undefined_pd() through their masked forms (GCC PR105593).
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "align/match_kernel.h"
#include "dtw/kernel_dispatch.h"

namespace sdtw {
namespace align {

namespace {

constexpr std::size_t kLanes = 8;
constexpr std::size_t kInFlight = 4;

static_assert(kMatchLanes == kLanes, "block rows are whole vectors");

// std::max(sigma, 1e-9), spelled out: arch-flagged TUs instantiate no
// library templates.
inline double ScaleFloor(double sigma) {
  return sigma < 1e-9 ? 1e-9 : sigma;
}

// The scale test without a division per pair. It accepts when
// fl(num / den) <= τ_s, num the larger and den the smaller of the two
// max(σ, 1e-9). With p = fl(den × τ_s) normal, fl(p × (1 − 2^-49)) and
// fl(p × (1 + 2^-49)) lie at least 13 units of roundoff below and above
// den × τ_s, and for a normal τ_s the next double above it is within 2
// units: num below the first bound means num / den < τ_s (accept), num
// above the second means fl(num / den) > τ_s (reject). Lanes between the
// bounds, or with p out of range, or NaN, take the exact division.
struct ScaleTest {
  __m512d tau;
  __m512d below;  // 1 − 2^-49
  __m512d above;  // 1 + 2^-49
  __m512d p_min;  // 2^-1000: p, and both bounds, are normal
  __m512d p_max;  // 2^1000: and finite
  bool bounded;   // τ_s is normal, positive and finite

  explicit ScaleTest(double tau_scale)
      : tau(_mm512_set1_pd(tau_scale)),
        below(_mm512_set1_pd(1.0 - 0x1p-49)),
        above(_mm512_set1_pd(1.0 + 0x1p-49)),
        p_min(_mm512_set1_pd(0x1p-1000)),
        p_max(_mm512_set1_pd(0x1p1000)),
        bounded(tau_scale >= 0x1p-1022 &&
                tau_scale <= 0x1.fffffffffffffp1023) {}

  // Lanes of `live` whose pair passes.
  __mmask8 Passes(__m512d num, __m512d den, __mmask8 live) const {
    __mmask8 pass = 0;
    __mmask8 exact = live;
    if (bounded) {
      const __m512d p = _mm512_mul_pd(den, tau);
      const __mmask8 ok =
          _mm512_mask_cmp_pd_mask(_mm512_cmp_pd_mask(p, p_min, _CMP_GE_OQ),
                                  p, p_max, _CMP_LE_OQ);
      pass = _mm512_mask_cmp_pd_mask(ok, num, _mm512_mul_pd(p, below),
                                     _CMP_LT_OQ);
      const __mmask8 fail = _mm512_mask_cmp_pd_mask(
          ok, num, _mm512_mul_pd(p, above), _CMP_GT_OQ);
      exact = live & ~(pass | fail);
    }
    if (exact != 0) {
      pass |= _mm512_mask_cmp_pd_mask(exact, _mm512_div_pd(num, den), tau,
                                      _CMP_LE_OQ);
    }
    return live & pass;
  }
};

// Threshold tests of X keypoint i against every Y keypoint; appends the
// passing Y indices to m.j from entry n on, and returns the new count.
std::size_t CompactRow(const MatchRows& m, const ScaleTest& scale,
                       std::size_t i, std::size_t n) {
  const MatchSide& x = m.x;
  const MatchSide& y = m.y;
  const std::size_t fy = y.size;
  const __m512d tau_a = _mm512_set1_pd(m.tau_amplitude);
  const __m512d shift = _mm512_set1_pd(m.max_shift);
  const __m512d floor = _mm512_set1_pd(1e-9);
  const __m512d ax = _mm512_set1_pd(x.amplitude[i]);
  const __m512d px = _mm512_set1_pd(x.position[i]);
  const __m512d s1 = _mm512_set1_pd(ScaleFloor(x.sigma[i]));
  const __m512i lane_index =
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 0, 0, 0, 0, 0, 0, 0, 0);
  for (std::size_t c = 0; c < fy; c += kLanes) {
    unsigned keep = fy - c >= kLanes ? 0xFFu : (1u << (fy - c)) - 1;
    // A NaN difference compares false (_OQ), so it passes, as in the
    // scalar `> tau` rejections.
    keep &= ~static_cast<unsigned>(_mm512_cmp_pd_mask(
        _mm512_abs_pd(_mm512_sub_pd(ax, _mm512_loadu_pd(y.amplitude + c))),
        tau_a, _CMP_GT_OQ));
    if (m.max_shift >= 0.0) {
      keep &= ~static_cast<unsigned>(_mm512_cmp_pd_mask(
          _mm512_abs_pd(
              _mm512_sub_pd(px, _mm512_loadu_pd(y.position + c))),
          shift, _CMP_GT_OQ));
    }
    // max(1e-9, σ) returns σ when σ is NaN, like std::max(σ, 1e-9).
    const __m512d s2 = _mm512_max_pd(floor, _mm512_loadu_pd(y.sigma + c));
    const __mmask8 s1_larger = _mm512_cmp_pd_mask(s1, s2, _CMP_GT_OQ);
    keep = scale.Passes(_mm512_mask_blend_pd(s1_larger, s2, s1),
                        _mm512_mask_blend_pd(s1_larger, s1, s2),
                        static_cast<__mmask8>(keep));
    // Compaction without a branch per candidate: the passing indices
    // packed to the front of one store (m.j has slack for the rest).
    const __m512i index = _mm512_add_epi32(
        lane_index, _mm512_set1_epi32(static_cast<int>(c)));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(m.j + n),
        _mm512_castsi512_si256(_mm512_maskz_compress_epi32(
            static_cast<__mmask16>(keep), index)));
    n += static_cast<std::size_t>(__builtin_popcount(keep));
  }
  return n;
}

// Per lane, b where `select` is all ones and a where it is zero: one
// bitwise select (vpternlogq) with the selector in a vector register, so
// the jobs in flight need no mask registers.
inline __m512d Select(__m512i select, __m512d a, __m512d b) {
  return _mm512_castsi512_pd(_mm512_ternarylogic_epi64(
      select, _mm512_castpd_si512(b), _mm512_castpd_si512(a), 0xCA));
}

// Up to kLanes consecutive candidates, from at most two X keypoints:
// lanes below the split belong to X keypoint a, the others to b.
struct Job {
  const double* xa;  // X keypoint a's column: element t at xa[t * stride]
  const double* xb;
  double* out;       // squared distance of lane 0; lane l at out[l]
  __m512i index;     // Y index per lane, 0 in idle lanes
  __m512i from_b;    // all ones in the lanes of X keypoint b
  __m512i upper;     // all ones in lanes whose Y index is in [16, 32)
  __mmask8 lanes;    // lanes holding a candidate
};

Job MakeJob(const double* xa, const double* xb, std::size_t split,
            const std::uint32_t* j, std::size_t count, double* out) {
  Job job;
  job.xa = xa;
  job.xb = xb;
  job.out = out;
  job.lanes = static_cast<__mmask8>((1u << count) - 1);
  const __m512i ones = _mm512_set1_epi64(-1);
  job.from_b = _mm512_maskz_mov_epi64(
      static_cast<__mmask8>(job.lanes & ~((1u << split) - 1)), ones);
  // m.j has kLanes entries of slack, so the load stays in bounds.
  job.index = _mm512_maskz_mov_epi64(
      job.lanes, _mm512_cvtepu32_epi64(_mm256_loadu_si256(
                     reinterpret_cast<const __m256i*>(j))));
  job.upper = _mm512_maskz_mov_epi64(
      _mm512_test_epi64_mask(job.index, _mm512_set1_epi64(16)), ones);
  return job;
}

// Sums the jobs' squared distances over `length` elements, each lane in
// index order with separate multiplies and adds. kWindows is the number
// of 16-keypoint windows a Y row spans (1 or 2), or 0 to gather.
template <int kWindows>
void RunJobs(const Job (&jobs)[kInFlight], const double* yd,
             std::size_t sx, std::size_t sy, std::size_t length) {
  __m512d acc[kInFlight];
  for (std::size_t q = 0; q < kInFlight; ++q) acc[q] = _mm512_setzero_pd();
  for (std::size_t t = 0; t < length; ++t) {
    const double* row = yd + t * sy;
    __m512d lo = _mm512_setzero_pd();
    __m512d hi = _mm512_setzero_pd();
    __m512d lo2 = _mm512_setzero_pd();
    __m512d hi2 = _mm512_setzero_pd();
    if (kWindows >= 1) {
      // Past a row's end these read the next row or the block's
      // trailing padding; no index selects those lanes.
      lo = _mm512_loadu_pd(row);
      hi = _mm512_loadu_pd(row + 8);
    }
    if (kWindows == 2) {
      lo2 = _mm512_loadu_pd(row + 16);
      hi2 = _mm512_loadu_pd(row + 24);
    }
    for (std::size_t q = 0; q < kInFlight; ++q) {
      __m512d yv;
      if (kWindows == 0) {
        yv = _mm512_i64gather_pd(jobs[q].index, row, 8);
      } else {
        yv = _mm512_permutex2var_pd(lo, jobs[q].index, hi);
        if (kWindows == 2) {
          yv = Select(jobs[q].upper, yv,
                      _mm512_permutex2var_pd(lo2, jobs[q].index, hi2));
        }
      }
      const __m512d xv = Select(jobs[q].from_b,
                                _mm512_set1_pd(jobs[q].xa[t * sx]),
                                _mm512_set1_pd(jobs[q].xb[t * sx]));
      const __m512d d = _mm512_sub_pd(xv, yv);
      acc[q] = _mm512_add_pd(acc[q], _mm512_mul_pd(d, d));
    }
  }
  for (std::size_t q = 0; q < kInFlight; ++q) {
    _mm512_mask_storeu_pd(jobs[q].out, jobs[q].lanes, acc[q]);
  }
}

void ScoreRows(const MatchRows& m) {
  const ScaleTest scale(m.tau_scale);
  std::size_t n = 0;
  for (std::size_t i = m.x_begin; i < m.x_end; ++i) {
    n = CompactRow(m, scale, i, n);
    m.row_end[i - m.x_begin] = n;
  }

  const std::size_t sx = m.x.stride;
  const std::size_t sy = m.y.stride;
  const double* xd = m.x.descriptors + m.x_begin;
  const double* yd = m.y.descriptors;
  const auto run = [&](const Job (&jobs)[kInFlight]) {
    if (sy <= 16) {
      RunJobs<1>(jobs, yd, sx, sy, m.length);
    } else if (sy <= 32) {
      RunJobs<2>(jobs, yd, sx, sy, m.length);
    } else {
      RunJobs<0>(jobs, yd, sx, sy, m.length);
    }
  };
  // Jobs take the candidates in order, kLanes at a time, but never from
  // more than two X keypoints, so each lane's X element is one of two
  // broadcasts.
  Job jobs[kInFlight];
  std::size_t pending = 0;
  std::size_t a = 0;  // X row of candidate c
  for (std::size_t c = 0; c < n;) {
    while (m.row_end[a] <= c) ++a;
    const std::size_t split =
        m.row_end[a] - c < kLanes ? m.row_end[a] - c : kLanes;
    std::size_t b = a;
    std::size_t count = split;
    if (split < kLanes && c + split < n) {
      while (m.row_end[b] <= c + split) ++b;
      const std::size_t more = m.row_end[b] - (c + split);
      count = split + more < kLanes ? split + more : kLanes;
    }
    jobs[pending++] =
        MakeJob(xd + a, xd + b, split, m.j + c, count, m.sq + c);
    if (pending == kInFlight) {
      run(jobs);
      pending = 0;
    }
    c += count;
  }
  if (pending > 0) {
    // Idle jobs repeat the first one and store nothing.
    for (std::size_t q = pending; q < kInFlight; ++q) {
      jobs[q] = jobs[0];
      jobs[q].lanes = 0;
    }
    run(jobs);
  }
}

}  // namespace

namespace internal {

const MatchKernelOps kAvx512MatchKernelOps = {
    dtw::KernelVariant::kAvx512,
    "avx512",
    &ScoreRows,
};

}  // namespace internal

}  // namespace align
}  // namespace sdtw
