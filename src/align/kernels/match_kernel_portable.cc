/// \file match_kernel_portable.cc
/// \brief Portable matching-kernel variant (align/match_kernel.h): the
/// threshold tests one pair at a time, and the squared distances of four
/// candidate pairs at a time in scalar code. Compiled with the project's
/// baseline flags only; always compiled in.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "align/match_kernel.h"
#include "dtw/kernel_dispatch.h"

namespace sdtw {
namespace align {

namespace {

// Pairs whose distances are summed together. A single distance is one
// dependent chain of adds; four independent chains keep the FP units
// busy instead of waiting on each add's latency.
constexpr std::size_t kLanes = 4;

void ScoreRows(const MatchRows& m) {
  const MatchSide& x = m.x;
  const MatchSide& y = m.y;
  std::size_t n = 0;
  for (std::size_t i = m.x_begin; i < m.x_end; ++i) {
    const double ax = x.amplitude[i];
    const double px = x.position[i];
    const double s1 = std::max(x.sigma[i], 1e-9);
    for (std::size_t j = 0; j < y.size; ++j) {
      if (std::abs(ax - y.amplitude[j]) > m.tau_amplitude) continue;
      if (m.max_shift >= 0.0 && std::abs(px - y.position[j]) > m.max_shift) {
        continue;
      }
      const double s2 = std::max(y.sigma[j], 1e-9);
      const double ratio = s1 > s2 ? s1 / s2 : s2 / s1;
      if (!(ratio <= m.tau_scale)) continue;
      m.j[n++] = static_cast<std::uint32_t>(j);
    }
    m.row_end[i - m.x_begin] = n;
  }

  // Squared distances, kLanes candidates at a time in candidate order.
  // Each lane has its own accumulator and sums its elements in index
  // order, so every result is bitwise the one-pair-at-a-time sum.
  const double* xd = x.descriptors;
  const double* yd = y.descriptors;
  const std::size_t sx = x.stride;
  const std::size_t sy = y.stride;
  std::size_t row = 0;  // X row of the candidate being placed in a lane
  for (std::size_t c = 0; c < n; c += kLanes) {
    const double* a[kLanes];
    const double* b[kLanes];
    for (std::size_t k = 0; k < kLanes; ++k) {
      // Idle lanes repeat the last candidate; their sums are discarded.
      const std::size_t cand = std::min(c + k, n - 1);
      while (m.row_end[row] <= cand) ++row;
      a[k] = xd + m.x_begin + row;
      b[k] = yd + m.j[cand];
    }
    double sq[kLanes] = {};
    for (std::size_t t = 0; t < m.length; ++t) {
      for (std::size_t k = 0; k < kLanes; ++k) {
        const double d = a[k][t * sx] - b[k][t * sy];
        sq[k] += d * d;
      }
    }
    for (std::size_t k = 0; k < kLanes && c + k < n; ++k) m.sq[c + k] = sq[k];
  }
}

}  // namespace

namespace internal {

const MatchKernelOps kPortableMatchKernelOps = {
    dtw::KernelVariant::kPortable,
    "portable",
    &ScoreRows,
};

}  // namespace internal

}  // namespace align
}  // namespace sdtw
