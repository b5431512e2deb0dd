/// \file row_kernel_portable.cc
/// \brief Portable strip-fill variant: the strip recurrence of
/// row_kernel.h in plain C++ over 8-element arrays, compiled with the
/// project's baseline flags only. Always compiled in; the fallback
/// selected when the CPU offers no vector ISA we carry. The per-lane loops
/// have no dependency across lanes, so the compiler vectorises them with
/// whatever the baseline ISA allows.

#include <cstddef>

#include "dtw/cost.h"
#include "dtw/kernel_dispatch.h"
#include "dtw/row_kernel.h"

namespace sdtw {
namespace dtw {

namespace {

using internal::kRowInf;
constexpr std::size_t kLanes = kStripRows;

template <typename Cost, bool kCount, bool kPrune>
void FillStrip(DpStrip& s) {
  // Locals, not struct reads: stores to the wave may alias the strip.
  const std::size_t steps = s.steps;
  const std::size_t min_steps = s.min_steps;
  const double threshold = s.threshold;
  const double* pred = s.pred;
  const double* y = s.y;
  double* wave = s.wave;
  double* last = s.last;
  std::size_t begin[kLanes];
  std::size_t width[kLanes];
  double x[kLanes];
  const Cost cost;
  double v[kLanes];     // lane values of the previous step (left)
  double diag[kLanes];  // the previous step's up vector
  double row_min[kLanes];
  std::size_t cells[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) {
    v[l] = kRowInf;
    diag[l] = kRowInf;
    row_min[l] = kRowInf;
    cells[l] = 0;
    begin[l] = s.begin[l];
    width[l] = s.width[l];
    x[l] = s.x[l];
  }
  diag[kLanes - 1] = pred[0];
  std::size_t k = 0;
  for (; k < steps; ++k) {
    // v and diag feed this step and, with pred past the live span, every
    // later one: once all are dead, the rest of the strip is dead too.
    double a[kLanes];
    bool any_live = false;
    for (std::size_t l = 0; l < kLanes; ++l) {
      a[l] = diag[l] < v[l] ? diag[l] : v[l];
      any_live |= a[l] <= threshold;
    }
    if (kPrune && k >= min_steps && !any_live) break;
    // Lane l + 1 holds the row above lane l; the top lane's is pred.
    double up[kLanes];
    for (std::size_t l = 0; l + 1 < kLanes; ++l) up[l] = v[l + 1];
    up[kLanes - 1] = pred[k + 1];
    const double* yy = y + k;
    double* out = wave + kLanes * k;
    for (std::size_t l = 0; l < kLanes; ++l) {
      const bool live = k - begin[l] < width[l];
      const double best = a[l] < up[l] ? a[l] : up[l];
      // A dead lane adds +infinity, which keeps it at +infinity.
      const double c = live ? cost(x[l], yy[l]) : kRowInf;
      const double value = best + c;
      if (kCount) cells[l] += live && best <= threshold ? 1 : 0;
      row_min[l] = value < row_min[l] ? value : row_min[l];
      out[l] = value;
    }
    for (std::size_t l = 0; l < kLanes; ++l) {
      v[l] = out[l];
      diag[l] = up[l];
    }
    last[k] = out[0];
  }
  s.ran = k;
  for (std::size_t l = 0; l < kLanes; ++l) {
    s.row_min[l] = row_min[l];
    if (kCount) s.cells[l] = cells[l];
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

const RowKernelOps kPortableRowKernelOps = {
    KernelVariant::kPortable,
    "portable",
    &Fill<AbsCost>,
    &Fill<SquaredCost>,
};

}  // namespace internal

}  // namespace dtw
}  // namespace sdtw
