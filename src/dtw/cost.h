#ifndef SDTW_DTW_COST_H_
#define SDTW_DTW_COST_H_

/// \file cost.h
/// \brief Pointwise cost functions Δ(x, y) for DTW.
///
/// The paper leaves Δ() generic ("a distance function for comparing elements
/// in D", §2.1.1); absolute and squared differences are the two standard
/// choices on scalar series and both are provided. Kernels are templated on
/// the cost functor so the inner DP loop inlines the cost.
///
/// Every DP kernel adds the separately rounded cost to the minimum of the
/// three predecessors, so kernels must not be compiled with FMA
/// contraction (the build sets -ffp-contract=off): a fused squared cost
/// would round differently in different kernels.

#include <cmath>

namespace sdtw {
namespace dtw {

/// Δ(x, y) = |x - y| (Manhattan / L1 pointwise cost).
struct AbsCost {
  double operator()(double x, double y) const { return std::abs(x - y); }
};

/// Δ(x, y) = (x - y)^2 (squared Euclidean pointwise cost).
struct SquaredCost {
  double operator()(double x, double y) const {
    const double d = x - y;
    return d * d;
  }
};

/// Runtime-selectable cost type for APIs that cannot be templated.
enum class CostKind {
  kAbsolute,
  kSquared,
};

/// Evaluates the selected cost.
inline double EvalCost(CostKind kind, double x, double y) {
  return kind == CostKind::kAbsolute ? AbsCost{}(x, y) : SquaredCost{}(x, y);
}

}  // namespace dtw
}  // namespace sdtw

#endif  // SDTW_DTW_COST_H_
