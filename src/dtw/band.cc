#include "dtw/band.h"

#include <algorithm>
#include <cmath>

namespace sdtw {
namespace dtw {

Band Band::Full(std::size_t n, std::size_t m) {
  Band b;
  b.m_ = m;
  if (n == 0 || m == 0) return b;
  b.rows_.assign(n, BandRow{0, m - 1});
  return b;
}

Band Band::FromRows(std::vector<BandRow> rows, std::size_t m) {
  Band b;
  b.m_ = m;
  b.rows_ = std::move(rows);
  if (m == 0) return b;
  for (BandRow& r : b.rows_) {
    r.lo = std::min(r.lo, m - 1);
    r.hi = std::min(r.hi, m - 1);
  }
  return b;
}

void Band::Assign(std::size_t n, std::size_t m, BandRow fill) {
  rows_.assign(n, fill);
  m_ = m;
}

std::size_t Band::CellCount() const {
  std::size_t total = 0;
  for (const BandRow& r : rows_) total += r.width();
  return total;
}

double Band::Coverage() const {
  if (rows_.empty() || m_ == 0) return 0.0;
  return static_cast<double>(CellCount()) /
         (static_cast<double>(rows_.size()) * static_cast<double>(m_));
}

void Band::MakeFeasible() {
  if (rows_.empty() || m_ == 0) return;
  const std::size_t n = rows_.size();
  const std::size_t last_col = m_ - 1;
  // Clamp and fix inverted rows (empty rows collapse onto their lo).
  for (BandRow& r : rows_) {
    r.lo = std::min(r.lo, last_col);
    r.hi = std::min(r.hi, last_col);
    if (r.lo > r.hi) r.hi = r.lo;
  }
  // Anchor the two corners.
  rows_[0].lo = 0;
  rows_[n - 1].hi = last_col;
  if (rows_[n - 1].lo > last_col) rows_[n - 1].lo = last_col;
  // Forward pass tracking the *reachable* interval of each row (pairwise
  // row conditions are not enough: reachability is transitive). Within a
  // row the path can only advance rightwards, so the reachable interval of
  // row i is [max(lo_i, reach_lo(i-1)), hi_i] provided an entry column
  // exists, i.e. lo_i <= reach_hi(i-1) + 1 and hi_i >= reach_lo(i-1).
  // Violations are repaired by *widening* the row, which can only grow
  // reachable sets and therefore never invalidates earlier rows.
  std::size_t reach_lo = rows_[0].lo;
  std::size_t reach_hi = rows_[0].hi;
  for (std::size_t i = 1; i < n; ++i) {
    BandRow& cur = rows_[i];
    if (cur.lo > reach_hi + 1) cur.lo = reach_hi + 1;  // bridge the gap
    if (cur.hi < reach_lo) cur.hi = reach_lo;          // raise the ceiling
    reach_lo = std::max(cur.lo, reach_lo);
    reach_hi = cur.hi;
  }
  // Re-anchor the goal corner (widening, preserves reachability).
  rows_[n - 1].hi = last_col;
}

bool Band::IsFeasible() const {
  if (rows_.empty() || m_ == 0) return false;
  const std::size_t n = rows_.size();
  if (rows_[0].lo != 0) return false;
  if (rows_[n - 1].hi != m_ - 1) return false;
  for (const BandRow& r : rows_) {
    if (r.lo > r.hi || r.hi >= m_) return false;
  }
  // Simulate forward reachability from (0, 0); the band is feasible iff the
  // reachable interval of the last row contains the last column.
  std::size_t reach_lo = rows_[0].lo;
  std::size_t reach_hi = rows_[0].hi;
  for (std::size_t i = 1; i < n; ++i) {
    if (rows_[i].lo > reach_hi + 1) return false;
    if (rows_[i].hi < reach_lo) return false;
    reach_lo = std::max(rows_[i].lo, reach_lo);
    reach_hi = rows_[i].hi;
  }
  return reach_hi == m_ - 1 && reach_lo <= reach_hi;
}

void Band::Widen(std::size_t amount) {
  if (m_ == 0) return;
  for (BandRow& r : rows_) {
    r.lo = r.lo > amount ? r.lo - amount : 0;
    r.hi = std::min(m_ - 1, r.hi + amount);
  }
}

bool Band::IntersectWith(const Band& other) {
  if (other.n() != n() || other.m() != m()) return false;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    rows_[i].lo = std::max(rows_[i].lo, other.rows_[i].lo);
    rows_[i].hi = std::min(rows_[i].hi, other.rows_[i].hi);
  }
  return true;
}

bool Band::UnionWith(const Band& other) {
  if (other.n() != n() || other.m() != m()) return false;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    rows_[i].lo = std::min(rows_[i].lo, other.rows_[i].lo);
    rows_[i].hi = std::max(rows_[i].hi, other.rows_[i].hi);
  }
  return true;
}

Band Band::Transpose() const {
  Band t;
  TransposeInto(&t);
  return t;
}

void Band::TransposeInto(Band* out) const {
  const std::size_t n = rows_.size();
  if (m_ == 0 || n == 0) {
    out->Assign(0, n, BandRow{});
    return;
  }
  // Start with inverted (empty) rows: lo = n-1 (the last column of the
  // transposed grid), hi = 0, then grow them.
  out->Assign(m_, n, BandRow{n - 1, 0});
  std::vector<BandRow>& t = out->rows_;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = rows_[i].lo; j <= rows_[i].hi && j < m_; ++j) {
      t[j].lo = std::min(t[j].lo, i);
      t[j].hi = std::max(t[j].hi, i);
    }
  }
}

std::string Band::ToAscii() const {
  std::string out;
  if (rows_.empty() || m_ == 0) return out;
  for (std::size_t i = rows_.size(); i-- > 0;) {
    for (std::size_t j = 0; j < m_; ++j) {
      out.push_back(Contains(i, j) ? '#' : '.');
    }
    out.push_back('\n');
  }
  return out;
}

Band SakoeChibaBand(std::size_t n, std::size_t m, double width_fraction) {
  Band band;
  SakoeChibaBand(n, m, width_fraction, &band);
  return band;
}

void SakoeChibaBand(std::size_t n, std::size_t m, double width_fraction,
                    Band* band) {
  if (n == 0 || m == 0) {
    band->Assign(0, 0, BandRow{});
    return;
  }
  width_fraction = std::max(width_fraction, 0.0);
  // Minimal half-width keeping consecutive rows connected on rectangular
  // grids (the diagonal advances by (m-1)/(n-1) columns per row); without
  // this floor, thin bands on very skewed grids would need gap bridging,
  // which breaks the nesting of bands across widths.
  const double slope =
      n > 1 ? static_cast<double>(m - 1) / (2.0 * static_cast<double>(n - 1))
            : 0.0;
  const double half_width = std::max(
      std::ceil(width_fraction * static_cast<double>(m) / 2.0), slope);
  // MakeFeasible() below clamps the rows as FromRows() would.
  band->Assign(n, m, BandRow{});
  for (std::size_t i = 0; i < n; ++i) {
    // Scaled diagonal core: j* = i * (M-1)/(N-1).
    const double core =
        n > 1 ? static_cast<double>(i) * static_cast<double>(m - 1) /
                    static_cast<double>(n - 1)
              : 0.0;
    const double lo = core - half_width;
    const double hi = core + half_width;
    BandRow& row = band->mutable_row(i);
    row.lo = lo <= 0.0 ? 0 : static_cast<std::size_t>(std::ceil(lo));
    row.hi = hi >= static_cast<double>(m - 1)
                 ? m - 1
                 : static_cast<std::size_t>(std::floor(hi));
    if (row.lo > row.hi) {
      const std::size_t c = std::min(
          m - 1, static_cast<std::size_t>(std::llround(core)));
      row.lo = row.hi = c;
    }
  }
  band->MakeFeasible();
}

Band ItakuraBand(std::size_t n, std::size_t m, double max_slope) {
  if (n == 0 || m == 0) return Band();
  max_slope = std::max(1.0, max_slope);
  const double min_slope = 1.0 / max_slope;
  const double nn = static_cast<double>(n - 1);
  const double mm = static_cast<double>(m - 1);
  std::vector<BandRow> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    // Lower boundary: the path must still be able to reach (nn, mm) with
    // slope <= max_slope, and must have climbed at least min_slope so far.
    const double lo1 = min_slope * x;                 // from (0,0), shallow
    const double lo2 = mm - max_slope * (nn - x);     // to corner, steep
    const double hi1 = max_slope * x;                 // from (0,0), steep
    const double hi2 = mm - min_slope * (nn - x);     // to corner, shallow
    double lo = std::max(lo1, lo2);
    double hi = std::min(hi1, hi2);
    lo = std::clamp(lo, 0.0, mm);
    hi = std::clamp(hi, 0.0, mm);
    rows[i].lo = static_cast<std::size_t>(std::ceil(lo - 1e-9));
    rows[i].hi = static_cast<std::size_t>(std::floor(hi + 1e-9));
    if (rows[i].lo > rows[i].hi) {
      const std::size_t c = std::min(m - 1, rows[i].lo);
      rows[i].lo = rows[i].hi = c;
    }
  }
  Band b = Band::FromRows(std::move(rows), m);
  b.MakeFeasible();
  return b;
}

}  // namespace dtw
}  // namespace sdtw
