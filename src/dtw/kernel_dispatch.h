#ifndef SDTW_DTW_KERNEL_DISPATCH_H_
#define SDTW_DTW_KERNEL_DISPATCH_H_

/// \file kernel_dispatch.h
/// \brief Runtime dispatch of the strip-wavefront DP kernel across ISAs.
///
/// One binary carries every row-kernel variant the compiler could build —
/// portable, AVX2, AVX-512 — each compiled in its own translation unit
/// with per-file arch flags (src/CMakeLists.txt sets -mavx2 / -mavx512f on
/// exactly that file, nothing else), and the best one the running CPU
/// supports is picked once at startup. No project-wide -march=native
/// build is needed or offered: the SIMD kernels are always available,
/// with no ODR hazard, because every
/// helper in row_kernel.h has internal linkage and each variant TU keeps
/// its strip fill in an anonymous namespace — no arch-flagged code is ever
/// visible outside its own TU.
///
/// Selection order is avx512 > avx2 > portable among the variants that are
/// both compiled in and supported by the CPU (via the compiler's CPUID
/// builtins, which also check OS state-save support). The environment
/// variable SDTW_KERNEL=portable|avx2|avx512 forces a specific variant for
/// testing and benchmarking; an unknown or unsupported value aborts the
/// process at first kernel use with a clear message on stderr (silently
/// falling back would invalidate perf baselines and forced-variant test
/// runs). ResolveKernelOverride exposes the same resolution, error string
/// included, without the abort so tests can pin the failure modes.
///
/// Every variant obeys the row_kernel.h contract: cell values, row minima,
/// abandon decisions, cell counts and the step a pruned fill stops at
/// bit-identical to the scalar row reference. The property suite pins this
/// for each variant the host can run, so callers may treat the active
/// kernel as a pure speed choice.

#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dtw/cost.h"

namespace sdtw {
namespace dtw {

/// The row-kernel implementations a binary can carry. Listed in
/// preference order; higher enumerators are preferred when supported.
enum class KernelVariant {
  kPortable,  ///< Plain C++ over 8-element arrays; always compiled in.
  kAvx2,      ///< The 8 lanes in two AVX2 registers.
  kAvx512,    ///< The 8 lanes in one AVX-512F register.
};

/// DP rows advanced by one dispatched fill. Every variant uses the same
/// height, so every variant abandons at the same row by construction.
inline constexpr std::size_t kStripRows = 8;

/// \brief One strip of up to kStripRows consecutive DP rows, staged for a
/// dispatched fill (the recurrence and the pruning rule are documented in
/// dtw/row_kernel.h).
///
/// The strip's rows are DP rows i0 + 1 .. i0 + kStripRows; lane l holds
/// DP row i0 + kStripRows - l, so lane 0 is the strip's last row and lane
/// kStripRows - 1 its first. At wavefront step k (k in [0, steps)) lane l
/// computes DP column t0 + k - (kStripRows - 1 - l): lanes lag one column
/// per row, so the kStripRows cells of one step do not depend on each
/// other and a fill evaluates a whole step as one vector. Every array
/// below is indexed by lane.
///
/// A fill may stop early, once every cell it could still compute is dead
/// (above `threshold`). It then reports the steps it ran in `ran`; the
/// wave and `last` past that step hold stale values of an earlier strip,
/// which readers must treat as +infinity.
struct DpStrip {
  std::size_t steps = 0;           ///< Wavefront steps of the strip.
  double x[kStripRows] = {};       ///< x value of each lane's row.
  /// Lane l is live at step k iff begin[l] <= k < begin[l] + width[l]:
  /// begin is the step of the row's first window column, width the
  /// window's width. Width 0 marks an empty row, or a lane before the
  /// first DP row.
  std::size_t begin[kStripRows] = {};
  std::size_t width[kStripRows] = {};
  /// steps + 1 cells: the predecessor row (DP row i0) at columns t0 - 1
  /// through t0 + steps - 1, +infinity outside its window.
  const double* pred = nullptr;
  /// steps + kStripRows - 1 values of y from index t0 - kStripRows on:
  /// lane l at step k reads y[k + l]. Indices outside y hold any finite
  /// value (only dead lanes read them).
  const double* y = nullptr;
  /// Output, steps * kStripRows cells, step-major: wave[kStripRows * k + l]
  /// is lane l's value at step k, +infinity where the lane is dead. Only
  /// steps [0, ran) are written.
  double* wave = nullptr;
  /// Output, steps cells: last[k] is lane 0 at step k, the strip's last
  /// row at column t0 + k - (kStripRows - 1) — the wave's lane 0 again,
  /// stored contiguously as the next strip's predecessor row. Only steps
  /// [0, ran) are written.
  double* last = nullptr;
  bool count = false;  ///< Whether the fill must write `cells`.
  /// A cell above it is dead. A DP's finite abandon threshold; without
  /// one, the largest finite double, so that exactly the +infinity cells
  /// are dead.
  double threshold = std::numeric_limits<double>::max();
  /// The fill runs at least min(min_steps, steps) steps. Before any later
  /// step k it stops once both vectors that feed step k — the previous
  /// step's values and the carried diag — are dead in every lane. The
  /// stager guarantees that every pred cell after pred[min_steps] is dead,
  /// so nothing the fill could still compute is live. At `steps` or more
  /// (the default), the fill never stops early.
  std::size_t min_steps = std::numeric_limits<std::size_t>::max();
  /// Output: the steps the fill ran, in [min(min_steps, steps), steps].
  std::size_t ran = 0;
  /// Output: minimum of each row over the steps the fill ran (+infinity
  /// for a row with none). Exact whenever the row's full minimum is live.
  double row_min[kStripRows] = {};
  /// Output when `count`: cells of each row whose best predecessor is
  /// live (at most `threshold`).
  std::size_t cells[kStripRows] = {};
};

/// Signature of a dispatched strip fill: the strip recurrence with the
/// cost functor baked in. Reads the staged inputs of `strip` and writes
/// its wave, the steps it ran, row minima and (when requested) cell
/// counts.
using StripFillFn = void (*)(DpStrip& strip);

/// \brief One row-kernel variant: identity plus its strip-fill entry points.
///
/// The ops tables are immutable statics living in the variant TUs, so a
/// `const RowKernelOps*` is valid forever and trivially shareable across
/// threads. Passing nullptr where an ops handle is accepted means "use
/// ActiveRowKernelOps()".
struct RowKernelOps {
  KernelVariant variant;
  const char* name;         ///< "portable" / "avx2" / "avx512".
  StripFillFn fill_abs;      ///< Strip fill under AbsCost.
  StripFillFn fill_squared;  ///< Strip fill under SquaredCost.

  StripFillFn fill(CostKind kind) const {
    return kind == CostKind::kAbsolute ? fill_abs : fill_squared;
  }
};

/// The variant selected for this process: the SDTW_KERNEL override if set
/// (aborting with a stderr message when invalid or unsupported), otherwise
/// the most preferred compiled-in variant the CPU supports. Resolved once,
/// on first call; thread-safe.
const RowKernelOps& ActiveRowKernelOps();

/// The ops table of a variant, or nullptr when that variant was not
/// compiled into this binary (non-x86 target, or the compiler lacked the
/// arch flag). Makes no claim about CPU support.
const RowKernelOps* FindRowKernelOps(KernelVariant variant);

/// True when the variant is compiled in AND the running CPU can execute
/// it. Portable is always supported.
bool KernelVariantSupported(KernelVariant variant);

/// Every variant this binary can run on this CPU, in preference order
/// (portable first). The property suite iterates this to pin each runnable
/// variant against the scalar reference — absent variants are skipped, not
/// failed.
std::vector<const RowKernelOps*> SupportedRowKernels();

/// The canonical name of a variant ("portable" / "avx2" / "avx512").
const char* KernelVariantName(KernelVariant variant);

/// Parses a variant name as accepted by SDTW_KERNEL. Returns nullopt for
/// anything else (no aliases, no case folding — the accepted spellings are
/// part of the interface).
std::optional<KernelVariant> ParseKernelVariant(std::string_view name);

/// Outcome of resolving an SDTW_KERNEL-style override: `ops` on success,
/// otherwise nullptr plus a human-readable reason (unknown name, variant
/// not compiled in, CPU lacks the ISA).
struct KernelResolution {
  const RowKernelOps* ops = nullptr;
  std::string error;
};

/// Resolves an override value exactly as ActiveRowKernelOps does for
/// SDTW_KERNEL, but reports failure instead of aborting — the testable
/// surface of the startup path.
KernelResolution ResolveKernelOverride(std::string_view name);

/// Comma-separated list of the kernel-relevant CPU features detected at
/// runtime (e.g. "avx2,avx512f"), "none" when the CPU offers none of them.
/// Recorded in bench baselines so perf numbers are compared like-for-like.
std::string DetectedCpuFeatures();

namespace internal {
/// Variant tables, defined in src/dtw/kernels/row_kernel_<variant>.cc.
/// The AVX tables exist only when src/CMakeLists.txt compiled the variant
/// in (it then defines SDTW_HAVE_AVX2_KERNEL / SDTW_HAVE_AVX512_KERNEL on
/// kernel_dispatch.cc); reference them through FindRowKernelOps.
extern const RowKernelOps kPortableRowKernelOps;
extern const RowKernelOps kAvx2RowKernelOps;
extern const RowKernelOps kAvx512RowKernelOps;
}  // namespace internal

}  // namespace dtw
}  // namespace sdtw

#endif  // SDTW_DTW_KERNEL_DISPATCH_H_
