#ifndef SDTW_DTW_KERNEL_DISPATCH_H_
#define SDTW_DTW_KERNEL_DISPATCH_H_

/// \file kernel_dispatch.h
/// \brief Runtime dispatch of the two-pass DP row kernel across ISAs.
///
/// One binary carries every row-kernel variant the compiler could build —
/// portable, AVX2, AVX-512 — each compiled in its own translation unit
/// with per-file arch flags (src/CMakeLists.txt sets -mavx2 / -mavx512f on
/// exactly that file, nothing else), and the best one the running CPU
/// supports is picked once at startup. No project-wide -march=native
/// build is needed or offered: the SIMD kernels are always available,
/// with no ODR hazard, because every
/// helper in row_kernel.h has internal linkage and each variant TU
/// instantiates the shared driver with a TU-local pass-1 functor — no
/// arch-flagged code is ever visible outside its own TU.
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
/// Every variant obeys the row_kernel.h contract: distances, row minima,
/// abandon decisions, and cell counts bit-identical to the scalar
/// reference. The property suite pins this for each variant the host can
/// run, so callers may treat the active kernel as a pure speed choice.

#include <cstddef>
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
  kPortable,  ///< Baseline-ISA two-pass kernel; always compiled in.
  kAvx2,      ///< 4-lane AVX2 pass 1.
  kAvx512,    ///< 8-lane AVX-512F pass 1.
};

/// Signature of a dispatched row fill: FillBandRowTwoPass (see
/// row_kernel.h) with the cost functor baked in. Fills DP columns
/// [clo, chi] of one row into the padded scratch row `cur`, reading the
/// padded previous row whose window is [plo, phi]; returns the row
/// minimum and adds the number of filled cells to *cells when non-null.
using RowFillFn = double (*)(const double* prev, std::size_t plo,
                             std::size_t phi, double* cur, std::size_t clo,
                             std::size_t chi, double xi, const double* y,
                             double* cost_row, unsigned char* flag_row,
                             std::size_t* cells);

/// \brief One row-kernel variant: identity plus its row-fill entry points.
///
/// The ops tables are immutable statics living in the variant TUs, so a
/// `const RowKernelOps*` is valid forever and trivially shareable across
/// threads. Passing nullptr where an ops handle is accepted means "use
/// ActiveRowKernelOps()".
struct RowKernelOps {
  KernelVariant variant;
  const char* name;         ///< "portable" / "avx2" / "avx512".
  RowFillFn fill_abs;       ///< Row fill under AbsCost.
  RowFillFn fill_squared;   ///< Row fill under SquaredCost.

  RowFillFn fill(CostKind kind) const {
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
