#include "align/match_kernel.h"

#include <algorithm>

// SDTW_HAVE_AVX512_KERNEL is set on this TU by src/CMakeLists.txt, as on
// dtw/kernel_dispatch.cc: the AVX-512 match and row kernels are compiled
// in together.

namespace sdtw {
namespace align {

const MatchKernelOps& ActiveMatchKernelOps() {
  static const MatchKernelOps& ops = []() -> const MatchKernelOps& {
    const MatchKernelOps* found =
        FindMatchKernelOps(dtw::ActiveRowKernelOps().variant);
    return found != nullptr ? *found : internal::kPortableMatchKernelOps;
  }();
  return ops;
}

const MatchKernelOps* FindMatchKernelOps(dtw::KernelVariant variant) {
  switch (variant) {
    case dtw::KernelVariant::kPortable:
    case dtw::KernelVariant::kAvx2:  // no AVX2 matching variant
      return &internal::kPortableMatchKernelOps;
    case dtw::KernelVariant::kAvx512:
#if defined(SDTW_HAVE_AVX512_KERNEL)
      return &internal::kAvx512MatchKernelOps;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

std::vector<const MatchKernelOps*> SupportedMatchKernels() {
  std::vector<const MatchKernelOps*> out;
  for (const dtw::RowKernelOps* row : dtw::SupportedRowKernels()) {
    const MatchKernelOps* ops = FindMatchKernelOps(row->variant);
    if (ops != nullptr && std::find(out.begin(), out.end(), ops) == out.end()) {
      out.push_back(ops);
    }
  }
  return out;
}

}  // namespace align
}  // namespace sdtw
