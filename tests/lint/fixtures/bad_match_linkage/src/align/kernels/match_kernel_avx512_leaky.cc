// Lint fixture: deliberately violates kernel-internal-linkage in a
// matching-kernel TU.
//
// The helper below has external linkage and, because the file name says
// avx512, the linter compiles it with -mavx512f and must flag the leaked
// symbol. The matching ops-table export is included too, to prove the
// allowlist admits it.

namespace sdtw {
namespace align {
namespace internal {

struct FixtureMatchKernelOpsShape {
  double (*helper)(double);
};

// Allowed: matches the k*MatchKernelOps allowlist.
extern const FixtureMatchKernelOpsShape kFixtureMatchKernelOps;

// VIOLATION: external linkage in an arch-flagged TU.
double LeakyMatchHelper(double x) { return x * 0.25 + 2.0; }

const FixtureMatchKernelOpsShape kFixtureMatchKernelOps = {
    &LeakyMatchHelper};

}  // namespace internal
}  // namespace align
}  // namespace sdtw
