// Lint fixture: violates kernel-internal-linkage only in a build that
// inlines nothing.
//
// The kernel calls an inline member function of a class with external
// linkage, as a kernel reading another header's class would. An
// optimised compile inlines the call and emits no symbol for it; at -O0
// the member comes out as a weak symbol of this -mavx512f object, which
// the linter must flag. The ops-table export is allowlisted.

namespace sdtw {
namespace sift {

struct FixtureBlock {
  const double* values;
  const double* data() const { return values; }
};

}  // namespace sift

namespace align {
namespace {

double First(const sift::FixtureBlock& block) { return block.data()[0]; }

}  // namespace

namespace internal {

struct FixtureMatchKernelOpsShape {
  double (*score)(const sift::FixtureBlock&);
};

// Allowed: matches the k*MatchKernelOps allowlist.
extern const FixtureMatchKernelOpsShape kFixtureMatchKernelOps;

const FixtureMatchKernelOpsShape kFixtureMatchKernelOps = {&First};

}  // namespace internal
}  // namespace align
}  // namespace sdtw
