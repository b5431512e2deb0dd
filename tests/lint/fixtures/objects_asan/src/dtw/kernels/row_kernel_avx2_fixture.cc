// Lint fixture: a clean kernel TU for the --objects checks. Its helper has
// internal linkage and its only export is the allowlisted ops table, so
// compiled with -fsanitize=address its object exports the table and
// ASan's ODR indicator of it (`__odr_asan.` + the table's mangled name),
// and nothing else.

namespace sdtw {
namespace dtw {
namespace internal {

struct FixtureRowKernelOpsShape {
  double (*helper)(double);
};

extern const FixtureRowKernelOpsShape kFixtureRowKernelOps;

namespace {
double Helper(double x) { return x * 0.5 + 1.0; }
}  // namespace

const FixtureRowKernelOpsShape kFixtureRowKernelOps = {&Helper};

}  // namespace internal
}  // namespace dtw
}  // namespace sdtw
