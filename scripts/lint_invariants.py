#!/usr/bin/env python3
"""Project-invariant linter: repo-specific rules no generic tool checks.

Rules (each is a machine check of an invariant a PR established in prose):

  kernel-internal-linkage
      Every symbol defined by the SIMD kernel translation units (the row
      kernels in src/dtw/kernels/*.cc, the matching kernels in
      src/align/kernels/*.cc) and by src/dtw/row_kernel.h must have
      internal linkage, except the per-variant ops table each kernel TU
      deliberately exports (sdtw::dtw::internal::k*RowKernelOps, declared
      extern in dtw/kernel_dispatch.h, and
      sdtw::align::internal::k*MatchKernelOps, declared extern in
      align/match_kernel.h). Kernel TUs are compiled with
      per-file arch flags; an external (strong OR weak/COMDAT) symbol
      leaking out of one lets the linker keep a single arbitrary copy —
      possibly the AVX-512 encoding — and hand it to TUs meant to stay
      portable (the ODR rule PR 6 established). Checked precisely: the
      linter compiles each TU with the same arch flags the build uses,
      at -O1 and at -O0 (a Debug build inlines nothing, so every inline
      function of another header a kernel calls comes out as a weak
      symbol there), plus an anchor TU that odr-uses every row_kernel.h
      helper, and inspects the objects' symbol tables with nm.

  fp-contract
      No build file or source may enable value-changing floating-point
      modes: -ffast-math, -funsafe-math-optimizations,
      -ffp-contract=fast/on, or the FP_CONTRACT/fast-math pragmas. The
      kernels' bitwise-determinism contract (portable == AVX2 == AVX-512
      == scalar reference, hit lists pinned across builds) requires every
      TU to round `min(...) + cost` identically; one contracted FMA in
      one TU silently breaks it. (-ffp-contract=off stays legal.)

  naked-new
      No naked `new` / C allocation calls (malloc family) in src/: every
      allocation goes through containers or smart pointers so the DP hot
      paths stay allocation-auditable and exception-safe. Suppress a
      deliberate exception with a trailing `lint:allow(naked-new)`
      comment plus a rationale.

Usage:
  scripts/lint_invariants.py [--root DIR] [--only RULE ...]
                             [--objects BUILD_DIR] [--compiler CXX]
                             [--jobs N] [--list-rules]

Default --root is the repository this script lives in. --objects
additionally verifies the kernel objects an existing build produced (the
belt to the compile-probe braces; CI runs it after the build, the
sanitizer build included): only the objects of the kernel sources
<root>/src/CMakeLists.txt lists, so an incremental build's object of a
since-removed kernel source is not checked, and ASan's ODR indicator of
an allowed table (`__odr_asan.` + its mangled name) is allowed. --jobs N
runs the kernel compile probes concurrently (findings stay in source
order regardless). Exit code: 0 clean, 1 findings, 2 usage error,
69 (EX_UNAVAILABLE) when a probe tool (compiler / nm) is missing and
every rule that did run came back clean — mirrors scripts/tidy.sh and
scripts/sdtw_lint so callers can skip gracefully.
"""

import argparse
import concurrent.futures
import os
import re
import shutil
import subprocess
import sys
import tempfile

EX_OK = 0
EX_FINDINGS = 1
EX_USAGE = 2
EX_UNAVAILABLE = 69

FIXTURE_DIR_MARKERS = (os.path.join("tests", "lint", "fixtures"),)
SKIP_DIR_NAMES = {".git", "_deps", "CMakeFiles"}

ALLOWED_KERNEL_EXPORT = re.compile(
    r"^sdtw::(dtw::internal::k\w*RowKernelOps|"
    r"align::internal::k\w*MatchKernelOps)$")

# ASan gives every exported global an ODR indicator: `__odr_asan.` + the
# global's mangled name (nm type B), which nm -C leaves mangled.
ODR_INDICATOR = re.compile(r"^__odr_asan\.(_Z\w+)$")

# Directories (relative to the root) whose .cc files are kernel TUs, and
# the object names a build gives them.
KERNEL_DIRS = (("src", "dtw", "kernels"), ("src", "align", "kernels"))
KERNEL_OBJECT = re.compile(r"(row|match)_kernel_\w+\.cc\.(o|obj)$")
# A kernel source as src/CMakeLists.txt lists it (relative to src/).
LISTED_KERNEL_SOURCE = re.compile(r"\b((?:dtw|align)/kernels/\w+\.cc)\b")

# Optimisation levels each kernel TU is probed at: -O1 stands for the
# optimised builds; -O0 is what a Debug build compiles, where calls to
# header inline functions are not inlined and so leave weak symbols.
KERNEL_PROBE_LEVELS = ("-O1", "-O0")

# nm symbol-type letters: uppercase (plus 'u'/'v'/'w') means the symbol is
# visible outside the TU; weak definitions (W/V/u) are exactly the COMDAT
# copies the ODR rule exists to forbid.
EXTERNAL_NM_TYPES = set("ABCDGIRSTUVW") | {"u", "v", "w"}

FP_CONTRACT_PATTERNS = [
    (re.compile(r"-ffast-math"), "-ffast-math"),
    (re.compile(r"-funsafe-math-optimizations"),
     "-funsafe-math-optimizations"),
    (re.compile(r"-ffp-contract=(fast|on)\b"), "-ffp-contract=fast/on"),
    (re.compile(r"pragma\s+STDC\s+FP_CONTRACT\s+ON"),
     "#pragma STDC FP_CONTRACT ON"),
    (re.compile(r"pragma\s+GCC\s+optimize[^\n]*fast-math"),
     "#pragma GCC optimize fast-math"),
    (re.compile(r"float_control\s*\(\s*precise\s*,\s*off"),
     "#pragma float_control(precise, off)"),
]

NAKED_NEW_PATTERNS = [
    (re.compile(r"\bnew\b"), "new expression"),
    (re.compile(r"\b(?:malloc|calloc|realloc|aligned_alloc|strdup)\s*\("),
     "C allocation call"),
]

ALLOW_MARKER = re.compile(r"lint:allow\(([a-z-]+)\)")


class Findings:
    def __init__(self):
        self.items = []

    def add(self, rule, location, message):
        self.items.append((rule, location, message))

    def report(self):
        for rule, location, message in self.items:
            print(f"{location}: [{rule}] {message}")
        return 1 if self.items else 0


def iter_files(root, rel_dirs, suffixes):
    """Yields repo-relative paths under root/rel_dirs with the given
    suffixes, skipping build trees, VCS internals, and the deliberately-
    violating lint fixtures."""
    for rel_dir in rel_dirs:
        base = os.path.join(root, rel_dir)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in SKIP_DIR_NAMES and not d.startswith("build"))
            rel_dirpath = os.path.relpath(dirpath, root)
            if any(marker in rel_dirpath for marker in FIXTURE_DIR_MARKERS):
                dirnames[:] = []
                continue
            for name in sorted(filenames):
                if any(name.endswith(s) for s in suffixes) or \
                        name == "CMakeLists.txt" and "CMakeLists.txt" in suffixes:
                    yield os.path.join(rel_dirpath, name)


def strip_cxx_comments(text, keep_strings=True):
    """Removes // and /* */ comments; string/char literals are blanked
    (same length) unless keep_strings. Line structure is preserved so
    match positions still map to line numbers."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | dq | sq
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "dq"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "sq"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("dq", "sq"):
            quote = '"' if state == "dq" else "'"
            if c == "\\" and nxt:
                out.append(c if keep_strings else " ")
                out.append(nxt if keep_strings else " ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            elif c == "\n":  # unterminated literal; fail open
                state = "code"
                out.append(c)
            else:
                out.append(c if keep_strings else " ")
        i += 1
    return "".join(out)


def strip_cmake_comments(text):
    return "\n".join(line.split("#", 1)[0] for line in text.split("\n"))


def allowed_lines(text, rule):
    allowed = set()
    for lineno, line in enumerate(text.split("\n"), 1):
        for m in ALLOW_MARKER.finditer(line):
            if m.group(1) == rule:
                allowed.add(lineno)
    return allowed


def scan_patterns(root, rel_path, stripped, patterns, rule, allow, findings):
    for lineno, line in enumerate(stripped.split("\n"), 1):
        if lineno in allow:
            continue
        for pattern, what in patterns:
            if pattern.search(line):
                findings.add(rule, f"{rel_path}:{lineno}", what)


def check_fp_contract(root, findings):
    cmake_files = list(iter_files(
        root, ["."], ("CMakeLists.txt", ".cmake")))
    for rel in cmake_files:
        text = read_text(os.path.join(root, rel))
        allow = allowed_lines(text, "fp-contract")
        scan_patterns(root, rel, strip_cmake_comments(text),
                      FP_CONTRACT_PATTERNS, "fp-contract", allow, findings)
    for rel in iter_files(root, ["src", "tests", "bench", "examples"],
                          (".cc", ".h")):
        text = read_text(os.path.join(root, rel))
        allow = allowed_lines(text, "fp-contract")
        # Comments stripped (docs legitimately discuss the forbidden
        # flags); strings kept (pragmas smuggle flags inside literals).
        scan_patterns(root, rel, strip_cxx_comments(text),
                      FP_CONTRACT_PATTERNS, "fp-contract", allow, findings)


def check_naked_new(root, findings):
    for rel in iter_files(root, ["src"], (".cc", ".h")):
        text = read_text(os.path.join(root, rel))
        allow = allowed_lines(text, "naked-new")
        stripped = strip_cxx_comments(text, keep_strings=False)
        scan_patterns(root, rel, stripped, NAKED_NEW_PATTERNS, "naked-new",
                      allow, findings)


def read_text(path):
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        return f.read()


def find_tool(*names):
    for name in names:
        path = shutil.which(name)
        if path:
            return path
    return None


def arch_flags_for(filename):
    """The per-file arch flags src/CMakeLists.txt applies, keyed the same
    way: by variant name in the file name."""
    if "avx512" in filename:
        return ["-mavx512f"]
    if "avx2" in filename:
        return ["-mavx2"]
    if "neon" in filename:
        return ["-march=armv8-a"]
    return []


def compiler_supports(compiler, flags, tmpdir):
    probe = os.path.join(tmpdir, "flag_probe.cc")
    with open(probe, "w", encoding="utf-8") as f:
        f.write("int main() { return 0; }\n")
    r = subprocess.run(
        [compiler, "-std=c++20", *flags, "-fsyntax-only", probe],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)
    return r.returncode == 0


ROW_KERNEL_ANCHOR = """\
// Generated by lint_invariants.py: odr-uses every row_kernel.h helper so
// any definition that loses its internal linkage is emitted into this
// TU's symbol table, where the nm check below will see it. Compiled with
// the widest arch flags available, modelling the worst-case variant TU.
#include "dtw/row_kernel.h"

namespace {
using sdtw::dtw::AbsCost;
using sdtw::dtw::SquaredCost;
namespace rk = sdtw::dtw::internal;
[[maybe_unused]] auto* kAnchor0 = &rk::FillBandRowScalar<AbsCost>;
[[maybe_unused]] auto* kAnchor1 = &rk::FillBandRowScalar<SquaredCost>;
}  // namespace
"""


def external_symbols(nm, obj):
    """(type_letter, demangled_name) for every defined symbol with
    external visibility."""
    r = subprocess.run([nm, "-C", "--defined-only", obj],
                       capture_output=True, text=True, check=False)
    if r.returncode != 0:
        raise RuntimeError(f"nm failed on {obj}: {r.stderr.strip()}")
    out = []
    for line in r.stdout.splitlines():
        parts = line.split(None, 2)
        if len(parts) < 3:
            continue
        _, sym_type, name = parts
        if sym_type in EXTERNAL_NM_TYPES:
            out.append((sym_type, name.strip()))
    return out


def demangle_variable(mangled):
    """The qualified name of a namespace-scope variable's mangled name
    ('_ZN4sdtw3dtw8internal19kAvx512RowKernelOpsE' ->
    'sdtw::dtw::internal::kAvx512RowKernelOps'); None for any other
    form."""
    if not (mangled.startswith("_ZN") and mangled.endswith("E")):
        return None
    body, parts = mangled[3:-1], []
    while body:
        m = re.match(r"\d+", body)
        if not m:
            return None
        n, start = int(m.group(0)), m.end()
        if n == 0 or len(body) < start + n:
            return None
        parts.append(body[start:start + n])
        body = body[start + n:]
    return "::".join(parts) if parts else None


def allowed_export(name):
    """An allowed ops table, or ASan's ODR indicator of one."""
    if ALLOWED_KERNEL_EXPORT.match(name):
        return True
    m = ODR_INDICATOR.match(name)
    if not m:
        return False
    table = demangle_variable(m.group(1))
    return table is not None and bool(ALLOWED_KERNEL_EXPORT.match(table))


def check_object_exports(nm, objs, label, findings, weak_ok=False):
    """nm-checks the objects of one TU (one per probe level); a symbol
    several of them export is reported once."""
    symbols = {}
    for obj in objs:
        try:
            for sym_type, name in external_symbols(nm, obj):
                symbols.setdefault(name, sym_type)
        except RuntimeError as e:
            findings.add("kernel-internal-linkage", label, str(e))
            return
    for name, sym_type in symbols.items():
        if allowed_export(name):
            continue
        if weak_ok and sym_type in ("W", "V", "w", "v"):
            continue
        findings.add(
            "kernel-internal-linkage", label,
            f"external symbol leaks from an arch-flagged TU: "
            f"'{name}' (nm type {sym_type}) — give it internal linkage "
            f"(static / anonymous namespace); only the "
            f"k<Variant>RowKernelOps and k<Variant>MatchKernelOps tables "
            f"may be exported")


def check_kernel_linkage(root, compiler, findings, verbose, jobs=1):
    """Returns None when the rule ran (findings hold the verdict) or a
    human-readable reason when a probe tool is missing (caller exits 69)."""
    row_kernel = os.path.join(root, "src", "dtw", "row_kernel.h")
    sources = []
    for parts in KERNEL_DIRS:
        kernels_dir = os.path.join(root, *parts)
        if os.path.isdir(kernels_dir):
            sources += [os.path.join(kernels_dir, f)
                        for f in sorted(os.listdir(kernels_dir))
                        if f.endswith(".cc")]
    if not sources and not os.path.isfile(row_kernel):
        return None  # nothing to check in this tree (fixture roots)

    nm = find_tool("nm", "llvm-nm")
    if nm is None:
        return "no nm/llvm-nm found (apt: binutils) — cannot verify kernel linkage"
    if compiler is None:
        return "no C++ compiler found — cannot verify kernel linkage"
    if shutil.which(compiler) is None and not (
            os.path.isfile(compiler) and os.access(compiler, os.X_OK)):
        return (f"compiler '{compiler}' not found — "
                "cannot verify kernel linkage")

    base_flags = ["-std=c++20", "-ffp-contract=off",
                  "-I", os.path.join(root, "src"), "-c"]
    with tempfile.TemporaryDirectory(prefix="sdtw_lint_") as tmpdir:
        # Probe arch-flag support once, serially, so the parallel phase
        # below never races on the shared flag_probe.cc.
        arch_sets = {tuple(arch_flags_for(os.path.basename(s)))
                     for s in sources}
        arch_sets |= {("-mavx512f",), ("-mavx2",)}
        supported = {flags: (not flags or
                             compiler_supports(compiler, list(flags), tmpdir))
                     for flags in sorted(arch_sets)}

        # (label, arch, source_path, is_anchor) in deterministic order.
        tasks = []
        for src in sources:
            rel = os.path.relpath(src, root)
            arch = arch_flags_for(os.path.basename(src))
            if arch and not supported[tuple(arch)]:
                if verbose:
                    print(f"note: {rel}: compiler lacks {arch}, skipped")
                continue
            tasks.append((rel, arch, src, False))

        if os.path.isfile(row_kernel):
            anchor = os.path.join(tmpdir, "row_kernel_anchor.cc")
            with open(anchor, "w", encoding="utf-8") as f:
                f.write(ROW_KERNEL_ANCHOR)
            arch = []
            for candidate in (("-mavx512f",), ("-mavx2",)):
                if supported[candidate]:
                    arch = list(candidate)
                    break
            tasks.append(("src/dtw/row_kernel.h", arch, anchor, True))

        def probe(idx, label, arch, src, is_anchor):
            """Compiles one TU and nm-checks it; returns Findings items.
            The anchor only takes the helpers' addresses, so -O1 shows
            their linkage; kernel TUs are probed at every level."""
            local = Findings()
            objs = []
            levels = KERNEL_PROBE_LEVELS[:1] if is_anchor else \
                KERNEL_PROBE_LEVELS
            for level in levels:
                obj = os.path.join(tmpdir, f"probe_{idx}{level}.o")
                r = subprocess.run(
                    [compiler, *base_flags, level, *arch, src, "-o", obj],
                    capture_output=True, text=True, check=False)
                if r.returncode != 0:
                    if is_anchor:
                        local.add(
                            "kernel-internal-linkage", label,
                            "anchor TU no longer compiles — row_kernel.h's "
                            "helper set changed; update ROW_KERNEL_ANCHOR "
                            "in lint_invariants.py:\n" + r.stderr.strip())
                    else:
                        local.add(
                            "kernel-internal-linkage", label,
                            "kernel TU does not compile standalone with "
                            f"its arch flags ({' '.join(arch) or 'baseline'}"
                            f", {level}):\n" + r.stderr.strip())
                    return local.items
                objs.append(obj)
            # As in check_built_objects: a TU with baseline flags emits
            # the same COMDAT copies as every other TU.
            check_object_exports(nm, objs, label, local, weak_ok=not arch)
            return local.items

        if jobs <= 1 or len(tasks) <= 1:
            for idx, (label, arch, src, is_anchor) in enumerate(tasks):
                for item in probe(idx, label, arch, src, is_anchor):
                    findings.items.append(item)
        else:
            # Futures are collected in submission order, so findings come
            # out identical to the serial run whatever the completion
            # order was.
            with concurrent.futures.ThreadPoolExecutor(
                    max_workers=jobs) as pool:
                futures = [
                    pool.submit(probe, idx, label, arch, src, is_anchor)
                    for idx, (label, arch, src, is_anchor)
                    in enumerate(tasks)]
                for future in futures:
                    findings.items.extend(future.result())
    return None


def check_built_objects(root, build_dir, findings, verbose):
    """Post-build mode: nm over the kernel objects the real build
    produced, catching flag drift between the linter's probe compile and
    the build system. Returns None, or an unavailability reason (exit 69
    at the caller)."""
    nm = find_tool("nm", "llvm-nm")
    if nm is None:
        return "no nm/llvm-nm found (apt: binutils) — cannot verify built objects"
    # The kernel sources the build still compiles; None (no
    # src/CMakeLists.txt under the root) checks every kernel object.
    listed = None
    cmake_lists = os.path.join(root, "src", "CMakeLists.txt")
    if os.path.isfile(cmake_lists):
        listed = set(LISTED_KERNEL_SOURCE.findall(
            strip_cmake_comments(read_text(cmake_lists))))
    matched = []
    for dirpath, dirnames, filenames in os.walk(build_dir):
        dirnames[:] = [d for d in dirnames if d != "_deps"]
        # Only the real kernel TUs (src/dtw/kernels/, src/align/kernels/)
        # are constrained — test TUs like row_kernel_property_test.cc
        # legitimately emit gtest/libstdc++ COMDAT symbols.
        if os.path.basename(dirpath) != "kernels":
            continue
        for name in filenames:
            if not KERNEL_OBJECT.match(name):
                continue
            obj = os.path.join(dirpath, name)
            # CMake names the object <source path>.o under the target's
            # object directory; a kernel source since removed from
            # src/CMakeLists.txt leaves a stale object behind.
            source = "/".join(
                [os.path.basename(os.path.dirname(dirpath)), "kernels",
                 name.rsplit(".", 1)[0]])
            if listed is not None and source not in listed:
                if verbose:
                    print(f"note: skipping {os.path.relpath(obj, build_dir)}"
                          f": {source} is not in src/CMakeLists.txt")
                continue
            matched.append(obj)
    if not matched:
        findings.add(
            "kernel-internal-linkage", build_dir,
            "no row_kernel_*.cc or match_kernel_*.cc objects found under "
            "the build dir — wrong --objects path, or the build layout "
            "changed")
        return None
    for obj in sorted(matched):
        rel = os.path.relpath(obj, build_dir)
        # The portable TU is compiled with baseline flags everywhere, so
        # COMDAT instantiations it emits are identical in every TU; weak
        # symbols are only fatal in arch-flagged objects.
        weak_ok = "portable" in os.path.basename(obj)
        if verbose:
            print(f"note: checking built object {rel}")
        check_object_exports(nm, [obj], rel, findings, weak_ok=weak_ok)


RULES = ["kernel-internal-linkage", "fp-contract", "naked-new"]


def main(argv):
    parser = argparse.ArgumentParser(
        description="sdtw project-invariant linter (see module docstring)")
    parser.add_argument("--root", default=None,
                        help="tree to lint (default: the repo containing "
                             "this script)")
    parser.add_argument("--only", action="append", choices=RULES,
                        help="run only this rule (repeatable)")
    parser.add_argument("--objects", metavar="BUILD_DIR",
                        help="additionally nm-check the kernel objects of "
                             "an existing build")
    parser.add_argument("--compiler", default=None,
                        help="C++ compiler for the linkage probe "
                             "(default: $CXX, else c++/g++/clang++)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="concurrent kernel compile probes "
                             "(default: 1; findings order is identical "
                             "at any N)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(rule)
        return EX_OK
    if args.jobs < 1:
        print("lint_invariants: --jobs must be >= 1", file=sys.stderr)
        return EX_USAGE

    root = os.path.abspath(
        args.root
        or os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    if not os.path.isdir(root):
        print(f"lint_invariants: --root {root} is not a directory",
              file=sys.stderr)
        return EX_USAGE

    rules = args.only or RULES
    findings = Findings()
    unavailable = []

    if "fp-contract" in rules:
        check_fp_contract(root, findings)
    if "naked-new" in rules:
        check_naked_new(root, findings)
    if "kernel-internal-linkage" in rules:
        compiler = (args.compiler or os.environ.get("CXX")
                    or find_tool("c++", "g++", "clang++"))
        reason = check_kernel_linkage(root, compiler, findings,
                                      args.verbose, jobs=args.jobs)
        if reason:
            unavailable.append(reason)
        if args.objects:
            if not os.path.isdir(args.objects):
                print(f"lint_invariants: --objects {args.objects} is not "
                      "a directory", file=sys.stderr)
                return EX_USAGE
            reason = check_built_objects(root, args.objects, findings,
                                         args.verbose)
            if reason:
                unavailable.append(reason)

    status = findings.report()
    if status != 0:
        print(f"lint_invariants: {len(findings.items)} finding(s)",
              file=sys.stderr)
        return EX_FINDINGS
    if unavailable:
        # Every rule that could run came back clean, but a probe tool is
        # missing: report EX_UNAVAILABLE so callers skip instead of
        # trusting a verdict the linter could not fully earn.
        for reason in unavailable:
            print(f"lint_invariants: {reason}; skipping", file=sys.stderr)
        return EX_UNAVAILABLE
    print(f"lint_invariants: clean ({', '.join(rules)})")
    return EX_OK


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
