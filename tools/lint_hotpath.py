#!/usr/bin/env python3
"""Memory-ordering lint for the soft-timer tree.

Two rules, both enforced as a CI gate (and locally via `ctest -L lint`).
What a `// SOFTTIMER_HOT` function may reach (no allocation, blocking,
throw or recursion) is tools/analyze/hot_closure.py's job: it checks the
whole call closure, not just the marked body.

1. raw-atomic-in-shim: files templated on the atomics-traits shim
   (TRAITS_SHIM_FILES below) must not name std::atomic< or
   std::atomic_thread_fence directly; everything routes through
   Traits::Atomic / Traits::ThreadFence so tests/model_check_test.cc can
   substitute the model checker's instrumented types.
   src/core/atomics_traits.h is the single place allowed to touch both.

2. unannotated-ordering: every non-seq_cst std::memory_order_* site under
   src/ needs an `// ordering:` rationale on the same line or within the
   ANNOTATION_LOOKBACK lines above it, so each weakened ordering carries its
   pairing argument in-tree. src/check/ is exempt (the model checker
   manipulates orderings as data, it does not choose them).

Exit status: 0 clean, 1 findings, 2 internal/self-test failure.
`--self-test` runs every rule against synthetic violations and verifies
both that they fire and that the shim and annotations silence them.
"""

import argparse
import os
import re
import sys

ANNOTATION_LOOKBACK = 6

# Files whose concurrency primitives are templated on the atomics-traits
# shim. Keep in sync with DESIGN.md section 11.
TRAITS_SHIM_FILES = (
    "src/core/spsc_ring.h",
    "src/core/remote_pending.h",
    "src/core/queue_claim.h",
    "src/rt/eventcount.h",
)

WEAK_ORDER_RE = re.compile(
    r"memory_order_(relaxed|acquire|release|acq_rel|consume)")
RAW_ATOMIC_RE = re.compile(r"std::atomic(<|_thread_fence)")


def strip_comment_and_strings(line):
    """Code-only view of a line: string literals blanked, // tail removed."""
    line = re.sub(r'"(\\.|[^"\\])*"', '""', line)
    cut = line.find("//")
    return line[:cut] if cut >= 0 else line


class Findings:
    def __init__(self):
        self.items = []

    def add(self, rule, path, lineno, message):
        self.items.append((rule, path, lineno, message))


def check_raw_atomics(path, lines, findings):
    for idx, line in enumerate(lines):
        code = strip_comment_and_strings(line)
        if RAW_ATOMIC_RE.search(code):
            findings.add(
                "raw-atomic-in-shim", path, idx + 1,
                "std::atomic used directly in traits-templated code; go "
                "through Traits::Atomic / Traits::ThreadFence "
                "(src/core/atomics_traits.h)")


def check_ordering_annotations(path, lines, findings):
    for idx, line in enumerate(lines):
        code = strip_comment_and_strings(line)
        if not WEAK_ORDER_RE.search(code):
            continue
        window = lines[max(0, idx - ANNOTATION_LOOKBACK):idx + 1]
        if any("ordering:" in w for w in window):
            continue
        findings.add(
            "unannotated-ordering", path, idx + 1,
            "non-seq_cst memory order without an `// ordering:` rationale "
            f"on the same line or the {ANNOTATION_LOOKBACK} lines above")


def lint_tree(root):
    findings = Findings()
    src = os.path.join(root, "src")
    for dirpath, _, filenames in os.walk(src):
        for name in sorted(filenames):
            if not name.endswith((".h", ".cc")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, encoding="utf-8") as f:
                lines = f.read().splitlines()
            if rel in TRAITS_SHIM_FILES:
                check_raw_atomics(rel, lines, findings)
            if not rel.startswith("src/check/"):
                check_ordering_annotations(rel, lines, findings)
    return findings


def self_test():
    failures = []

    def run(name, lines, checker, rel, expect_rules):
        findings = Findings()
        checker(rel, lines, findings)
        got = sorted({f[0] for f in findings.items})
        if got != sorted(expect_rules):
            failures.append(f"{name}: expected {expect_rules}, got "
                            f"{[f'{f[0]}:{f[2]}' for f in findings.items]}")

    raw_atomic = ["std::atomic<int> x;"]
    run("raw atomic fires", raw_atomic, check_raw_atomics,
        "src/core/spsc_ring.h", ["raw-atomic-in-shim"])

    shimmed = ["typename Traits::template Atomic<int> x;"]
    run("shimmed atomic clean", shimmed, check_raw_atomics,
        "src/core/spsc_ring.h", [])

    unannotated = ["x.store(1, std::memory_order_release);"]
    run("unannotated ordering fires", unannotated,
        check_ordering_annotations, "x.cc", ["unannotated-ordering"])

    annotated = [
        "// ordering: publishes the slot write (pairs with the pop acquire).",
        "x.store(1, std::memory_order_release);",
    ]
    run("annotation silences", annotated, check_ordering_annotations,
        "x.cc", [])

    seq_cst = ["x.store(1, std::memory_order_seq_cst);"]
    run("seq_cst needs no annotation", seq_cst, check_ordering_annotations,
        "x.cc", [])

    if failures:
        for f in failures:
            print(f"lint self-test FAILED: {f}", file=sys.stderr)
        return 2
    print("lint self-test: both rules fire and annotations silence")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: parent of tools/)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the rules against synthetic violations")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    findings = lint_tree(args.root)
    if findings.items:
        for rule, path, lineno, message in findings.items:
            print(f"{path}:{lineno}: [{rule}] {message}")
        print(f"\n{len(findings.items)} finding(s)", file=sys.stderr)
        return 1
    print("lint_hotpath: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
