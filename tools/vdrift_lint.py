#!/usr/bin/env python3
"""vdrift-lint: repo-specific static checks for invariants the compiler
cannot see.

The codebase has written rules (DESIGN.md 5d/5e) that reviewers used to
enforce by memory; this tool makes them machine-checked:

  no-data-dependent-check   VDRIFT_CHECK aborts the process, so on the drift
                            path (detect/, core/, pipeline/, nn/) every
                            CHECK must be justified: either it guards a
                            programmer-error invariant (suppress with a
                            rationale) or it belongs on the Status path.
  no-raw-chrono             All timing flows through obs::MonotonicSeconds /
                            ScopedTimer / TraceSpan so traces, histograms
                            and bench numbers share one clock. Direct
                            std::chrono or POSIX clock use (clock_gettime,
                            gettimeofday) needs a rationale (e.g. a fault
                            injector's intrinsic wall-clock stall).
  no-ambient-nondeterminism std::rand / std::random_device / time() / getenv
                            make runs irreproducible. RNG must be seeded
                            PCG32 (stats::Rng); env reads are allowed only
                            at documented config chokepoints (suppressed
                            with a rationale naming the variable's purpose).
  nodiscard-status          Status / Result<T> and every function returning
                            them must be [[nodiscard]] (class-level
                            attribute on the canonical types covers their
                            call sites) so errors cannot be dropped.
  no-raw-mutex              All locking goes through common/sync.h wrappers
                            so Clang Thread Safety Analysis sees every
                            critical section. Raw std::mutex/<mutex> use is
                            invisible to -Werror=thread-safety.
  no-raw-getenv             src/common/env.cc is the only code that calls
                            getenv: every knob is read through its three
                            readers (one parse rule per kind). This check
                            cannot be suppressed.
  no-unchecked-rename       All file publication goes through
                            common::AtomicWriteFile (staging write + fsync +
                            checked rename + parent-dir fsync). A raw
                            std::rename drops the error, skips durability,
                            and can publish a torn file; the one legitimate
                            call site lives inside AtomicWriteFile itself.

Suppressions (every one needs a rationale after the colon):
  ... code ...  // vdrift-lint: allow(check-name): why this is fine
  // vdrift-lint: allow(check-name): why the NEXT line is fine
  // vdrift-lint: allow-file(check-name): why the whole file is exempt

Usage:
  tools/vdrift_lint.py                 # scan src/, bench/, examples/
  tools/vdrift_lint.py --json          # machine-readable findings
  tools/vdrift_lint.py --self-test     # run the fixture suite
  tools/vdrift_lint.py --list-checks   # print check names + one-liners
  tools/vdrift_lint.py path/to/file.cc # scan specific files/dirs

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import json
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Path segments that form the drift path for no-data-dependent-check.
DRIFT_PATH_DIRS = {"detect", "core", "pipeline", "nn"}

SOURCE_EXTENSIONS = (".h", ".cc")

# Trees scanned when no path is given: the library and every program
# built from it.
DEFAULT_SCAN_DIRS = ("src", "bench", "examples")

ALLOW_RE = re.compile(r"vdrift-lint:\s*allow\(([^)]*)\)")
ALLOW_FILE_RE = re.compile(r"vdrift-lint:\s*allow-file\(([^)]*)\)")

CHECKS = {
    "no-data-dependent-check":
        "VDRIFT_CHECK on the drift path (detect/core/pipeline/nn) must "
        "carry a programmer-error rationale or become a Status",
    "no-raw-chrono":
        "timing must flow through obs::MonotonicSeconds / ScopedTimer / "
        "TraceSpan, not raw std::chrono or POSIX clocks "
        "(clock_gettime/gettimeofday)",
    "no-ambient-nondeterminism":
        "no std::rand / std::random_device / time() / getenv outside "
        "justified config chokepoints",
    "nodiscard-status":
        "Status / Result<T> types and the functions returning them must "
        "be [[nodiscard]]",
    "no-raw-mutex":
        "locking must use common/sync.h (TSA-annotated); raw std::mutex "
        "is invisible to thread-safety analysis",
    "no-raw-getenv":
        "getenv outside src/common/env.cc: read knobs through "
        "common/env.h (not suppressible)",
    "no-unchecked-rename":
        "file publication must go through common::AtomicWriteFile "
        "(fsync + checked rename + parent fsync); raw std::rename loses "
        "the error and the durability guarantee",
}

CHECK_PATTERNS = {
    "no-data-dependent-check":
        re.compile(r"\bVDRIFT_CHECK(?:_OK)?\s*\("),
    "no-raw-chrono":
        re.compile(r"std::chrono\b|#\s*include\s*<chrono>"
                   r"|(?<![\w:.])clock_gettime\s*\("
                   r"|(?<![\w:.])gettimeofday\s*\("),
    "no-ambient-nondeterminism":
        re.compile(
            r"std::rand\b|std::srand\b|(?<![\w:])srand\s*\("
            r"|random_device\b"
            r"|(?<![\w.:])time\s*\("
            r"|std::getenv\b|(?<![\w:])getenv\s*\("),
    "no-raw-mutex":
        re.compile(
            r"std::(?:recursive_|shared_|timed_)?mutex\b"
            r"|std::lock_guard\b|std::unique_lock\b|std::scoped_lock\b"
            r"|std::condition_variable\b"
            r"|#\s*include\s*<(?:mutex|condition_variable|shared_mutex)>"),
    "no-raw-getenv":
        re.compile(r"(?<![\w.>])(?:secure_)?getenv\b"),
    # std::rename or a bare rename( call; member calls (x.rename / ->rename)
    # and qualified non-std uses (fs::rename) are someone else's API.
    "no-unchecked-rename":
        re.compile(r"std::rename\s*\(|(?<![\w:.>])rename\s*\("),
}

# The one file allowed to call getenv (path relative to the scan root).
ENV_READER = "src/common/env.cc"
# Checks that no allow() marker can silence.
UNSUPPRESSIBLE = {"no-raw-getenv"}

# Function declarations returning Status / Result<...> (header files).
STATUS_DECL_RE = re.compile(
    r"^\s*(?:(?:virtual|static|inline|constexpr|explicit|friend)\s+)*"
    r"(?:::)?(?:vdrift::)?(?:Status\b|Result\s*<[^;{}]*>)\s+"
    r"(?:\w+)\s*\(")
# Canonical type definitions, with and without the class attribute.
CLASS_DECL_RE = re.compile(r"^\s*class\s+(Status|Result)\b")
CLASS_NODISCARD_RE = re.compile(
    r"^\s*class\s+\[\[nodiscard\]\]\s+(Status|Result)\b")


class Finding:
    def __init__(self, check, path, line, text, message):
        self.check = check
        self.path = path
        self.line = line
        self.text = text
        self.message = message

    def as_dict(self):
        return {
            "check": self.check,
            "path": self.path,
            "line": self.line,
            "text": self.text,
            "message": self.message,
        }

    def render(self):
        return f"{self.path}:{self.line}: [{self.check}] {self.message}\n" \
               f"    {self.text.strip()}"


def split_code_comment(line, in_block_comment):
    """Returns (code, comment, in_block_comment_after).

    Line-based C++ comment stripping: handles // and /* */ spanning lines.
    String and character literals are masked to empty quotes in `code`, so
    neither a comment marker nor a pattern inside one counts (a
    `"... time (s) ..."` banner is not a time() call). A quote right after
    an alphanumeric is a digit separator (1'000), not a literal; raw
    strings are not recognized (this is a lint, not a compiler).
    """
    code = []
    comment = []
    i = 0
    n = len(line)
    while i < n:
        if in_block_comment:
            end = line.find("*/", i)
            if end < 0:
                comment.append(line[i:])
                i = n
            else:
                comment.append(line[i:end])
                i = end + 2
                in_block_comment = False
        elif line.startswith("//", i):
            comment.append(line[i + 2:])
            i = n
        elif line.startswith("/*", i):
            i += 2
            in_block_comment = True
        elif line[i] == '"' or (line[i] == "'" and
                                not (i > 0 and line[i - 1].isalnum())):
            quote = line[i]
            end = i + 1
            while end < n and line[end] != quote:
                end += 2 if line[end] == "\\" else 1
            code.append(quote + quote)
            i = end + 1
        else:
            code.append(line[i])
            i += 1
    return "".join(code), "".join(comment), in_block_comment


def parse_allows(comment):
    """Check names allowed by vdrift-lint markers in one comment string."""
    line_allows = set()
    file_allows = set()
    for match in ALLOW_FILE_RE.finditer(comment):
        file_allows.update(c.strip() for c in match.group(1).split(","))
    # Strip allow-file matches so allow() does not re-match their tail.
    stripped = ALLOW_FILE_RE.sub("", comment)
    for match in ALLOW_RE.finditer(stripped):
        line_allows.update(c.strip() for c in match.group(1).split(","))
    return line_allows, file_allows


def on_drift_path(relpath):
    parts = relpath.replace("\\", "/").split("/")
    return any(part in DRIFT_PATH_DIRS for part in parts[:-1])


def scan_file(path, relpath, class_nodiscard):
    """Returns the findings for one file.

    `class_nodiscard` is the set of type names ("Status", "Result") whose
    canonical definitions in the scanned set carry a class-level
    [[nodiscard]]; functions returning those types are then compliant.
    """
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            lines = f.read().splitlines()
    except OSError as e:
        raise RuntimeError(f"cannot read {path}: {e}")

    findings = []
    in_block = False
    file_allows = set()
    pending_allows = set()  # from a standalone comment line, for next line
    is_header = relpath.endswith(".h")
    drift_path = on_drift_path(relpath)
    prev_code = ""

    # First pass: collect file-level allows (position-independent).
    block = False
    for line in lines:
        _, comment, block = split_code_comment(line, block)
        _, fa = parse_allows(comment)
        file_allows.update(fa)

    for lineno, line in enumerate(lines, start=1):
        code, comment, in_block = split_code_comment(line, in_block)
        line_allows, _ = parse_allows(comment)
        if not code.strip():
            # Pure comment/blank line: its allow() applies to the next
            # code line.
            if line_allows:
                pending_allows |= line_allows
            continue
        active_allows = line_allows | pending_allows | file_allows
        pending_allows = set()

        def report(check, message):
            if check in active_allows and check not in UNSUPPRESSIBLE:
                return
            findings.append(Finding(check, relpath, lineno, line, message))

        if drift_path and CHECK_PATTERNS["no-data-dependent-check"].search(
                code):
            report(
                "no-data-dependent-check",
                "VDRIFT_CHECK on the drift path: justify as a "
                "programmer-error invariant or return a Status "
                "(DESIGN.md 5d)")
        if CHECK_PATTERNS["no-raw-chrono"].search(code):
            report(
                "no-raw-chrono",
                "raw std::chrono: use obs::MonotonicSeconds / ScopedTimer "
                "/ TraceSpan (one clock for traces and histograms)")
        if CHECK_PATTERNS["no-ambient-nondeterminism"].search(code):
            report(
                "no-ambient-nondeterminism",
                "ambient nondeterminism: seed a stats::Rng, or justify "
                "the env/config read")
        if CHECK_PATTERNS["no-raw-mutex"].search(code):
            report(
                "no-raw-mutex",
                "raw mutex primitive: use vdrift::Mutex / MutexLock / "
                "CondVar from common/sync.h (TSA-annotated)")
        if (relpath.replace("\\", "/") != ENV_READER
                and CHECK_PATTERNS["no-raw-getenv"].search(code)):
            report(
                "no-raw-getenv",
                "raw getenv: read the knob with env::String / env::Flag / "
                "env::Int (common/env.h)")
        if CHECK_PATTERNS["no-unchecked-rename"].search(code):
            report(
                "no-unchecked-rename",
                "raw rename: publish files through "
                "common::AtomicWriteFile (fsync + checked rename + "
                "parent-dir fsync)")
        if is_header:
            if CLASS_DECL_RE.match(code) and not CLASS_NODISCARD_RE.match(
                    code):
                report(
                    "nodiscard-status",
                    "canonical Status/Result definition must be "
                    "`class [[nodiscard]] ...`")
            elif STATUS_DECL_RE.match(code):
                has_attr = ("[[nodiscard]]" in code
                            or "[[nodiscard]]" in prev_code)
                returns_result = "Result" in code.split("(")[0]
                covered = ("Result" if returns_result else
                           "Status") in class_nodiscard
                if not has_attr and not covered:
                    report(
                        "nodiscard-status",
                        "function returning Status/Result must be "
                        "[[nodiscard]] (or the type class-level "
                        "[[nodiscard]])")
        prev_code = code
    return findings


def collect_class_nodiscard(paths):
    """Type names whose canonical `class [[nodiscard]] X` definition
    appears anywhere in the scanned file set."""
    found = set()
    for path, _ in paths:
        if not path.endswith(".h"):
            continue
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                lines = f.read().splitlines()
        except OSError:
            continue
        in_block = False
        for line in lines:
            code, _, in_block = split_code_comment(line, in_block)
            for match in re.finditer(
                    r"class\s+\[\[nodiscard\]\]\s+(Status|Result)\b", code):
                found.add(match.group(1))
    return found


def gather_files(root, arguments):
    """Yields (abspath, relpath) pairs for the scan."""
    paths = []
    if arguments:
        for arg in arguments:
            abspath = os.path.abspath(arg)
            if os.path.isdir(abspath):
                for dirpath, _, filenames in os.walk(abspath):
                    for name in sorted(filenames):
                        if name.endswith(SOURCE_EXTENSIONS):
                            full = os.path.join(dirpath, name)
                            paths.append(
                                (full, os.path.relpath(full, root)))
            elif os.path.isfile(abspath):
                paths.append((abspath, os.path.relpath(abspath, root)))
            else:
                raise RuntimeError(f"no such file or directory: {arg}")
    else:
        if not os.path.isdir(os.path.join(root, "src")):
            raise RuntimeError(f"no src/ under scan root {root}")
        for tree in DEFAULT_SCAN_DIRS:
            for dirpath, _, filenames in os.walk(os.path.join(root, tree)):
                for name in sorted(filenames):
                    if name.endswith(SOURCE_EXTENSIONS):
                        full = os.path.join(dirpath, name)
                        paths.append((full, os.path.relpath(full, root)))
    return sorted(paths)


def run_scan(root, arguments):
    files = gather_files(root, arguments)
    class_nodiscard = collect_class_nodiscard(files)
    findings = []
    for path, relpath in files:
        findings.extend(scan_file(path, relpath, class_nodiscard))
    return findings, len(files)


def self_test():
    """Runs the checks against tools/lint_fixtures/.

    Every fixture line that must fire carries a `lint-expect: <check>`
    marker in its comment; every suppressed line carries an allow() and no
    marker. The test fails if actual findings differ from the expected set
    in any way — so it proves both that each check fires and that each
    suppression silences.
    """
    fixtures = os.path.join(REPO_ROOT, "tools", "lint_fixtures")
    if not os.path.isdir(fixtures):
        print(f"SELF-TEST FAIL: fixtures dir missing: {fixtures}")
        return 1

    expected = set()
    expect_re = re.compile(r"lint-expect:\s*([\w,\- ]+)")
    files = gather_files(fixtures, [fixtures])
    for path, relpath in files:
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f.read().splitlines(), start=1):
                for match in expect_re.finditer(line):
                    for check in match.group(1).split(","):
                        check = check.strip()
                        if check not in CHECKS:
                            print(f"SELF-TEST FAIL: {relpath}:{lineno} "
                                  f"expects unknown check '{check}'")
                            return 1
                        expected.add((relpath, lineno, check))

    findings, _ = run_scan(fixtures, [fixtures])
    actual = {(f.path, f.line, f.check) for f in findings}

    problems = []
    for item in sorted(expected - actual):
        problems.append(f"expected finding did not fire: "
                        f"{item[0]}:{item[1]} [{item[2]}]")
    for item in sorted(actual - expected):
        problems.append(f"unexpected finding (suppression broken?): "
                        f"{item[0]}:{item[1]} [{item[2]}]")

    fired_checks = {check for (_, _, check) in expected}
    for check in sorted(CHECKS):
        if check not in fired_checks:
            problems.append(f"check '{check}' has no firing fixture")

    if problems:
        print("SELF-TEST FAIL:")
        for p in problems:
            print(f"  {p}")
        return 1
    print(f"self-test OK: {len(expected)} expected findings fired across "
          f"{len(files)} fixtures, all suppressions honored, "
          f"{len(CHECKS)} checks covered")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        prog="vdrift_lint.py",
        description="repo-specific static checks (see DESIGN.md 5e)")
    parser.add_argument("--root", default=REPO_ROOT,
                        help="repo root for relative paths (default: "
                             "the tool's parent repo)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON")
    parser.add_argument("--self-test", action="store_true",
                        help="validate every check against "
                             "tools/lint_fixtures/")
    parser.add_argument("--list-checks", action="store_true",
                        help="print check names and one-line rules")
    parser.add_argument("paths", nargs="*",
                        help="files or directories (default: <root>/src, "
                             "bench and examples)")
    args = parser.parse_args(argv)

    if args.list_checks:
        for name in sorted(CHECKS):
            print(f"{name}: {CHECKS[name]}")
        return 0
    if args.self_test:
        return self_test()

    try:
        findings, files_scanned = run_scan(os.path.abspath(args.root),
                                           args.paths)
    except RuntimeError as e:
        print(f"vdrift-lint: error: {e}", file=sys.stderr)
        return 2

    if args.json:
        counts = {}
        for f in findings:
            counts[f.check] = counts.get(f.check, 0) + 1
        print(json.dumps({
            "findings": [f.as_dict() for f in findings],
            "counts": counts,
            "files_scanned": files_scanned,
        }, indent=2, sort_keys=True))
    else:
        for f in findings:
            print(f.render())
        print(f"vdrift-lint: {len(findings)} finding(s) in "
              f"{files_scanned} files")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
