#!/usr/bin/env python3
"""BitWave repo-invariant linter.

Enforces the handful of repo-specific contracts that generic tools
(clang-tidy, -Wthread-safety) cannot express:

  determinism       No ambient randomness or wall-clock reads on
                    result-affecting paths under src/.  Seeded RNG lives
                    in common/rng.hpp; the trace/metrics clocks are the
                    swappable timing seams.
  memory-order      Every std::atomic load/store/RMW in src/common/ and
                    src/service/ spells an explicit std::memory_order
                    argument (the worksteal protocol's documented-
                    ordering rule, generalized).
  unordered-iteration
                    No iteration over an unordered container feeding a
                    ScenarioResult or fingerprint — hash-map order is
                    not part of the determinism contract.
  env-access        No naked getenv() outside common/env.{hpp,cpp}; use
                    the env_* helpers so defaults/parsing stay in one
                    place.
  logging           No direct std::cerr outside common/logging.cpp; use
                    the leveled logging API so sinks stay swappable.
  bench-write       BENCH_*.json emission goes through bench_util's
                    atomic temp-file + rename writer, never ad-hoc.
  libm              No libm transcendental call (log/exp/pow and
                    kin, std:: or bare) in weight synthesis: src/nn/
                    and common/rng.{hpp,cpp}.  Every weight is defined
                    by common/rng's in-house fdlibm_log/fdlibm_exp, so
                    no host's libm can move one.

Diagnostics are `path:line: [rule] message`.  A finding is suppressed
by an inline escape hatch on the same or the preceding line:

    // bitwave-lint: allow(<rule>)

Exit status: 0 clean, 1 findings, 2 usage error.
"""

import argparse
import os
import re
import sys

RULES = {
    "determinism": "no ambient randomness / wall-clock on result paths",
    "memory-order": "atomics must spell std::memory_order explicitly",
    "unordered-iteration":
        "no unordered-container iteration into results/fingerprints",
    "env-access": "getenv() only inside common/env.{hpp,cpp}",
    "logging": "std::cerr only inside common/logging.cpp",
    "bench-write": "BENCH_*.json only via bench_util's atomic writer",
    "libm": "no libm log/exp/pow-family call in src/nn/ or common/rng.*",
}

# Files exempt from a rule (repo-relative, forward slashes).  These are
# the designated seams the rule exists to funnel everything through.
RNG_SEAMS = {"src/common/rng.hpp", "src/common/rng.cpp"}
CLOCK_SEAMS = RNG_SEAMS | {
    "src/common/trace.hpp", "src/common/trace.cpp",
    "src/common/metrics.hpp", "src/common/metrics.cpp",
}
ENV_SEAMS = {"src/common/env.hpp", "src/common/env.cpp"}
LOG_SEAMS = {"src/common/logging.cpp"}
BENCH_SEAMS = {"bench/bench_util.hpp"}

ALLOW_RE = re.compile(r"bitwave-lint:\s*allow\(([^)]*)\)")

# --- determinism -----------------------------------------------------

RNG_PATTERNS = [
    (re.compile(r"(?<![\w.])srand\s*\("), "srand()"),
    (re.compile(r"(?<![\w.:])rand\s*\("), "rand()"),
    (re.compile(r"std::random_device"), "std::random_device"),
]
CLOCK_PATTERNS = [
    (re.compile(r"std::time\s*\("), "std::time()"),
    (re.compile(r"(?<![\w.])time\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
     "time(NULL)"),
    (re.compile(r"system_clock"), "std::chrono::system_clock"),
    (re.compile(r"\bgettimeofday\b"), "gettimeofday()"),
    (re.compile(r"\bCLOCK_REALTIME\b"), "CLOCK_REALTIME"),
]

# --- memory-order ----------------------------------------------------

ATOMIC_OP_RE = re.compile(
    r"\.(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\(")

# --- unordered-iteration ---------------------------------------------

UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set)\s*<")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(")
RESULT_SINK_RE = re.compile(r"ScenarioResult|fingerprint|fnv1a")

# --- libm -------------------------------------------------------------

# The transcendental functions whose last bit depends on the libm (sqrt
# is correctly rounded everywhere and stays allowed), with their float
# and long double forms, called as std::f, ::f or a bare f.
LIBM_FUNCS = (
    "log", "log2", "log10", "log1p", "exp", "exp2", "expm1", "pow",
    "cbrt", "hypot", "sin", "cos", "tan", "asin", "acos", "atan", "atan2",
    "sinh", "cosh", "tanh", "asinh", "acosh", "atanh", "erf", "erfc",
    "tgamma", "lgamma",
)
LIBM_RE = re.compile(r"(?:\bstd::|(?<![\w.>:])::|(?<![\w.>:]))"
                     r"((?:" + "|".join(LIBM_FUNCS) + r")[fl]?)\s*\(")

# --- env-access / logging / bench-write ------------------------------

GETENV_RE = re.compile(r"(?<![\w])(?:std::|::)?getenv\s*\(")
CERR_RE = re.compile(r"std::cerr")
BENCH_RE = re.compile(r"\bBENCH_")


def strip_comments_and_strings(text, keep_strings=False):
    """Blank out comments (and optionally string/char literals) while
    preserving the byte count and line structure, so offsets and line
    numbers in the stripped text match the original."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 1
                j += 1
            if not keep_strings:
                for k in range(i, min(j + 1, n)):
                    if text[k] != "\n":
                        out[k] = " "
            i = j + 1
        else:
            i += 1
    return "".join(out)


def allowed_rules_by_line(raw_lines):
    """Map line number (1-based) -> set of rules an allow-comment on
    that line or the line above suppresses."""
    allowed = {}
    for idx, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        allowed.setdefault(idx, set()).update(rules)
        allowed.setdefault(idx + 1, set()).update(rules)
    return allowed


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def balanced_span(text, open_pos, open_ch="(", close_ch=")"):
    """Return text inside the bracket pair opening at open_pos, or None
    when unbalanced (truncated file)."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return text[open_pos + 1:i]
    return None


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def check_determinism(rel, stripped, findings):
    patterns = []
    if rel not in RNG_SEAMS:
        patterns += RNG_PATTERNS
    if rel not in CLOCK_SEAMS:
        patterns += CLOCK_PATTERNS
    for pat, what in patterns:
        for m in pat.finditer(stripped):
            findings.append(Finding(
                rel, line_of(stripped, m.start()), "determinism",
                f"{what} breaks the bit-identity contract; draw from "
                "common/rng.hpp (seeded) or the trace/metrics clock "
                "seams"))


def check_memory_order(rel, stripped, findings):
    for m in ATOMIC_OP_RE.finditer(stripped):
        op = m.group(1)
        args = balanced_span(stripped, m.end() - 1)
        if args is None or "memory_order" not in args:
            findings.append(Finding(
                rel, line_of(stripped, m.start()), "memory-order",
                f".{op}() without an explicit std::memory_order "
                "argument (implicit seq_cst hides the protocol)"))


def unordered_names(stripped):
    """Identifiers declared in this file with an unordered_{map,set}
    type (members or locals)."""
    names = set()
    for m in UNORDERED_DECL_RE.finditer(stripped):
        close = None
        depth = 0
        for i in range(m.end() - 1, min(len(stripped), m.end() + 2000)):
            if stripped[i] == "<":
                depth += 1
            elif stripped[i] == ">":
                depth -= 1
                if depth == 0:
                    close = i
                    break
        if close is None:
            continue
        tail = stripped[close + 1:close + 300]
        dm = re.match(r"\s*&?\s*(\w+)\s*(?:GUARDED_BY\s*\([^)]*\)\s*)?"
                      r"\s*[;={(]", tail)
        if dm and dm.group(1) not in ("const", "return"):
            names.add(dm.group(1))
    return names


def check_unordered_iteration(rel, stripped, findings):
    names = unordered_names(stripped)
    if not names:
        return
    for m in RANGE_FOR_RE.finditer(stripped):
        head = balanced_span(stripped, m.end() - 1)
        if head is None or ":" not in head:
            continue
        iterated = head.rsplit(":", 1)[1].strip()
        last = re.split(r"[.\s]|->", iterated)[-1].strip("()&*")
        if last not in names:
            continue
        # Loop body: the balanced brace block (or single statement)
        # after the header.
        body_start = stripped.find("{", m.end())
        stmt_end = stripped.find(";", m.end())
        if body_start == -1 or (stmt_end != -1 and stmt_end < body_start):
            body = stripped[m.end():stmt_end + 1 if stmt_end != -1 else
                            len(stripped)]
        else:
            body = balanced_span(stripped, body_start, "{", "}") or ""
        if RESULT_SINK_RE.search(body):
            findings.append(Finding(
                rel, line_of(stripped, m.start()), "unordered-iteration",
                f"iterating unordered container '{last}' into a "
                "result/fingerprint — hash order is not deterministic; "
                "sort keys first"))


def check_env_access(rel, stripped, findings):
    if rel in ENV_SEAMS:
        return
    for m in GETENV_RE.finditer(stripped):
        findings.append(Finding(
            rel, line_of(stripped, m.start()), "env-access",
            "naked getenv(); use env_string()/env_int() from "
            "common/env.hpp"))


def check_logging(rel, stripped, findings):
    if rel in LOG_SEAMS:
        return
    for m in CERR_RE.finditer(stripped):
        findings.append(Finding(
            rel, line_of(stripped, m.start()), "logging",
            "direct std::cerr; use bitwave::warn() so "
            "the sink stays swappable"))


def check_libm(rel, stripped, findings):
    if not (rel.startswith("src/nn/") or rel in RNG_SEAMS):
        return
    for m in LIBM_RE.finditer(stripped):
        findings.append(Finding(
            rel, line_of(stripped, m.start()), "libm",
            f"{m.group(1)}() takes the host libm's last bit into weight "
            "synthesis; use fdlibm_log()/fdlibm_exp() from "
            "common/rng.hpp"))


def check_bench_write(rel, stripped_keep_strings, findings):
    if rel in BENCH_SEAMS:
        return
    for m in BENCH_RE.finditer(stripped_keep_strings):
        findings.append(Finding(
            rel, line_of(stripped_keep_strings, m.start()), "bench-write",
            "BENCH_* artifact handled outside bench_util; emit through "
            "bench::Reporter's atomic temp-file + rename writer"))


def lint_file(root, rel):
    path = os.path.join(root, rel)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        print(f"bitwave_lint: cannot read {path}: {e}", file=sys.stderr)
        return []

    raw_lines = text.splitlines()
    allowed = allowed_rules_by_line(raw_lines)
    stripped = strip_comments_and_strings(text)
    findings = []

    if rel.startswith("src/"):
        check_determinism(rel, stripped, findings)
        check_unordered_iteration(rel, stripped, findings)
        check_env_access(rel, stripped, findings)
        check_logging(rel, stripped, findings)
        check_libm(rel, stripped, findings)
        if rel.startswith(("src/common/", "src/service/")):
            check_memory_order(rel, stripped, findings)
    if rel.startswith("bench/"):
        check_bench_write(
            rel, strip_comments_and_strings(text, keep_strings=True),
            findings)

    kept, seen = [], set()
    for f in findings:
        key = (f.path, f.line, f.rule)
        if key in seen or f.rule in allowed.get(f.line, set()):
            continue
        seen.add(key)
        kept.append(f)
    return kept


def collect_files(root):
    rels = []
    for top in ("src", "bench"):
        for dirpath, _, files in os.walk(os.path.join(root, top)):
            for name in sorted(files):
                if name.endswith((".hpp", ".cpp", ".h", ".cc")):
                    rel = os.path.relpath(os.path.join(dirpath, name),
                                          root)
                    rels.append(rel.replace(os.sep, "/"))
    return sorted(rels)


def main(argv):
    parser = argparse.ArgumentParser(
        description="BitWave repo-invariant linter")
    parser.add_argument(
        "--root", default=None,
        help="repo root to scan (default: parent of this script)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule:22s} {desc}")
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(root):
        print(f"bitwave_lint: no such directory: {root}", file=sys.stderr)
        return 2

    findings = []
    for rel in collect_files(root):
        findings.extend(lint_file(root, rel))

    for f in findings:
        print(f)
    if findings:
        print(f"bitwave_lint: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
