#!/usr/bin/env python3
"""aer_lint: project-specific correctness rules no generic tool enforces.

Rules (all applied to comment- and string-stripped source, so prose never
trips them):

  rng-containment   No rand()/srand()/std::random_device/std <random> engines
                    or distributions outside src/common/rng.{h,cc}. Seeded
                    determinism (same seed -> bit-identical Q-table) is
                    load-bearing for figure reproduction; every draw must go
                    through aer::Rng.
  no-raw-assert     No raw assert(): it vanishes under NDEBUG and prints no
                    values. Use AER_CHECK* (always on) or AER_DCHECK* (debug
                    tier) from src/common/check.h. static_assert is fine.
  include-guard     Headers use guards named AER_<DIR>_<FILE>_H_ relative to
                    the source root (src/rl/qtable.h -> AER_RL_QTABLE_H_,
                    bench/bench_common.h -> AER_BENCH_BENCH_COMMON_H_).
  no-float          No `float` in library/bench code. Cost and downtime
                    accounting must be double (or integral sim-time); mixing
                    float into an accumulation silently changes every figure.
  no-unchecked-at   No container .at() in src/ or bench/: it throws a
                    context-free std::out_of_range. Bounds-check with
                    AER_CHECK_LT(...) << context, then index.
  unchecked-io      In the deserialization layers (src/log/, src/rl/), which
                    parse untrusted on-disk artifacts: no raw strto*/ato*/
                    std::sto* (use ParseInt64/ParseDouble/ParseHexU64 from
                    common/string_util.h — they reject junk instead of
                    silently returning 0 or throwing); no discarded-result
                    std::getline at statement position (test the stream);
                    and every fstream construction must be followed within a
                    few lines by a good()/is_open() check.
  no-direct-output  No std::cout/std::cerr/printf-family output in src/core/,
                    src/rl/, src/sim/: library layers report through return
                    values, AER_CHECK messages, or obs/ metrics and trace
                    records (docs/OBSERVABILITY.md). Stray prints corrupt the CLI's
                    machine-readable output and bypass the observability
                    contract.
  mutex-annotation  In src/, no raw std::mutex / std::lock_guard /
                    std::unique_lock / std::scoped_lock /
                    std::condition_variable outside common/mutex.h: lock
                    through aer::Mutex / aer::MutexLock / aer::CondVar so
                    Clang's thread-safety analysis sees every acquisition
                    (docs/STATIC_ANALYSIS.md). Additionally, a src/ header
                    that declares an aer::Mutex member must guard at least
                    one field with AER_GUARDED_BY — an unannotated mutex
                    protects nothing the analysis can check.
  thread-containment
                    No std::thread / std::jthread (any use other than a
                    `std::thread::` member such as hardware_concurrency())
                    and no std::async in src/, bench/ or examples/ outside
                    src/common/thread_pool.{h,cc}. Parallel work goes
                    through ThreadPool::ParallelFor, the one TSan-exercised
                    scheduler; a stray thread escapes the pool's
                    exception, nesting and shutdown contract. Tests may
                    start plain threads (to drive the pool from outside).
  metric-catalog    Every aer_* metric registered in src/ or bench/ code
                    (GetCounter("aer_...") / GetGauge / GetHistogram /
                    GetStat) must appear in the frozen catalog in
                    docs/OBSERVABILITY.md. Metric names are API
                    (baselines and dashboards key on them); registering an
                    undocumented one silently grows the catalog. This rule
                    matches the raw source (names live inside string
                    literals); tests are exempt — their throwaway
                    aer_test_* names are not catalog entries. In the other
                    direction, on a whole-tree run, every name in the
                    "Metric catalog (frozen)" section must be registered by
                    some src/ or bench/ literal, so a deleted metric cannot
                    linger in the doc. The per-stage
                    aer_trace_stage_<name>_seconds histograms, built by
                    TraceStageMetricName, count as registered through their
                    documented `stage:<name>` tokens.
  stage-catalog     Every critical-path stage name wrapped in
                    AER_TRACE_STAGE("...") (src/obs/critical_path.*) must
                    appear as a `stage:<name>` token in the frozen stage
                    catalog in docs/OBSERVABILITY.md. Stage names are API
                    the same way metric names are: the per-stage
                    aer_trace_stage_<name>_seconds histograms and the
                    aerctl/Chrome export surfaces key on them.
  profile-scope     Every profiler scope name in src/ code
                    (AER_PROFILE_SCOPE("...")) must be a row of the scope
                    table in the Profiler section of docs/OBSERVABILITY.md.
                    In the other direction, on a whole-tree run, every row
                    must name a src/ literal, so a deleted scope cannot
                    linger in the doc. Scope names are API: profile paths,
                    the aerctl profile golden and bench records key on them.

Suppress a finding on one line with:  // aer-lint: allow(<rule>)

Usage:
  tools/aer_lint.py [--root DIR] [FILE...]
With no FILE arguments, lints every C++ source under src/, bench/, tests/,
and examples/ below the root. Exits 1 if any finding is printed.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

CPP_SUFFIXES = {".cc", ".cpp", ".h", ".hpp"}
LINT_DIRS = ("src", "bench", "tests", "examples")

ALLOW_PRAGMA = re.compile(r"aer-lint:\s*allow\(([a-z\-]+(?:\s*,\s*[a-z\-]+)*)\)")

RNG_ALLOWED = {"src/common/rng.h", "src/common/rng.cc"}
RNG_BANNED = re.compile(
    r"\b(?:s?rand|drand48|lrand48|mrand48|random)\s*\("
    r"|std\s*::\s*(?:random_device|mt19937(?:_64)?|minstd_rand0?|"
    r"default_random_engine|knuth_b|ranlux\w+|"
    r"(?:uniform_int|uniform_real|normal|lognormal|exponential|poisson|"
    r"geometric|binomial|negative_binomial|bernoulli|discrete|gamma|weibull|"
    r"extreme_value|chi_squared|cauchy|fisher_f|student_t|piecewise_\w+)"
    r"_distribution)"
)

RAW_ASSERT = re.compile(r"\bassert\s*\(")

FLOAT_TOKEN = re.compile(r"\bfloat\b")
# Library and bench code carry the accounting paths; tests/examples may cast
# for display, though today none do.
FLOAT_SCOPES = ("src/", "bench/")

UNCHECKED_AT = re.compile(r"\.\s*at\s*\(")
UNCHECKED_AT_SCOPES = ("src/", "bench/")

GUARD_SCOPES = ("src/", "bench/")

# The layers that deserialize untrusted files (recovery logs, Q-table
# checkpoints). Their parsers must fail loudly, not wrap around or throw.
UNCHECKED_IO_SCOPES = ("src/log/", "src/rl/")
RAW_NUMERIC_PARSE = re.compile(
    r"\b(?:strto(?:l|ll|ul|ull|ull_l|f|d|ld)|ato[ifl]l?|"
    r"std\s*::\s*sto(?:i|l|ll|ul|ull|f|d|ld))\s*\(")
# getline whose result is discarded (statement position). Condition-position
# uses — while (std::getline(...)), if (!std::getline(...)) — do not match.
DISCARDED_GETLINE = re.compile(r"^\s*(?:std\s*::\s*)?getline\s*\(")
FSTREAM_CTOR = re.compile(
    r"\bstd\s*::\s*[io]?fstream\s+\w+\s*[({]")
STREAM_CHECKED = re.compile(r"\b(?:good|is_open|fail)\s*\(")
# How many lines after an fstream construction may hold its health check.
STREAM_CHECK_WINDOW = 4

# Library layers that must stay silent: decisions and telemetry flow through
# return values and the obs/ registry, never a process-global stream.
DIRECT_OUTPUT_SCOPES = ("src/core/", "src/rl/", "src/sim/")
DIRECT_OUTPUT = re.compile(
    r"\bstd\s*::\s*(?:cout|cerr|clog)\b"
    r"|\b(?:printf|fprintf|puts|fputs|putchar)\s*\(")

# Locking in src/ funnels through the capability-annotated wrappers in
# common/mutex.h; raw std primitives there are invisible to Clang's
# thread-safety analysis. tests/bench lock library state only through the
# library's own API, so they are out of scope.
MUTEX_SCOPES = ("src/",)
MUTEX_ALLOWED = {"src/common/mutex.h", "src/common/thread_annotations.h"}
RAW_MUTEX = re.compile(
    r"\bstd\s*::\s*(?:mutex|timed_mutex|recursive_mutex|"
    r"recursive_timed_mutex|shared_mutex|shared_timed_mutex|lock_guard|"
    r"unique_lock|scoped_lock|condition_variable(?:_any)?)\b")
MUTEX_MEMBER = re.compile(
    r"^\s*(?:mutable\s+)?(?:aer\s*::\s*)?Mutex\s+\w+\s*;")
GUARDED_FIELD = re.compile(r"\bAER_(?:GUARDED_BY|PT_GUARDED_BY)\s*\(")

# Threads are started by the pool alone. `std::thread::` members
# (hardware_concurrency(), id) construct nothing and stay allowed.
THREAD_SCOPES = ("src/", "bench/", "examples/")
THREAD_ALLOWED = {"src/common/thread_pool.h", "src/common/thread_pool.cc"}
RAW_THREAD = re.compile(
    r"\bstd\s*::\s*(?:j?thread\b(?!\s*::)|async\b)")

# Metric registrations that must appear in the frozen catalog. Matched on
# the *raw* source (the names live inside string literals, which the
# stripper blanks); \s* spans the line break of a wrapped call.
METRIC_CATALOG_SCOPES = ("src/", "bench/")
METRIC_REGISTRATION = re.compile(
    r'\bGet(?:Counter|Gauge|Histogram|Stat)\s*\(\s*"(aer_[a-z0-9_]*)"')
METRIC_CATALOG_DOC = "docs/OBSERVABILITY.md"
# The frozen catalog section of the doc (up to the next level-2 heading) and
# the full metric names in it; a `<placeholder>` suffix is not a name.
METRIC_CATALOG_SECTION = re.compile(
    r"^## Metric catalog \(frozen\)\n(.*?)(?=^## |\Z)", re.M | re.S)
CATALOG_NAME = re.compile(r"\baer_[a-z0-9_]+\b(?!<)")
STAGE_METRIC = "aer_trace_stage_{}_seconds"

# Critical-path stage names are frozen the same way metric names are: every
# name wrapped in AER_TRACE_STAGE("...") must appear as a `stage:<name>`
# token in the documented stage catalog. Matched on the raw source (the
# names live inside string literals, which the stripper blanks).
STAGE_CATALOG_SCOPES = ("src/", "bench/")
STAGE_REGISTRATION = re.compile(r'\bAER_TRACE_STAGE\s*\(\s*"([a-z0-9_]+)"')
STAGE_CATALOG_DOC = METRIC_CATALOG_DOC
STAGE_TOKEN = re.compile(r"stage:([a-z0-9_]+)")

# Profiler scopes: the AER_PROFILE_SCOPE("...") literals in library code
# against the table rows that open with a backticked name in the doc's
# Profiler section (up to the next level-2 heading). Matched on the raw
# source, like the catalogs above.
PROFILE_SCOPE_SCOPES = ("src/",)
PROFILE_SCOPE_REGISTRATION = re.compile(
    r'\bAER_PROFILE_SCOPE\s*\(\s*"([a-z0-9_]+)"')
PROFILE_SCOPE_DOC = METRIC_CATALOG_DOC
PROFILE_SECTION = re.compile(r"^## Profiler\n(.*?)(?=^## |\Z)", re.M | re.S)
PROFILE_SCOPE_ROW = re.compile(r"^\|\s*`([a-z0-9_]+)`\s*\|", re.M)


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literal contents, preserving
    newlines so findings keep their line numbers."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                # Raw string literal: R"delim( ... )delim"
                m = re.match(r'R"([^\s()\\]{0,16})\(', text[i - 1 : i + 18]) if i and text[i - 1] == "R" else None
                if m:
                    raw_delim = ")" + m.group(1) + '"'
                    state = "raw"
                    out.append('"')
                    i += 1 + len(m.group(1)) + 1
                    out.append(" " * (len(m.group(1)) + 1))
                else:
                    state = "string"
                    out.append('"')
                    i += 1
            elif c == "'":
                state = "char"
                out.append("'")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(quote)
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == "raw":
            if text.startswith(raw_delim, i):
                state = "code"
                out.append(" " * (len(raw_delim) - 1) + '"')
                i += len(raw_delim)
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


def allowed_rules_by_line(text: str) -> dict[int, set[str]]:
    allows: dict[int, set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        m = ALLOW_PRAGMA.search(line)
        if m:
            allows[lineno] = {r.strip() for r in m.group(1).split(",")}
    return allows


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.findings: list[str] = []
        self._catalog: set[str] | None | bool = False  # False = not loaded
        self._stages: set[str] | None | bool = False   # False = not loaded
        self._scopes: dict[str, int] | None | bool = False  # name -> doc line
        # Every aer_* name a linted src/ or bench/ literal registers.
        self.registered: set[str] = set()
        # Every profiler scope name a linted src/ literal opens.
        self.profiled: set[str] = set()

    def catalog_names(self) -> set[str] | None:
        """The aer_* names documented in docs/OBSERVABILITY.md, or None if
        the catalog document does not exist (scratch roots in the self
        tests) — in which case the metric-catalog rule is skipped."""
        if self._catalog is False:
            doc = self.root / METRIC_CATALOG_DOC
            if doc.is_file():
                self._catalog = set(
                    re.findall(r"aer_[a-z0-9_]*",
                               doc.read_text(encoding="utf-8")))
            else:
                self._catalog = None
        return self._catalog

    def stage_names(self) -> set[str] | None:
        """The stage:<name> tokens documented in docs/OBSERVABILITY.md, or
        None if the catalog document does not exist (scratch roots in the
        self tests) — in which case the stage-catalog rule is skipped."""
        if self._stages is False:
            doc = self.root / STAGE_CATALOG_DOC
            if doc.is_file():
                self._stages = set(
                    STAGE_TOKEN.findall(doc.read_text(encoding="utf-8")))
            else:
                self._stages = None
        return self._stages

    def scope_names(self) -> dict[str, int] | None:
        """The profiler scopes tabled in the Profiler section of
        docs/OBSERVABILITY.md, each with its doc line, or None if the doc
        (or the section) does not exist — the profile-scope rule is then
        skipped."""
        if self._scopes is False:
            self._scopes = None
            doc = self.root / PROFILE_SCOPE_DOC
            if doc.is_file():
                text = doc.read_text(encoding="utf-8")
                section = PROFILE_SECTION.search(text)
                if section is not None:
                    self._scopes = {
                        m.group(1): text.count(
                            "\n", 0, section.start(1) + m.start()) + 1
                        for m in PROFILE_SCOPE_ROW.finditer(section.group(1))}
        return self._scopes

    def report(self, path: Path, lineno: int, rule: str, message: str,
               allows: dict[int, set[str]]) -> None:
        if rule in allows.get(lineno, set()):
            return
        rel = path.relative_to(self.root)
        self.findings.append(f"{rel}:{lineno}: [{rule}] {message}")

    def lint_file(self, path: Path) -> None:
        rel = path.relative_to(self.root).as_posix()
        text = path.read_text(encoding="utf-8")
        allows = allowed_rules_by_line(text)
        code = strip_comments_and_strings(text)
        lines = code.splitlines()

        for lineno, line in enumerate(lines, 1):
            if rel not in RNG_ALLOWED and RNG_BANNED.search(line):
                self.report(
                    path, lineno, "rng-containment",
                    "non-deterministic / std <random> RNG outside "
                    "src/common/rng.*; draw through aer::Rng instead", allows)
            if RAW_ASSERT.search(line):
                self.report(
                    path, lineno, "no-raw-assert",
                    "raw assert() is compiled out under NDEBUG; use AER_CHECK*"
                    " or AER_DCHECK* from common/check.h", allows)
            if rel.startswith(FLOAT_SCOPES) and FLOAT_TOKEN.search(line):
                self.report(
                    path, lineno, "no-float",
                    "float in library/bench code: cost and downtime "
                    "accounting must use double or integral sim-time", allows)
            if rel.startswith(UNCHECKED_AT_SCOPES) and UNCHECKED_AT.search(line):
                self.report(
                    path, lineno, "no-unchecked-at",
                    ".at() throws without context; use "
                    "AER_CHECK_LT(i, c.size()) << context, then c[i]", allows)
            if rel.startswith(DIRECT_OUTPUT_SCOPES) and \
                    DIRECT_OUTPUT.search(line):
                self.report(
                    path, lineno, "no-direct-output",
                    "direct stream/printf output in a library layer; report "
                    "through return values, AER_CHECK messages, or obs/ "
                    "metrics and trace records", allows)
            if rel.startswith(MUTEX_SCOPES) and rel not in MUTEX_ALLOWED \
                    and RAW_MUTEX.search(line):
                self.report(
                    path, lineno, "mutex-annotation",
                    "raw std locking primitive in src/; use aer::Mutex / "
                    "aer::MutexLock / aer::CondVar from common/mutex.h so "
                    "the thread-safety analysis sees the acquisition", allows)
            if rel.startswith(THREAD_SCOPES) and rel not in THREAD_ALLOWED \
                    and RAW_THREAD.search(line):
                self.report(
                    path, lineno, "thread-containment",
                    "raw std::thread/std::jthread/std::async outside "
                    "src/common/thread_pool.*; run the work through "
                    "ThreadPool::ParallelFor", allows)
            if rel.startswith(UNCHECKED_IO_SCOPES):
                self.lint_unchecked_io(path, lineno, line, lines, allows)

        if path.suffix in (".h", ".hpp") and rel.startswith(MUTEX_SCOPES) \
                and rel not in MUTEX_ALLOWED:
            self.lint_mutex_members(path, lines, allows)

        if path.suffix in (".h", ".hpp") and rel.startswith(GUARD_SCOPES):
            self.lint_include_guard(path, rel, lines, allows)

        if rel.startswith(METRIC_CATALOG_SCOPES):
            self.lint_metric_catalog(path, text, allows)

        if rel.startswith(STAGE_CATALOG_SCOPES):
            self.lint_stage_catalog(path, text, allows)

        if rel.startswith(PROFILE_SCOPE_SCOPES):
            self.lint_profile_scopes(path, text, allows)

    def lint_metric_catalog(self, path: Path, text: str,
                            allows: dict[int, set[str]]) -> None:
        catalog = self.catalog_names()
        if catalog is None:
            return
        for m in METRIC_REGISTRATION.finditer(text):
            name = m.group(1)
            self.registered.add(name)
            if name in catalog:
                continue
            lineno = text.count("\n", 0, m.start()) + 1
            # A wrapped call spans lines; honor a pragma on the name's line
            # (where it reads naturally) as well as the call's first line.
            name_lineno = text.count("\n", 0, m.start(1)) + 1
            if "metric-catalog" in allows.get(name_lineno, set()):
                continue
            self.report(
                path, lineno, "metric-catalog",
                f"metric '{name}' is registered here but missing from the "
                f"frozen catalog in {METRIC_CATALOG_DOC}; document it (and "
                f"update tests/obs/metric_names_test.cc) in the same change",
                allows)

    def lint_catalog_coverage(self) -> None:
        """Reverse metric-catalog check, valid only after linting the whole
        tree: each name in the frozen catalog section must be registered."""
        stages = self.stage_names()
        if stages is None:
            return
        doc = self.root / METRIC_CATALOG_DOC
        text = doc.read_text(encoding="utf-8")
        section = METRIC_CATALOG_SECTION.search(text)
        if section is None:
            return
        registered = self.registered | {STAGE_METRIC.format(s) for s in stages}
        reported: set[str] = set()
        for m in CATALOG_NAME.finditer(section.group(1)):
            name = m.group(0)
            if name in registered or name in reported:
                continue
            reported.add(name)
            lineno = text.count("\n", 0, section.start(1) + m.start()) + 1
            self.report(
                doc, lineno, "metric-catalog",
                f"metric '{name}' is in the frozen catalog but no src/ or "
                f"bench/ code registers it; remove it from the catalog (and "
                f"tests/obs/metric_names_test.cc) in the same change", {})

    def lint_stage_catalog(self, path: Path, text: str,
                           allows: dict[int, set[str]]) -> None:
        stages = self.stage_names()
        if stages is None:
            return
        for m in STAGE_REGISTRATION.finditer(text):
            name = m.group(1)
            if name in stages:
                continue
            lineno = text.count("\n", 0, m.start()) + 1
            name_lineno = text.count("\n", 0, m.start(1)) + 1
            if "stage-catalog" in allows.get(name_lineno, set()):
                continue
            self.report(
                path, lineno, "stage-catalog",
                f"critical-path stage '{name}' is registered here but "
                f"missing from the frozen stage catalog in "
                f"{STAGE_CATALOG_DOC}; document it as `stage:{name}` in the "
                f"same change", allows)

    def lint_profile_scopes(self, path: Path, text: str,
                            allows: dict[int, set[str]]) -> None:
        scopes = self.scope_names()
        if scopes is None:
            return
        for m in PROFILE_SCOPE_REGISTRATION.finditer(text):
            name = m.group(1)
            self.profiled.add(name)
            if name in scopes:
                continue
            self.report(
                path, text.count("\n", 0, m.start()) + 1, "profile-scope",
                f"profiler scope '{name}' is opened here but missing from "
                f"the scope table in the Profiler section of "
                f"{PROFILE_SCOPE_DOC}; add a row in the same change", allows)

    def lint_profile_scope_coverage(self) -> None:
        """Reverse profile-scope check, valid only after linting the whole
        tree: each tabled scope must be opened by some src/ literal."""
        scopes = self.scope_names()
        if scopes is None:
            return
        for name, lineno in scopes.items():
            if name in self.profiled:
                continue
            self.report(
                self.root / PROFILE_SCOPE_DOC, lineno, "profile-scope",
                f"profiler scope '{name}' is in the scope table but no src/ "
                f"code opens it; remove the row in the same change", {})

    def lint_mutex_members(self, path: Path, lines: list[str],
                           allows: dict[int, set[str]]) -> None:
        """A header declaring an aer::Mutex member must guard something with
        it; otherwise the annotations prove nothing about the data."""
        if any(GUARDED_FIELD.search(line) for line in lines):
            return
        for lineno, line in enumerate(lines, 1):
            if MUTEX_MEMBER.match(line):
                self.report(
                    path, lineno, "mutex-annotation",
                    "aer::Mutex member in a header with no AER_GUARDED_BY "
                    "field; name the data this lock protects "
                    "(docs/STATIC_ANALYSIS.md)", allows)

    def lint_unchecked_io(self, path: Path, lineno: int, line: str,
                          lines: list[str],
                          allows: dict[int, set[str]]) -> None:
        if RAW_NUMERIC_PARSE.search(line):
            self.report(
                path, lineno, "unchecked-io",
                "raw numeric parse on untrusted input; use ParseInt64/"
                "ParseDouble/ParseHexU64 from common/string_util.h", allows)
        if DISCARDED_GETLINE.search(line):
            self.report(
                path, lineno, "unchecked-io",
                "getline result discarded; test the stream (e.g. "
                "while (std::getline(...)) or if (!std::getline(...)))",
                allows)
        if FSTREAM_CTOR.search(line):
            window = lines[lineno - 1 : lineno - 1 + 1 + STREAM_CHECK_WINDOW]
            if not any(STREAM_CHECKED.search(w) for w in window):
                self.report(
                    path, lineno, "unchecked-io",
                    "fstream opened without a nearby good()/is_open() "
                    "check; a silently-failed open reads as an empty file",
                    allows)

    def lint_include_guard(self, path: Path, rel: str, lines: list[str],
                           allows: dict[int, set[str]]) -> None:
        parts = Path(rel).parts
        # src/rl/qtable.h -> RL_QTABLE; bench/bench_common.h -> BENCH_BENCH_COMMON
        scoped = parts[1:] if parts[0] == "src" else parts
        stem = "_".join(scoped)[: -len(path.suffix)] + "_"
        expected = "AER_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "H_"

        ifndef = define = None
        ifndef_line = 0
        for lineno, line in enumerate(lines, 1):
            m = re.match(r"\s*#\s*ifndef\s+(\S+)", line)
            if m and ifndef is None:
                ifndef, ifndef_line = m.group(1), lineno
                m2 = re.match(r"\s*#\s*define\s+(\S+)",
                              lines[lineno] if lineno < len(lines) else "")
                define = m2.group(1) if m2 else None
                break
        if ifndef is None:
            self.report(path, 1, "include-guard",
                        f"missing include guard (expected {expected})", allows)
        elif ifndef != expected or define != expected:
            self.report(
                path, ifndef_line, "include-guard",
                f"guard is '{ifndef}' / '#define {define}', expected "
                f"'{expected}'", allows)


def collect_files(root: Path, args: list[str]) -> list[Path]:
    if args:
        return [Path(a).resolve() for a in args]
    files = []
    for d in LINT_DIRS:
        base = root / d
        if base.is_dir():
            files.extend(p for p in sorted(base.rglob("*"))
                         if p.suffix in CPP_SUFFIXES and p.is_file())
    return files


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of tools/)")
    parser.add_argument("files", nargs="*",
                        help="specific files to lint (default: whole tree)")
    opts = parser.parse_args(argv)

    root = Path(opts.root).resolve() if opts.root else (
        Path(__file__).resolve().parent.parent)
    if not root.is_dir():
        print(f"aer_lint: root is not a directory: {root}", file=sys.stderr)
        return 2
    linter = Linter(root)
    for path in collect_files(root, opts.files):
        linter.lint_file(path)
    if not opts.files:
        linter.lint_catalog_coverage()
        linter.lint_profile_scope_coverage()

    for finding in linter.findings:
        print(finding)
    if linter.findings:
        print(f"aer_lint: {len(linter.findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
