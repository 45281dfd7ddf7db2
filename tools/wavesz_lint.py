#!/usr/bin/env python3
"""wavesz_lint: project-specific static checks for the waveSZ tree.

clang-tidy covers the generic C++ pitfalls; this tool enforces the
repo's own contracts, the ones a generic checker cannot know about:

  raw-memory        memcpy / memmove / reinterpret_cast only inside
                    util/bytes.hpp and util/float_bits.* — everything
                    else goes through the named primitives there
                    (load_le32/le64, copy_bytes, copy8, float_to_bits).
  span-names        telemetry::Span is constructed from the constants in
                    telemetry/span_names.hpp, never from a string
                    literal; a typo'd literal silently forks a span
                    series, a typo'd constant does not compile.
  metric-names      exported metric names come from the registry in
                    telemetry/metric_names.hpp (Counter/Histo enums plus
                    kMetricPrefix); a string literal starting "wavesz_"
                    anywhere else in src/ hand-rolls a series name that
                    the registry (and its exporters and lint gates)
                    cannot see.
  determinism       no rand()/srand()/time()/locale calls in src/:
                    compression output must be a pure function of input
                    bytes + config so golden files and cross-run parity
                    tests stay meaningful.
  parse-discipline  every function that constructs a ByteReader over
                    untrusted bytes must validate with WAVESZ_REQUIRE
                    (or delegate to read_header()/guarded_count()) —
                    parsing without an explicit contract check means the
                    only diagnostics come from deep inside ByteReader.
  simd-containment  x86 intrinsics (immintrin.h/emmintrin.h includes,
                    _mm* calls) and __builtin_cpu_* probes live only in
                    util/simd.* — everything else goes through the
                    runtime-dispatched kernels in util/simd.hpp, so
                    scalar/SSE2/AVX2 parity stays enforceable in one
                    place and no TU silently compiles ISA-specific code.
  omp-containment   OpenMP (#pragma omp, <omp.h>, omp_get_*/omp_set_*
                    calls, _OPENMP tests) lives only in util/fork_join.cpp
                    — every fan-out goes through its parallel_for /
                    parallel_batches, so the thread budget, the worker
                    count and failure containment are written once and a
                    build without OpenMP runs the same code.
  header-shadow     a header basename may exist in only one src/
                    subsystem: two headers both called histogram.hpp in
                    metrics/ and telemetry/ invite the wrong include and
                    defeat grep; new shadows are rejected at lint time.
  atomics-manifest  every std::atomic definition in src/, and every
                    explicit memory_order_* argument, must be covered by
                    tools/concurrency_manifest.toml: an entry names the
                    atomic's role (single-writer counter, error latch,
                    SPSC publication index, ...), its pairing (which
                    release each acquire synchronizes with, or why
                    relaxed is sound), the orderings it is allowed to
                    use, and whether relaxed read-modify-writes are
                    allowlisted for it. Unmanifested atomics, orphaned
                    manifest entries, undeclared orderings and
                    unallowlisted relaxed RMWs all fail the build.
  design-anchors    each manifest entry cites a DESIGN.md "Concurrency
                    contracts" anchor (design = "cc-...") that must
                    exist, and every cc-* anchor in DESIGN.md must be
                    cited by at least one entry — the doc and the
                    manifest cannot drift apart silently.
  header-hygiene    every header under src/ compiles as the sole
                    include of a TU (self-contained, no hidden include
                    order dependency). Needs a compiler; skipped with
                    --no-header-check.

The file list for the text passes is normally a walk of src/; pass
--compile-commands build/compile_commands.json to drive the pass from the
build's own TU list instead (headers are still walked — they have no
compile commands of their own).

Suppressions are inline and must carry a reason:

    // wavesz-lint: allow(raw-memory) iostream's read() wants char*

A suppression applies to its own line and the next code line, so it can
sit above the offending statement. An allow() without a reason is itself
an error — the reason is the review artifact.

Self-testing: every rule has should-fail and should-pass fixtures under
tools/lint_fixtures/; `wavesz_lint.py --self-test` runs the linter over
each and fails if a fail-fixture produces no finding of its rule or a
pass-fixture produces any.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

try:
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - python < 3.11
    tomllib = None

RULES = (
    "raw-memory",
    "span-names",
    "metric-names",
    "determinism",
    "parse-discipline",
    "simd-containment",
    "omp-containment",
    "header-shadow",
    "atomics-manifest",
    "design-anchors",
    "header-hygiene",
)

MANIFEST_REL = os.path.join("tools", "concurrency_manifest.toml")
DESIGN_REL = "DESIGN.md"

# Files allowed to use raw memory primitives: these ARE the named
# primitives the rest of the tree is steered toward.
RAW_MEMORY_SANCTIONED = (
    os.path.join("util", "bytes.hpp"),
    os.path.join("util", "float_bits.hpp"),
    os.path.join("util", "float_bits.cpp"),
    # The integer load/store intrinsics take __m128i*/__m256i* by API
    # design, so the SIMD layer cannot avoid reinterpret_cast; it is the
    # only other file allowed to (and is itself fenced by
    # simd-containment).
    os.path.join("util", "simd.cpp"),
)

# Files allowed to touch x86 intrinsics and cpuid probes: the runtime
# dispatch layer itself.
SIMD_SANCTIONED = (
    os.path.join("util", "simd.hpp"),
    os.path.join("util", "simd.cpp"),
)

# The one file allowed to speak OpenMP: the fork-join helper.
OMP_SANCTIONED = (
    os.path.join("util", "fork_join.cpp"),
)

SUPPRESS_RE = re.compile(
    r"wavesz-lint:\s*allow\(([a-z0-9-]+)\)\s*(\S.*)?$")

RAW_MEMORY_RE = re.compile(r"\b(?:std::)?(?:memcpy|memmove)\s*\(|"
                           r"\breinterpret_cast\s*<")

SPAN_LITERAL_RE = re.compile(r"\bSpan\s+\w+\s*\(\s*\"|\bSpan\s*\(\s*\"")

# The only file that may spell the exposition prefix in a string literal:
# the registry that defines it.
METRIC_NAMES_SANCTIONED = (
    os.path.join("telemetry", "metric_names.hpp"),
)

DETERMINISM_RE = re.compile(
    r"\b(?:std::)?(?:rand|srand|rand_r|time|localtime|localtime_r|gmtime|"
    r"gmtime_r|setlocale)\s*\(|\bstd::locale\b|\brandom_device\b")

SIMD_RE = re.compile(
    r"#\s*include\s*[<\"][a-z0-9_]*mmintrin\.h[>\"]|"
    r"#\s*include\s*[<\"]x86intrin\.h[>\"]|"
    r"__builtin_cpu_\w+|\b_mm(?:\d+)?_\w+\s*\(")

OMP_RE = re.compile(
    r"#\s*pragma\s+omp\b|#\s*include\s*<omp\.h>|"
    r"\bomp_(?:get|set)_\w+\s*\(|\b_OPENMP\b")

# Matched on the raw line: stripping blanks the quoted header name and the
# _Pragma operand.
OMP_RAW_RE = re.compile(
    r"#\s*include\s*\"omp\.h\"|\b_Pragma\s*\(\s*\"\s*omp\b")

BYTE_READER_RE = re.compile(r"\bByteReader\s+\w+\s*\(|\bByteReader\s*\(")

# Delegating to one of the shared validating parsers (read_header,
# parse_index) counts as validation: those functions own the contract.
PARSE_VALIDATION_RE = re.compile(
    r"\bWAVESZ_REQUIRE\b|\bread_header\s*\(|\bparse_index\s*\(|"
    r"\bguarded_count\s*\(|\bchecked_count\s*\(")

# ----------------------------------------------------------- atomics pass

ATOMIC_RMW_OPS = frozenset({
    "fetch_add", "fetch_sub", "fetch_and", "fetch_or", "fetch_xor",
    "exchange", "compare_exchange_weak", "compare_exchange_strong",
})

ATOMIC_OPS = frozenset(ATOMIC_RMW_OPS | {"load", "store", "wait"})

# `receiver.op(` / `receiver->op(` / `receiver[index].op(` /
# `accessor().op(`: the receiver identifier is what the manifest keys on
# (aliases cover loop variables and accessor functions). Applied to
# comment/string stripped text so macros and prose cannot fake a match.
ATOMIC_OP_RE = re.compile(
    r"(\w+)\s*(?:\(\s*\))?\s*(?:\[[^\]]*\])?\s*(?:\.|->)\s*"
    r"(load|store|fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|"
    r"exchange|compare_exchange_weak|compare_exchange_strong|wait)\s*\(")

# One std::atomic<...> occurrence; group 1 is the template argument (one
# nesting level is enough for this tree), group 2 a ref/pointer declarator
# that disqualifies it as a new atomic object.
ATOMIC_DECL_RE = re.compile(
    r"std::atomic<((?:[^<>]|<[^<>]*>)*)>\s*([&*]?)")

MEMORY_ORDER_RE = re.compile(r"\bmemory_order_(\w+)\b|"
                             r"\bmemory_order::(\w+)\b")

DESIGN_ANCHOR_RE = re.compile(r'<a\s+id="(cc-[a-z0-9-]+)"\s*>')


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line
    structure so reported line numbers stay correct."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Keep the delimiters so `Span("` stays matchable; only
                # the literal's contents are blanked.
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append('"' if quote == '"' else " ")
            else:
                out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def collect_suppressions(raw_lines: list[str], code_lines: list[str],
                         path: str,
                         findings: list[Finding]) -> dict[int, set[str]]:
    """Map 1-based line number -> rules suppressed on that line.

    A suppression covers its own line plus everything through the first
    following code line, so the comment can precede the statement it
    excuses even when the reason wraps across comment lines."""
    suppressed: dict[int, set[str]] = {}
    for idx, line in enumerate(raw_lines, start=1):
        m = SUPPRESS_RE.search(line)
        if not m:
            continue
        rule, reason = m.group(1), m.group(2)
        if rule not in RULES:
            findings.append(Finding(
                path, idx, "lint-usage",
                f"allow({rule}) names an unknown rule; known: "
                f"{', '.join(RULES)}"))
            continue
        if not reason:
            findings.append(Finding(
                path, idx, "lint-usage",
                f"allow({rule}) has no reason; suppressions must say why"))
            continue
        covered = idx
        suppressed.setdefault(covered, set()).add(rule)
        # Extend through trailing comment/blank lines to the first code
        # line after the suppression.
        while covered < len(code_lines):
            covered += 1
            suppressed.setdefault(covered, set()).add(rule)
            if covered - 1 < len(code_lines) and \
                    code_lines[covered - 1].strip():
                break
    return suppressed


def is_suppressed(suppressed: dict[int, set[str]], line: int,
                  rule: str) -> bool:
    return rule in suppressed.get(line, set())


def function_span(lines: list[str], start_idx: int) -> range:
    """Lines (0-based) from `start_idx` to the end of the enclosing
    top-level function, detected by the repo's formatting convention of
    a closing brace in column 0."""
    end = start_idx
    for j in range(start_idx, len(lines)):
        if lines[j].startswith("}"):
            end = j
            break
    else:
        end = len(lines) - 1
    # Walk backwards to the start of the function for the "validated
    # before use" scan — validation anywhere in the function counts.
    begin = start_idx
    for j in range(start_idx - 1, -1, -1):
        if lines[j].startswith("}"):
            begin = j + 1
            break
    else:
        begin = 0
    return range(begin, end + 1)


def lint_file(path: str, rel: str, findings: list[Finding]) -> None:
    with open(path, encoding="utf-8") as f:
        raw = f.read()
    raw_lines = raw.splitlines()
    code = strip_comments_and_strings(raw)
    code_lines = code.splitlines()
    suppressed = collect_suppressions(raw_lines, code_lines, rel, findings)

    in_sanctioned = any(rel.endswith(p) for p in RAW_MEMORY_SANCTIONED)
    in_simd = any(rel.endswith(p) for p in SIMD_SANCTIONED)
    in_omp = any(rel.endswith(p) for p in OMP_SANCTIONED)

    for idx, line in enumerate(code_lines, start=1):
        if not in_simd and SIMD_RE.search(line):
            if not is_suppressed(suppressed, idx, "simd-containment"):
                findings.append(Finding(
                    rel, idx, "simd-containment",
                    "x86 intrinsics / __builtin_cpu_* outside util/simd.*;"
                    " call the dispatched kernels in util/simd.hpp or add "
                    "`// wavesz-lint: allow(simd-containment) <why>`"))
        raw_line = raw_lines[idx - 1] if idx - 1 < len(raw_lines) else ""
        if not in_omp and (OMP_RE.search(line) or (
                line.strip() and OMP_RAW_RE.search(raw_line))):
            if not is_suppressed(suppressed, idx, "omp-containment"):
                findings.append(Finding(
                    rel, idx, "omp-containment",
                    "OpenMP outside util/fork_join.cpp; fan out through "
                    "util::parallel_for / parallel_batches or add "
                    "`// wavesz-lint: allow(omp-containment) <why>`"))
        if not in_sanctioned and RAW_MEMORY_RE.search(line):
            if not is_suppressed(suppressed, idx, "raw-memory"):
                findings.append(Finding(
                    rel, idx, "raw-memory",
                    "raw memcpy/memmove/reinterpret_cast outside "
                    "util/bytes.hpp / util/float_bits.*; use load_le*/"
                    "copy_bytes/float_to_bits or add "
                    "`// wavesz-lint: allow(raw-memory) <why>`"))
        if SPAN_LITERAL_RE.search(line):
            if not is_suppressed(suppressed, idx, "span-names"):
                findings.append(Finding(
                    rel, idx, "span-names",
                    "telemetry::Span constructed from a string literal; "
                    "use a telemetry::spans::k* constant from "
                    "telemetry/span_names.hpp"))
        m = DETERMINISM_RE.search(line)
        if m:
            if not is_suppressed(suppressed, idx, "determinism"):
                findings.append(Finding(
                    rel, idx, "determinism",
                    f"nondeterministic call `{m.group(0).strip()}` in "
                    "src/; compression must be a pure function of "
                    "input + config"))

    # metric-names: the stripped text blanks string *contents* (keeping the
    # delimiters), so match the literal in the raw line and use the stripped
    # line only to confirm the quote is real code (comments lose their
    # quotes entirely when stripped).
    in_metric_registry = any(rel.endswith(p) for p in METRIC_NAMES_SANCTIONED)
    if not in_metric_registry:
        for idx, raw_line in enumerate(raw_lines, start=1):
            col = raw_line.find('"wavesz_')
            if col < 0:
                continue
            stripped = code_lines[idx - 1] if idx - 1 < len(code_lines) \
                else ""
            if col >= len(stripped) or stripped[col] != '"':
                continue  # inside a comment, not a code literal
            if not is_suppressed(suppressed, idx, "metric-names"):
                findings.append(Finding(
                    rel, idx, "metric-names",
                    'string literal "wavesz_..." outside '
                    "telemetry/metric_names.hpp; exported series names "
                    "come from the Counter/Histo registry and "
                    "kMetricPrefix, or add "
                    "`// wavesz-lint: allow(metric-names) <why>`"))

    # parse-discipline: a ByteReader constructed over untrusted bytes
    # must sit in a function that states its contract explicitly.
    for idx, line in enumerate(code_lines):
        if not BYTE_READER_RE.search(line):
            continue
        if is_suppressed(suppressed, idx + 1, "parse-discipline"):
            continue
        span = function_span(code_lines, idx)
        if not any(PARSE_VALIDATION_RE.search(code_lines[j]) for j in span):
            findings.append(Finding(
                rel, idx + 1, "parse-discipline",
                "ByteReader parse entry point with no WAVESZ_REQUIRE / "
                "read_header() / guarded_count() in the enclosing "
                "function; validate lengths before indexing"))


# ------------------------------------------------------ header-shadow rule

def check_header_shadows(src_root: str, rel_prefix: str,
                         findings: list[Finding]) -> None:
    """Reject a header basename that exists in more than one src/
    subsystem directory (metrics/histogram.hpp vs telemetry/histogram.hpp
    was the motivating collision: `#include "…/histogram.hpp"` then picks
    its meaning from the include-path order in force)."""
    by_basename: dict[str, list[str]] = {}
    for dirpath, _dirnames, filenames in os.walk(src_root):
        for name in sorted(filenames):
            if not name.endswith((".hpp", ".h")):
                continue
            rel = os.path.relpath(os.path.join(dirpath, name), src_root)
            by_basename.setdefault(name, []).append(rel)
    for name, paths in sorted(by_basename.items()):
        subsystems = sorted({p.split(os.sep)[0] for p in paths})
        if len(subsystems) < 2:
            continue
        for p in sorted(paths):
            findings.append(Finding(
                os.path.join(rel_prefix, p), 1, "header-shadow",
                f"header basename `{name}` exists in multiple src/ "
                f"subsystems ({', '.join(subsystems)}); rename one — "
                "basenames must be unique across subsystems"))


# --------------------------------------------------- atomics-manifest pass

class AtomicDecl:
    def __init__(self, rel: str, line: int, name: str):
        self.rel = rel
        self.line = line
        self.name = name


class AtomicUse:
    def __init__(self, rel: str, line: int, receiver: str | None,
                 op: str | None, orders: list[str]):
        self.rel = rel
        self.line = line
        self.receiver = receiver
        self.op = op
        self.orders = orders


def scan_file_atomics(path: str, rel: str, findings: list[Finding]
                      ) -> tuple[list[AtomicDecl], list[AtomicUse],
                                 dict[int, set[str]]]:
    with open(path, encoding="utf-8") as f:
        raw = f.read()
    raw_lines = raw.splitlines()
    code = strip_comments_and_strings(raw)
    code_lines = code.splitlines()
    # Suppressions were already collected (and usage-checked) by
    # lint_file(); re-collect without re-reporting usage errors.
    sink: list[Finding] = []
    suppressed = collect_suppressions(raw_lines, code_lines, rel, sink)

    decls: list[AtomicDecl] = []
    uses: list[AtomicUse] = []

    # --- declarations: each std::atomic<...> occurrence that declares a
    # new object. References/pointers (parameters, accessor return types)
    # are uses of an object declared elsewhere; extern re-declarations,
    # using-aliases and typedefs introduce no storage.
    for dm in ATOMIC_DECL_RE.finditer(code):
        if dm.group(2):  # `std::atomic<T>&` / `std::atomic<T>*`
            continue
        stmt_start = max(code.rfind(ch, 0, dm.start())
                         for ch in (";", "{", "}")) + 1
        lead = code[stmt_start:dm.start()]
        if re.search(r"\b(extern|using|typedef)\b", lead):
            continue
        rem = code[dm.end():]
        semi = rem.find(";")
        rem = rem[:semi + 1] if semi >= 0 else rem
        # Either the declarator follows directly (`std::atomic<T> name`),
        # or the atomic is an element type inside std::array<...> and the
        # declarator follows the array's own closing `>`.
        m = re.match(r"\s*(\w+)", rem)
        if m is None:
            hits = re.findall(r">\s*(\w+)\s*[\{\(=;]", rem)
            if not hits:
                continue
            name = hits[-1]
        else:
            name = m.group(1)
        line = code.count("\n", 0, dm.start()) + 1
        decls.append(AtomicDecl(rel, line, name))

    # --- operations with explicit memory orders. Each op's window is its
    # balanced-paren argument list; an order token inside nested calls
    # (`a.store(b.load(acquire), relaxed)`) is attributed to the
    # *innermost* enclosing operation.
    ops = []  # (start_offset, args_begin, args_end, receiver, op)
    for m in ATOMIC_OP_RE.finditer(code):
        depth = 1
        j = m.end()
        while j < len(code) and depth > 0:
            if code[j] == "(":
                depth += 1
            elif code[j] == ")":
                depth -= 1
            j += 1
        ops.append((m.start(), m.end(), j, m.group(1), m.group(2)))

    attributed: dict[int, list[str]] = {i: [] for i in range(len(ops))}
    stray: list[tuple[int, str]] = []
    for om in MEMORY_ORDER_RE.finditer(code):
        order = om.group(1) or om.group(2)
        innermost = None
        for i, (_s, begin, end, _r, _o) in enumerate(ops):
            if begin <= om.start() < end:
                if innermost is None or begin > ops[innermost][1]:
                    innermost = i
        if innermost is None:
            stray.append((om.start(), order))
        else:
            attributed[innermost].append(order)

    for i, (start, _begin, _end, receiver, op) in enumerate(ops):
        orders = attributed[i]
        if not orders:
            continue
        line = code.count("\n", 0, start) + 1
        uses.append(AtomicUse(rel, line, receiver, op, orders))

    # --- stray memory_order tokens not inside a recognized operation
    # (fences, helper constants, ...): they still need a manifest story,
    # so they surface as unattributed uses.
    for offset, order in stray:
        line = code.count("\n", 0, offset) + 1
        uses.append(AtomicUse(rel, line, None, None, [order]))

    return decls, uses, suppressed


def load_manifest(manifest_path: str, findings: list[Finding]
                  ) -> list[dict] | None:
    if tomllib is None:
        findings.append(Finding(
            manifest_path, 1, "atomics-manifest",
            "python >= 3.11 (tomllib) required to parse the manifest"))
        return None
    if not os.path.isfile(manifest_path):
        findings.append(Finding(
            manifest_path, 1, "atomics-manifest",
            "tools/concurrency_manifest.toml is missing; every "
            "std::atomic in src/ must be manifested"))
        return None
    with open(manifest_path, "rb") as f:
        try:
            doc = tomllib.load(f)
        except tomllib.TOMLDecodeError as e:
            findings.append(Finding(
                manifest_path, 1, "atomics-manifest",
                f"manifest does not parse: {e}"))
            return None
    entries = doc.get("atomic", [])
    required = ("file", "name", "role", "pairing", "design")
    for n, entry in enumerate(entries, start=1):
        for key in required:
            if not entry.get(key):
                findings.append(Finding(
                    manifest_path, 1, "atomics-manifest",
                    f"entry #{n} ({entry.get('name', '?')}) is missing "
                    f"required key `{key}`"))
    return entries


def check_atomics(root: str, files: list[tuple[str, str]],
                  manifest_path: str, design_path: str,
                  findings: list[Finding]) -> None:
    """The atomics-discipline pass: scan declarations and ordered
    operations (pass 1), resolve them against the manifest (pass 2), then
    cross-check the manifest against DESIGN.md's anchors (pass 3)."""
    entries = load_manifest(manifest_path, findings)
    if entries is None:
        return
    manifest_rel = os.path.relpath(manifest_path, root)

    all_decls: list[AtomicDecl] = []
    all_uses: list[AtomicUse] = []
    suppressions: dict[str, dict[int, set[str]]] = {}
    for path, rel in files:
        decls, uses, suppressed = scan_file_atomics(path, rel, findings)
        all_decls.extend(decls)
        all_uses.extend(uses)
        suppressions[rel] = suppressed

    def suppressed_at(rel: str, line: int) -> bool:
        return is_suppressed(suppressions.get(rel, {}), line,
                             "atomics-manifest")

    by_key = {(e["file"], e["name"]): e for e in entries
              if e.get("file") and e.get("name")}

    # Pass 2a: every declaration has an entry.
    declared_keys = set()
    for d in all_decls:
        declared_keys.add((d.rel, d.name))
        if (d.rel, d.name) in by_key:
            continue
        if suppressed_at(d.rel, d.line):
            continue
        findings.append(Finding(
            d.rel, d.line, "atomics-manifest",
            f"std::atomic `{d.name}` has no entry in "
            f"{manifest_rel}; add one naming its role and pairing"))

    # Pass 2b: no orphaned entries.
    for e in entries:
        key = (e.get("file"), e.get("name"))
        if key[0] is None or key[1] is None:
            continue
        if key not in declared_keys:
            findings.append(Finding(
                manifest_rel, 1, "atomics-manifest",
                f"orphaned entry: no std::atomic named `{key[1]}` is "
                f"declared in `{key[0]}` — remove or update the entry"))

    # Pass 2c: ordered operations resolve to an entry that allows them.
    def resolve(use: AtomicUse) -> dict | None:
        cands = [e for e in entries
                 if use.receiver == e.get("name")
                 or use.receiver in e.get("aliases", [])]
        same_file = [e for e in cands if e.get("file") == use.rel]
        if len(same_file) == 1:
            return same_file[0]
        listed = [e for e in cands if use.rel in e.get("uses_in", [])]
        if len(listed) == 1:
            return listed[0]
        if len(cands) == 1:
            return cands[0]
        return None

    for use in all_uses:
        if suppressed_at(use.rel, use.line):
            continue
        if use.receiver is None:
            findings.append(Finding(
                use.rel, use.line, "atomics-manifest",
                "memory_order_* outside a recognized atomic member "
                "operation; attach it to a manifested atomic or add "
                "`// wavesz-lint: allow(atomics-manifest) <why>`"))
            continue
        entry = resolve(use)
        if entry is None:
            findings.append(Finding(
                use.rel, use.line, "atomics-manifest",
                f"`{use.receiver}.{use.op}` uses an explicit memory "
                f"order but resolves to no manifest entry (by name, "
                f"alias, file or uses_in)"))
            continue
        allowed = entry.get("orders", [])
        for order in use.orders:
            if order not in allowed:
                findings.append(Finding(
                    use.rel, use.line, "atomics-manifest",
                    f"`{use.receiver}.{use.op}` uses memory_order_"
                    f"{order}, but the manifest entry for "
                    f"`{entry['name']}` only allows "
                    f"[{', '.join(allowed) or 'none'}]"))
        if use.op in ATOMIC_RMW_OPS and "relaxed" in use.orders \
                and not entry.get("relaxed_rmw", False):
            findings.append(Finding(
                use.rel, use.line, "atomics-manifest",
                f"relaxed read-modify-write `{use.receiver}.{use.op}` "
                f"is not allowlisted: set `relaxed_rmw = true` on the "
                f"manifest entry with a justification in `pairing`"))

    # Pass 3: manifest <-> DESIGN.md anchors, both directions.
    if not os.path.isfile(design_path):
        findings.append(Finding(
            os.path.relpath(design_path, root), 1, "design-anchors",
            "DESIGN.md missing; the manifest cites anchors in it"))
        return
    with open(design_path, encoding="utf-8") as f:
        design_text = f.read()
    anchors = set(DESIGN_ANCHOR_RE.findall(design_text))
    design_rel = os.path.relpath(design_path, root)
    cited = set()
    for e in entries:
        design = e.get("design")
        if not design:
            continue
        cited.add(design)
        if design not in anchors:
            findings.append(Finding(
                manifest_rel, 1, "design-anchors",
                f"entry `{e.get('name')}` cites DESIGN.md anchor "
                f"`{design}` which does not exist; add "
                f'`<a id="{design}"></a>` to the Concurrency contracts '
                "section or fix the reference"))
    for anchor in sorted(anchors - cited):
        findings.append(Finding(
            design_rel, 1, "design-anchors",
            f"DESIGN.md anchor `{anchor}` is cited by no manifest "
            "entry; the doc and the manifest may have drifted"))


# ------------------------------------------------------------ file listing

def walk_sources(src_root: str, root: str) -> list[tuple[str, str]]:
    files = []
    for dirpath, _dirnames, filenames in os.walk(src_root):
        for name in sorted(filenames):
            if not name.endswith((".cpp", ".hpp")):
                continue
            path = os.path.join(dirpath, name)
            files.append((path, os.path.relpath(path, root)))
    return files


def sources_from_compile_commands(cc_path: str, src_root: str, root: str,
                                  findings: list[Finding]
                                  ) -> list[tuple[str, str]] | None:
    """TU list from the build's compilation database, plus every header
    under src/ (headers have no compile command of their own)."""
    try:
        with open(cc_path, encoding="utf-8") as f:
            db = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        findings.append(Finding(
            cc_path, 1, "lint-usage",
            f"cannot read compile_commands.json: {e}"))
        return None
    files: dict[str, str] = {}
    src_prefix = os.path.abspath(src_root) + os.sep
    for entry in db:
        path = os.path.abspath(
            os.path.join(entry.get("directory", "."), entry["file"]))
        if not path.startswith(src_prefix):
            continue
        if not path.endswith((".cpp", ".hpp")):
            continue
        files[path] = os.path.relpath(path, root)
    for dirpath, _dirnames, filenames in os.walk(src_root):
        for name in sorted(filenames):
            if name.endswith(".hpp"):
                path = os.path.abspath(os.path.join(dirpath, name))
                files[path] = os.path.relpath(path, root)
    return sorted(files.items())


# ---------------------------------------------------------- header hygiene

def check_headers(src_root: str, cxx: str, extra_flags: list[str],
                  findings: list[Finding]) -> None:
    headers = []
    for dirpath, _dirnames, filenames in os.walk(src_root):
        for name in sorted(filenames):
            if name.endswith(".hpp"):
                headers.append(os.path.join(dirpath, name))
    headers.sort()
    with tempfile.TemporaryDirectory(prefix="wavesz_lint_") as tmp:
        for header in headers:
            rel = os.path.relpath(header, src_root)
            tu = os.path.join(tmp, "tu.cpp")
            with open(tu, "w", encoding="utf-8") as f:
                f.write(f'#include "{rel}"\n')
            cmd = [cxx, "-std=c++20", f"-I{src_root}", "-fsyntax-only",
                   *extra_flags, tu]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                first_error = next(
                    (ln for ln in proc.stderr.splitlines() if "error" in ln),
                    proc.stderr.strip().splitlines()[-1]
                    if proc.stderr.strip() else "compiler failed")
                findings.append(Finding(
                    os.path.join("src", rel), 1, "header-hygiene",
                    f"not self-contained as the sole include of a TU: "
                    f"{first_error}"))


# -------------------------------------------------------------- self-test

def run_self_test(root: str) -> int:
    """Run every fixture under tools/lint_fixtures/: fail* fixtures must
    produce at least one finding of their rule, pass* fixtures none."""
    fixtures_root = os.path.join(root, "tools", "lint_fixtures")
    if not os.path.isdir(fixtures_root):
        print(f"wavesz_lint: no fixtures at {fixtures_root}",
              file=sys.stderr)
        return 2
    failures: list[str] = []
    checked = 0

    def expect(rule: str, fixture: str, findings: list[Finding],
               want_findings: bool) -> None:
        nonlocal checked
        checked += 1
        hits = [f for f in findings if f.rule == rule]
        if want_findings and not hits:
            failures.append(
                f"{fixture}: expected a [{rule}] finding, got none "
                f"(all findings: {[str(f) for f in findings]})")
        if not want_findings:
            # A pass fixture must be clean overall, not just for its own
            # rule — collateral findings would poison real runs too.
            if findings:
                failures.append(
                    f"{fixture}: expected clean, got "
                    f"{[str(f) for f in findings]}")

    for rule in sorted(os.listdir(fixtures_root)):
        rule_dir = os.path.join(fixtures_root, rule)
        if not os.path.isdir(rule_dir):
            continue
        for case in sorted(os.listdir(rule_dir)):
            case_path = os.path.join(rule_dir, case)
            want = case.startswith("fail")
            label = f"{rule}/{case}"
            findings: list[Finding] = []
            if os.path.isfile(case_path):
                # Single-file fixture: linted as if it sat at
                # src/fixture/<name> (never inside a sanctioned path).
                lint_file(case_path,
                          os.path.join("src", "fixture", case), findings)
                expect(rule, label, findings, want)
            elif rule == "header-shadow":
                check_header_shadows(os.path.join(case_path, "src"),
                                     "src", findings)
                expect(rule, label, findings, want)
            elif rule in ("atomics-manifest", "design-anchors"):
                files = walk_sources(os.path.join(case_path, "src"),
                                     case_path)
                check_atomics(case_path, files,
                              os.path.join(case_path, "manifest.toml"),
                              os.path.join(case_path, "DESIGN.md"),
                              findings)
                expect(rule, label, findings, want)
            else:
                failures.append(f"{label}: unhandled directory fixture")

    for line in failures:
        print(f"self-test: {line}")
    if failures:
        print(f"wavesz_lint --self-test: {len(failures)} failure(s) over "
              f"{checked} fixtures", file=sys.stderr)
        return 1
    print(f"wavesz_lint --self-test: {checked} fixtures ok")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--no-header-check", action="store_true",
                        help="skip the compile-based header-hygiene rule")
    parser.add_argument("--check-atomics", action="store_true",
                        help="run only the atomics-manifest / "
                             "design-anchors passes")
    parser.add_argument("--compile-commands", default="",
                        help="drive the pass from this "
                             "compile_commands.json instead of walking "
                             "src/ (headers are still walked)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the lint_fixtures suite and exit")
    parser.add_argument("--manifest", default="",
                        help=f"concurrency manifest path (default: "
                             f"<root>/{MANIFEST_REL})")
    parser.add_argument("--design", default="",
                        help=f"design doc with cc-* anchors (default: "
                             f"<root>/{DESIGN_REL})")
    parser.add_argument("--cxx", default=os.environ.get("CXX", ""),
                        help="compiler for header-hygiene "
                             "(default: $CXX, else g++/clang++)")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    if args.self_test:
        return run_self_test(root)

    src_root = os.path.join(root, "src")
    if not os.path.isdir(src_root):
        print(f"wavesz_lint: no src/ under {root}", file=sys.stderr)
        return 2

    findings: list[Finding] = []
    if args.compile_commands:
        files = sources_from_compile_commands(
            args.compile_commands, src_root, root, findings)
        if files is None:
            return 2
    else:
        files = walk_sources(src_root, root)

    if not args.check_atomics:
        for path, rel in files:
            lint_file(path, rel, findings)
        check_header_shadows(src_root, "src", findings)

    manifest = args.manifest or os.path.join(root, MANIFEST_REL)
    design = args.design or os.path.join(root, DESIGN_REL)
    check_atomics(root, files, manifest, design, findings)

    if not args.check_atomics and not args.no_header_check:
        cxx = args.cxx
        if not cxx:
            cxx = shutil.which("g++") or shutil.which("clang++") or ""
        if not cxx:
            print("wavesz_lint: no compiler found for header-hygiene; "
                  "pass --cxx or --no-header-check", file=sys.stderr)
            return 2
        check_headers(src_root, cxx, [], findings)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f)
    if findings:
        print(f"wavesz_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("wavesz_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
