#!/usr/bin/env python3
"""Perf-regression gate: diff a fresh bench --json dump against a baseline.

Usage:
  bench_compare.py --baseline BENCH_x.json --fresh fresh.json [options]
  bench_compare.py --validate file.json [file.json ...]
  bench_compare.py --self-test

Works against every BENCH_*.json schema in this repo without per-bench
configuration: any top-level field holding a list of objects is treated as a
row table, rows are matched across files by their identity fields (every
string-valued field, such as `input` or `level` in BENCH_deflate.json, plus
well-known integer parameters like `threads` and `chunk_bytes`), and the
remaining shared fields are compared as metrics.

Metric policy, by field name:
  * throughput / speedup / quality (contains "mbps", "speedup", or "psnr",
    or named "ipc"): higher is better; regression when the fresh value
    drops more than --tol-speed below baseline. Demoted to warnings under
    --warn-speed (for CI runners whose absolute speed differs from the
    machine that produced the committed baseline).
  * sizes and deltas (contains "bytes", "ratio_delta", or "pct"): lower is
    better; regression when the fresh value grows more than --tol-size.
  * compression ratio (contains "ratio"): higher is better with --tol-ratio.
  * booleans (roundtrip_ok, bound_ok, identical, bit_exact, ...): hard
    gate — regression whenever baseline true becomes fresh false.
  * cross-codec quotients (ending in "_vs_entropy", such as SZx's
    compress_speedup_vs_entropy): informational only. They divide one
    codec's speed by another's, so a faster entropy pipeline would read as
    an SZx regression; each codec's own mbps columns gate instead.
  * anything else (counts, parameters that slipped past key detection):
    informational only.

A baseline row with no matching fresh row is a coverage regression; extra
fresh rows are informational. Exit status: 0 clean, 1 regression, 2 usage
or malformed input.
"""

import argparse
import json
import math
import sys

# Integer-valued fields that parameterize a row rather than measure it.
KEY_INT_FIELDS = {"threads", "chunk_bytes", "quant_bits", "level"}

# Top-level scalar fields that describe the run environment, never compared.
IGNORED_SCALARS = {
    "bench", "version", "fixture", "repeat", "full", "scale_override",
    "hardware_threads", "input_bytes", "simd_detected",
}


def row_key(row):
    parts = []
    for name in sorted(row):
        value = row[name]
        if isinstance(value, str) or (
            not isinstance(value, bool)
            and isinstance(value, int)
            and name in KEY_INT_FIELDS
        ):
            parts.append((name, value))
    return tuple(parts)


def classify(name):
    lowered = name.lower()
    if lowered.endswith("_vs_entropy"):
        return "info"
    if any(tag in lowered for tag in ("mbps", "speedup", "psnr")) or \
            lowered == "ipc" or lowered.startswith("ipc_"):
        return "higher"
    if any(tag in lowered for tag in ("bytes", "ratio_delta", "pct", "mpki")):
        return "lower"
    if "ratio" in lowered:
        return "ratio"
    return "info"


def fmt_key(key):
    return ", ".join(f"{name}={value}" for name, value in key) or "(row)"


class Comparison:
    def __init__(self, args):
        self.args = args
        self.failures = []
        self.warnings = []
        self.infos = []

    def fail(self, message, speed=False):
        if speed and self.args.warn_speed:
            self.warnings.append(message + " [--warn-speed: not gating]")
        else:
            self.failures.append(message)

    def compare_rows(self, table, key, base_row, fresh_row):
        where = f"{table}[{fmt_key(key)}]"
        for name in sorted(set(base_row) & set(fresh_row)):
            base, fresh = base_row[name], fresh_row[name]
            if isinstance(base, bool) or isinstance(fresh, bool):
                if base is True and fresh is not True:
                    self.fail(f"{where}.{name}: was true, now {fresh!r}")
                continue
            if not isinstance(base, (int, float)) or \
                    not isinstance(fresh, (int, float)):
                continue
            kind = classify(name)
            if kind == "higher" or kind == "ratio":
                tol = (self.args.tol_ratio if kind == "ratio"
                       else self.args.tol_speed)
                if base > 0 and fresh < base * (1.0 - tol):
                    drop = 100.0 * (1.0 - fresh / base)
                    self.fail(
                        f"{where}.{name}: {base:g} -> {fresh:g} "
                        f"(-{drop:.1f}%, tolerance {100 * tol:.0f}%)",
                        speed=(kind == "higher"))
            elif kind == "lower":
                if base > 0 and fresh > base * (1.0 + self.args.tol_size):
                    grow = 100.0 * (fresh / base - 1.0)
                    self.fail(
                        f"{where}.{name}: {base:g} -> {fresh:g} "
                        f"(+{grow:.1f}%, tolerance "
                        f"{100 * self.args.tol_size:.0f}%)")
            else:
                if base != fresh:
                    self.infos.append(
                        f"{where}.{name}: {base!r} -> {fresh!r} (info)")

    def compare(self, baseline, fresh):
        base_tables = {k: v for k, v in baseline.items()
                       if isinstance(v, list)}
        fresh_tables = {k: v for k, v in fresh.items() if isinstance(v, list)}
        if not base_tables:
            self.failures.append("baseline contains no row tables")
            return
        for table, base_rows in sorted(base_tables.items()):
            if table not in fresh_tables:
                self.fail(f"{table}: row table missing from fresh run")
                continue
            fresh_by_key = {}
            for row in fresh_tables[table]:
                if isinstance(row, dict):
                    fresh_by_key[row_key(row)] = row
            for row in base_rows:
                if not isinstance(row, dict):
                    continue
                key = row_key(row)
                if key not in fresh_by_key:
                    self.fail(f"{table}[{fmt_key(key)}]: "
                              "row missing from fresh run")
                    continue
                self.compare_rows(table, key, row, fresh_by_key.pop(key))
            for key in fresh_by_key:
                self.infos.append(f"{table}[{fmt_key(key)}]: "
                                  "new row, not in baseline (info)")

    def report(self):
        for message in self.infos:
            print(f"  note: {message}")
        for message in self.warnings:
            print(f"  WARN: {message}")
        for message in self.failures:
            print(f"  FAIL: {message}")
        if self.failures:
            print(f"bench_compare: {len(self.failures)} regression(s)")
            return 1
        print("bench_compare: OK"
              + (f" ({len(self.warnings)} warning(s))"
                 if self.warnings else ""))
        return 0


def validate_file(path):
    """Schema check: row tables of flat objects with finite numeric values."""
    errors = []
    try:
        with open(path, "r", encoding="utf-8") as stream:
            doc = json.load(stream)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable: {exc}"]
    if not isinstance(doc, dict):
        return [f"{path}: top level must be an object"]
    tables = {k: v for k, v in doc.items() if isinstance(v, list)}
    if not tables:
        errors.append(f"{path}: no row tables (list-valued fields) found")
    for table, rows in tables.items():
        seen = set()
        for i, row in enumerate(rows):
            where = f"{path}:{table}[{i}]"
            if not isinstance(row, dict):
                errors.append(f"{where}: row is not an object")
                continue
            for name, value in row.items():
                if isinstance(value, float) and not math.isfinite(value):
                    errors.append(f"{where}.{name}: non-finite value")
                elif not isinstance(value, (str, bool, int, float)):
                    errors.append(f"{where}.{name}: nested value "
                                  f"({type(value).__name__}) not allowed")
            key = row_key(row)
            if key in seen:
                errors.append(f"{where}: duplicate row key {fmt_key(key)}")
            seen.add(key)
    return errors


def self_test():
    """Synthetic regression drill: a 20% throughput drop must gate."""
    baseline = {
        "results": [
            {"shape": "512x512", "codec": "szx", "threads": 2,
             "compress_mbps": 100.0, "ratio": 4.0, "out_bytes": 1000,
             "bound_ok": True},
            {"shape": "512x512", "codec": "wave", "threads": 2,
             "compress_mbps": 50.0, "ratio": 30.0, "out_bytes": 500,
             "bound_ok": True},
        ],
    }

    def run(fresh, **kwargs):
        args = argparse.Namespace(tol_speed=0.15, tol_ratio=0.02,
                                  tol_size=0.02, warn_speed=False, **kwargs)
        cmp_ = Comparison(args)
        cmp_.compare(baseline, fresh)
        return cmp_

    identical = run(json.loads(json.dumps(baseline)))
    assert not identical.failures, identical.failures

    regressed = json.loads(json.dumps(baseline))
    regressed["results"][0]["compress_mbps"] = 80.0  # -20% > 15% band
    drop = run(regressed)
    assert len(drop.failures) == 1, drop.failures

    warned = Comparison(argparse.Namespace(
        tol_speed=0.15, tol_ratio=0.02, tol_size=0.02, warn_speed=True))
    warned.compare(baseline, regressed)
    assert not warned.failures and len(warned.warnings) == 1, \
        (warned.failures, warned.warnings)

    wobble = json.loads(json.dumps(baseline))
    wobble["results"][0]["compress_mbps"] = 90.0  # -10% < 15% band
    assert not run(wobble).failures

    broken = json.loads(json.dumps(baseline))
    broken["results"][1]["bound_ok"] = False
    bools = run(broken)
    assert len(bools.failures) == 1 and "bound_ok" in bools.failures[0]

    bloated = json.loads(json.dumps(baseline))
    bloated["results"][0]["out_bytes"] = 1100  # +10% > 2% size band
    assert len(run(bloated).failures) == 1

    missing = {"results": [baseline["results"][0]]}
    assert len(run(missing).failures) == 1  # dropped row gates

    # Rows that differ only in a string field are distinct rows: a size
    # regression on one input gates although the other input's row, with
    # the same parameters, is clean.
    inputs = {"results": [
        {"input": name, "level": "fast", "threads": 1,
         "compressed_bytes": size}
        for name, size in (("huffman", 1000), ("raw_u16", 300))]}
    grown = json.loads(json.dumps(inputs))
    grown["results"][1]["compressed_bytes"] = 330
    per_input = Comparison(argparse.Namespace(
        tol_speed=0.15, tol_ratio=0.02, tol_size=0.02, warn_speed=False))
    per_input.compare(inputs, grown)
    assert len(per_input.failures) == 1 and \
        "input=raw_u16" in per_input.failures[0], per_input.failures

    # SZx's *_vs_entropy columns divide its speed by the entropy
    # pipeline's: a faster entropy row halves the quotient, yet SZx itself
    # did not slow down, so only the entropy row's own columns move.
    szx = {"results": [
        {"shape": "64x256x256", "codec": "entropy_fast",
         "compress_mbps": 120.0},
        {"shape": "64x256x256", "codec": "szx", "compress_mbps": 680.0,
         "compress_speedup_vs_entropy": 5.667}]}
    faster = json.loads(json.dumps(szx))
    faster["results"][0]["compress_mbps"] = 240.0
    faster["results"][1]["compress_speedup_vs_entropy"] = 2.833
    quotient = Comparison(argparse.Namespace(
        tol_speed=0.15, tol_ratio=0.02, tol_size=0.02, warn_speed=False))
    quotient.compare(szx, faster)
    assert not quotient.failures and not quotient.warnings, \
        (quotient.failures, quotient.warnings)
    assert any("compress_speedup_vs_entropy" in m for m in quotient.infos)

    print("bench_compare: self-test OK")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", help="committed BENCH_*.json")
    parser.add_argument("--fresh", help="freshly produced bench --json dump")
    parser.add_argument("--validate", nargs="+", metavar="FILE",
                        help="only schema-check the given JSON files")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in synthetic regression drill")
    parser.add_argument("--tol-speed", type=float, default=0.15,
                        help="allowed fractional drop in throughput/speedup "
                             "metrics (default 0.15)")
    parser.add_argument("--tol-ratio", type=float, default=0.02,
                        help="allowed fractional drop in compression ratios "
                             "(default 0.02)")
    parser.add_argument("--tol-size", type=float, default=0.02,
                        help="allowed fractional growth in byte sizes "
                             "(default 0.02)")
    parser.add_argument("--warn-speed", action="store_true",
                        help="report throughput regressions as warnings "
                             "only (cross-machine comparisons)")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if args.validate:
        errors = []
        for path in args.validate:
            errors.extend(validate_file(path))
        for message in errors:
            print(f"  FAIL: {message}")
        print(f"bench_compare: validate "
              f"{'FAILED' if errors else 'OK'} "
              f"({len(args.validate)} file(s))")
        return 2 if errors else 0
    if not args.baseline or not args.fresh:
        parser.error("--baseline and --fresh are required "
                     "(or use --validate / --self-test)")

    for path in (args.baseline, args.fresh):
        errors = validate_file(path)
        if errors:
            for message in errors:
                print(f"  FAIL: {message}")
            return 2

    with open(args.baseline, "r", encoding="utf-8") as stream:
        baseline = json.load(stream)
    with open(args.fresh, "r", encoding="utf-8") as stream:
        fresh = json.load(stream)
    print(f"bench_compare: {args.fresh} vs baseline {args.baseline}")
    comparison = Comparison(args)
    comparison.compare(baseline, fresh)
    return comparison.report()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
