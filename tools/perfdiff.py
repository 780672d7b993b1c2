#!/usr/bin/env python3
"""Compare BENCH_perf.json perf ledgers against a checked-in baseline.

Usage:
    perfdiff.py BASELINE CURRENT [--wall-warn-pct 25] [--strict]
                [--tolerances FILE]

BASELINE and CURRENT are files or directories; directories are scanned
for BENCH_perf.*.json and ledgers are matched by their "bench" field.
For every bench present on both sides the script prints a per-phase
delta table (wall seconds, per-thread CPU seconds, entry counts) and a
counter delta table.

The comparison is warn-only by default: wall-clock time depends on the
host, so CI treats regressions as a signal to read, not a gate
(--strict turns warnings into a non-zero exit for local bisecting).
Counters, by contrast, are deterministic for a fixed budget — a
counter delta on an unchanged budget means the workload itself
changed, which is exactly what a silent perf regression looks like.

Per-bench and per-phase tolerances come from a checked-in config
(--tolerances FILE, or perfdiff_tolerances.json inside the baseline
directory when present), schema emstress-perfdiff-tolerances-v1:

    {
      "schema": "emstress-perfdiff-tolerances-v1",
      "default_wall_warn_pct": 25.0,
      "default_wall_fail_pct": 200.0,
      "benches": {
        "perf_kernels": {
          "fail_on_regression": true,
          "wall_fail_pct": 200.0,
          "phases": {"platform.stream": {"wall_warn_pct": 40.0}}
        }
      }
    }

Threshold resolution is most-specific-wins: phase override, then
bench, then config default, then the command line. A bench marked
fail_on_regression turns its wall regressions beyond wall_fail_pct —
and its same-budget counter changes — into FAILURES that exit
non-zero even without --strict. The checked-in config marks the
kernel microbenchmarks (perf_kernels) that way, but no perf_kernels
baseline ledger is checked in and CI runs bench_perf_kernels only as a
smoke test, so no bench gates CI on wall time today.

Writes the same report as Markdown to $GITHUB_STEP_SUMMARY when set.
Standard library only.
"""

import argparse
import glob
import json
import os
import sys

TOLERANCES_SCHEMA = "emstress-perfdiff-tolerances-v1"
TOLERANCES_BASENAME = "perfdiff_tolerances.json"


def load_ledgers(path):
    """Map bench name -> parsed ledger for a file or directory."""
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "BENCH_perf.*.json")))
    else:
        files = [path]
    ledgers = {}
    for f in files:
        try:
            with open(f, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            print(f"warning: skipping unreadable ledger {f}: {err}",
                  file=sys.stderr)
            continue
        if data.get("schema") != "emstress-bench-perf-v1":
            print(f"warning: {f} is not an emstress-bench-perf-v1 ledger",
                  file=sys.stderr)
            continue
        ledgers[data.get("bench", os.path.basename(f))] = data
    return ledgers


def load_tolerances(path):
    """Parse a tolerance config; a bad config is a hard error (a
    silently-ignored gate is worse than no gate)."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("schema") != TOLERANCES_SCHEMA:
        raise ValueError(
            f"{path}: expected schema {TOLERANCES_SCHEMA!r}, "
            f"got {data.get('schema')!r}")
    return data


class Tolerances:
    """Threshold resolution: phase override -> bench -> config default
    -> CLI value."""

    def __init__(self, config, cli_wall_warn_pct):
        self.config = config or {}
        self.cli_wall_warn_pct = cli_wall_warn_pct

    def _bench(self, bench):
        return self.config.get("benches", {}).get(bench, {})

    def _phase(self, bench, phase):
        return self._bench(bench).get("phases", {}).get(phase, {})

    def wall_warn_pct(self, bench, phase):
        for scope in (self._phase(bench, phase), self._bench(bench),
                      {"wall_warn_pct":
                       self.config.get("default_wall_warn_pct")}):
            if scope.get("wall_warn_pct") is not None:
                return float(scope["wall_warn_pct"])
        return self.cli_wall_warn_pct

    def wall_fail_pct(self, bench, phase):
        for scope in (self._phase(bench, phase), self._bench(bench),
                      {"wall_fail_pct":
                       self.config.get("default_wall_fail_pct")}):
            if scope.get("wall_fail_pct") is not None:
                return float(scope["wall_fail_pct"])
        return 200.0

    def fail_on_regression(self, bench):
        return bool(self._bench(bench).get("fail_on_regression", False))


def fmt_delta_pct(base, cur):
    if base == 0:
        return "n/a" if cur == 0 else "new"
    return f"{100.0 * (cur - base) / base:+.1f}%"


def markdown_table(header, rows):
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    lines += ["| " + " | ".join(str(c) for c in row) + " |"
              for row in rows]
    return "\n".join(lines)


def diff_bench(name, base, cur, tol):
    """Return (markdown report, warning list, failure list)."""
    out = [f"### {name} ({base.get('mode', '?')} vs "
           f"{cur.get('mode', '?')}, threads "
           f"{base.get('threads', '?')} -> {cur.get('threads', '?')})"]
    warnings = []
    failures = []
    gate = tol.fail_on_regression(name)

    phase_rows = []
    names = sorted(set(base.get("phases", {})) | set(cur.get("phases", {})))
    for phase in names:
        # A phase absent from one ledger (instrumentation added or
        # removed between revisions) is annotated, never warned on:
        # there is no meaningful wall-time delta against nothing.
        in_base = phase in base.get("phases", {})
        in_cur = phase in cur.get("phases", {})
        b = base.get("phases", {}).get(phase, {})
        c = cur.get("phases", {}).get(phase, {})
        b_wall = b.get("wall_s", 0.0)
        c_wall = c.get("wall_s", 0.0)
        if not in_base:
            pct = "(new)"
        elif not in_cur:
            pct = "(removed)"
        else:
            pct = fmt_delta_pct(b_wall, c_wall)
        phase_rows.append((phase,
                           f"{b_wall:.4f}" if in_base else "-",
                           f"{c_wall:.4f}" if in_cur else "-", pct,
                           f"{b.get('cpu_s', 0.0):.4f}" if in_base else "-",
                           f"{c.get('cpu_s', 0.0):.4f}" if in_cur else "-",
                           b.get("count", 0) if in_base else "-",
                           c.get("count", 0) if in_cur else "-"))
        if not (in_base and in_cur and b_wall > 0):
            continue
        warn_pct = tol.wall_warn_pct(name, phase)
        fail_pct = tol.wall_fail_pct(name, phase)
        if gate and c_wall > b_wall * (1 + fail_pct / 100.0):
            failures.append(
                f"{name}: phase '{phase}' wall time {b_wall:.4f}s -> "
                f"{c_wall:.4f}s ({pct}) exceeds the {fail_pct:.0f}% "
                f"fail tolerance")
        elif c_wall > b_wall * (1 + warn_pct / 100.0):
            warnings.append(
                f"{name}: phase '{phase}' wall time {b_wall:.4f}s -> "
                f"{c_wall:.4f}s ({pct})")
    if phase_rows:
        out.append(markdown_table(
            ("phase", "base wall_s", "cur wall_s", "delta",
             "base cpu_s", "cur cpu_s", "base n", "cur n"),
            phase_rows))
    else:
        out.append("_no phases recorded_")

    counter_rows = []
    names = sorted(set(base.get("counters", {}))
                   | set(cur.get("counters", {})))
    same_budget = base.get("mode") == cur.get("mode")
    for counter in names:
        # Distinguish a counter absent from a ledger (instrumentation
        # that didn't exist in that revision, e.g. state_updates vs
        # lu_solves after a solver-path change) from a recorded zero.
        # Only counters present on BOTH sides can signal a workload
        # change; one-sided counters are listed but never warned on.
        in_base = counter in base.get("counters", {})
        in_cur = counter in cur.get("counters", {})
        b = base.get("counters", {}).get(counter, 0)
        c = cur.get("counters", {}).get(counter, 0)
        if in_base and in_cur and b == c:
            continue
        if not in_base:
            delta = "(new)"
        elif not in_cur:
            delta = "(removed)"
        else:
            delta = fmt_delta_pct(b, c)
        counter_rows.append((counter,
                             b if in_base else "-",
                             c if in_cur else "-", delta))
        # Per-worker task splits depend on scheduling; everything else
        # is deterministic for a fixed budget.
        if in_base and in_cur and same_budget \
                and ".worker." not in counter:
            msg = (f"{name}: counter '{counter}' changed {b} -> {c} "
                   f"under the same budget (workload changed?)")
            (failures if gate else warnings).append(msg)
    if counter_rows:
        out.append("")
        out.append(markdown_table(
            ("counter", "base", "current", "delta"), counter_rows))
    else:
        out.append("")
        out.append("_all counters identical_")
    return "\n".join(out), warnings, failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="baseline ledger file or directory")
    ap.add_argument("current", help="current ledger file or directory")
    ap.add_argument("--wall-warn-pct", type=float, default=25.0,
                    help="warn when a phase's wall time regresses by "
                         "more than this percentage (default 25; "
                         "tolerance-config values take precedence)")
    ap.add_argument("--tolerances", metavar="FILE",
                    help="per-bench/per-phase tolerance config "
                         f"({TOLERANCES_SCHEMA}); defaults to "
                         f"{TOLERANCES_BASENAME} inside the baseline "
                         "directory when present")
    ap.add_argument("--strict", action="store_true",
                    help="exit non-zero when any warning fires "
                         "(failures from fail_on_regression benches "
                         "always exit non-zero)")
    args = ap.parse_args()

    tol_path = args.tolerances
    if tol_path is None and os.path.isdir(args.baseline):
        candidate = os.path.join(args.baseline, TOLERANCES_BASENAME)
        if os.path.exists(candidate):
            tol_path = candidate
    tol_config = None
    if tol_path is not None:
        try:
            tol_config = load_tolerances(tol_path)
        except (OSError, json.JSONDecodeError, ValueError) as err:
            print(f"error: bad tolerance config: {err}", file=sys.stderr)
            return 2
    tol = Tolerances(tol_config, args.wall_warn_pct)

    base = load_ledgers(args.baseline)
    cur = load_ledgers(args.current)

    sections = ["## Perf diff (BENCH_perf.json)"]
    if tol_path:
        sections.append(f"_tolerances: {tol_path}_")
    warnings = []
    failures = []
    shared = sorted(set(base) & set(cur))
    if not shared:
        sections.append("_no benches present on both sides_")
    for name in shared:
        report, warns, fails = diff_bench(name, base[name], cur[name],
                                          tol)
        sections.append(report)
        warnings.extend(warns)
        failures.extend(fails)
    for name in sorted(set(cur) - set(base)):
        sections.append(f"### {name}\n_new bench (no baseline)_")
    for name in sorted(set(base) - set(cur)):
        sections.append(f"### {name}\n_missing from current run_")

    if failures:
        sections.append("### FAILURES")
        sections.append("\n".join(f"- {f}" for f in failures))
    if warnings:
        sections.append("### Warnings")
        sections.append("\n".join(f"- {w}" for w in warnings))

    report = "\n\n".join(sections) + "\n"
    print(report)

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as fh:
            fh.write(report)

    if failures:
        print(f"{len(failures)} failure(s) from fail_on_regression "
              "benches; failing", file=sys.stderr)
        return 1
    if warnings:
        print(f"{len(warnings)} warning(s); "
              + ("failing (--strict)" if args.strict
                 else "informational only"),
              file=sys.stderr)
        if args.strict:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
