"""Compare two ``run.py`` reports, workload by workload.

    python benchmarks/e2e/compare.py A.json B.json [--agree]

For every (workload, end-to-end metric) it prints both medians, both
IQRs (as a share of the median), the change from A to B and a verdict
against the metric's bound in BENCHMARK.json:

* ``unresolved`` -- either side's IQR exceeds the bound, so the runs
  cannot tell a change from noise (unless every B run beats every A
  run, which reads ``better``);
* ``worse`` / ``better`` -- the medians differ by more than the bound;
* ``within bound`` -- otherwise.

The exact metrics (``sim_records``, ``ops_failed_frac``) and each
workload's ``result_digest`` must match exactly.  With ``--agree`` (two
runs of the same code) the exit status is 1 when any metric reads
``worse`` or ``better``, or anything exact differs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
EXACT = ("sim_records", "ops_failed_frac")


def spread(stat: dict) -> float:
    """IQR as a share of the median."""
    return (stat["q3"] - stat["q1"]) / abs(stat["median"]) \
        if stat["median"] else 0.0


def verdict(a: dict, b: dict, bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    if max(spread(a), spread(b)) > bound:
        beats = all(sign * (vb - va) < 0
                    for va in a["values"] for vb in b["values"])
        return "better" if beats else "unresolved"
    worse = sign * (b["median"] - a["median"]) / abs(a["median"])
    if worse > bound:
        return "worse"
    if worse < -bound:
        return "better"
    return "within bound"


def compare(a: dict, b: dict, bench: dict) -> "tuple[List[str], bool]":
    """Rendered lines, and whether the two reports agree."""
    lines = [f"{'workload':<14} {'metric':<16} {'A median':>11} "
             f"{'A IQR':>7} {'B median':>11} {'B IQR':>7} {'change':>8}  "
             "verdict"]
    agree = True
    for key in ("scale", "seed"):
        if a[key] != b[key]:
            lines.append(f"different {key}: {a[key]} vs {b[key]}")
            agree = False
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            lines.append(f"{workload:<14} only in A")
            agree = False
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            sa, sb = wa["metrics"][name], wb["metrics"][name]
            result = verdict(sa, sb, metric["bound"], metric["better"])
            agree &= result in ("within bound", "unresolved")
            change = (sb["median"] - sa["median"]) / abs(sa["median"])
            lines.append(
                f"{workload:<14} {name:<16} {sa['median']:>11.5g} "
                f"{spread(sa):>7.1%} {sb['median']:>11.5g} "
                f"{spread(sb):>7.1%} {change:>+8.1%}  {result} "
                f"(bound {metric['bound']:.0%})")
        for name in EXACT:
            va, vb = wa["metrics"][name]["median"], \
                wb["metrics"][name]["median"]
            same = va == vb
            agree &= same
            lines.append(f"{workload:<14} {name:<16} {va:>11.5g} "
                         f"{'':>7} {vb:>11.5g} {'':>7} {'':>8}  "
                         f"{'exact' if same else 'DIFFERS'}")
        same = wa["result_digest"] == wb["result_digest"]
        agree &= same
        lines.append(f"{workload:<14} {'result_digest':<16} "
                     f"{wa['result_digest'][:11]:>11} {'':>7} "
                     f"{wb['result_digest'][:11]:>11} {'':>7} {'':>8}  "
                     f"{'exact' if same else 'DIFFERS'}")
    for workload in b["workloads"]:
        if workload not in a["workloads"]:
            lines.append(f"{workload:<14} only in B")
            agree = False
    return lines, agree


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="baseline report")
    parser.add_argument("b", type=Path, help="report to compare")
    parser.add_argument("--agree", action="store_true",
                        help="exit 1 unless the two runs agree (two runs "
                        "of the same code)")
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    lines, agree = compare(json.loads(args.a.read_text()),
                           json.loads(args.b.read_text()), bench)
    print("\n".join(lines))
    if args.agree:
        print("agree" if agree else "DISAGREE")
        return 0 if agree else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
