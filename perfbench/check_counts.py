"""Counter gate: exact work counts and output digests must repeat exactly.

    python3 perfbench/check_counts.py            # check every workload
    python3 perfbench/check_counts.py --write    # re-pin after an intended change

Runs the traced benchmark twice per workload at the default seed.  The exact
counters (every ``*.calls`` metric, ``lp.eq_feasibility.cells``,
``positivity.volume_profile.chambers``, ``positivity.zariski.support_size`` and
``linalg.solve.max_bits``) and the digest of all rendered outputs must agree
between the two runs and with perfbench/pinned_counts.json.  Exits 1 on any
difference.  A change that moves a count on purpose re-pins it with --write and
shows the new numbers in its diff.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED
from workloads import ROOT, WORKLOADS

PINNED = Path(__file__).resolve().parent / "pinned_counts.json"
EXACT_EXTRAS = ("lp.eq_feasibility.cells", "positivity.volume_profile.chambers",
                "positivity.zariski.support_size", "linalg.solve.max_bits")


def traced_counts(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run failed\n{proc.stderr}")
    *_, info_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run reported incorrect output\n{proc.stderr}")
    counts = {k: v["value"] for k, v in result["metrics"].items()
              if k.endswith(".calls") or k in EXACT_EXTRAS}
    return {"digest": json.loads(info_line)["digest"], "counts": counts}


def main() -> int:
    ap = argparse.ArgumentParser(description="exact-count regression gate")
    ap.add_argument("--write", action="store_true", help="re-pin the current counts")
    args = ap.parse_args()
    pinned = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    current, problems = {}, []
    for workload in WORKLOADS:
        first, second = traced_counts(workload), traced_counts(workload)
        if first != second:
            problems.append(f"{workload}: two runs of seed {DEFAULT_SEED} differ: "
                            f"{_diff(first, second)}")
        current[workload] = first
        if not args.write and pinned.get(workload) != first:
            problems.append(f"{workload}: differs from the pin: "
                            f"{_diff(pinned.get(workload, {}), first)}")
    if args.write and not problems:
        PINNED.write_text(json.dumps(
            {"seed": DEFAULT_SEED, **current}, indent=2, sort_keys=True) + "\n")
    for line in problems:
        print(line)
    print("counter gate:", "FAIL" if problems else "ok")
    return 1 if problems else 0


def _diff(old: dict, new: dict) -> dict:
    flat_old = {"digest": old.get("digest"), **old.get("counts", {})}
    flat_new = {"digest": new.get("digest"), **new.get("counts", {})}
    return {k: (flat_old.get(k), flat_new.get(k))
            for k in sorted(set(flat_old) | set(flat_new)) if flat_old.get(k) != flat_new.get(k)}


if __name__ == "__main__":
    sys.exit(main())
