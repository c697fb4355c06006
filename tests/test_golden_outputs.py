"""Pinned outputs: the exit code and the sha256 of stdout and of stderr of a
fixed set of commands, each run in process through ``cli.main``.

The set is the README's CLI examples, ``--help`` of the program and of
every subcommand, ``reproduce-paper`` at two seeds as a table and as JSON,
``catalog show`` of every built-in model, ``volfn`` and ``beta`` of every
built-in beta candidate, the GIT verdict table,
``zariski`` decompositions and refusals on each model family, and
``semistable`` on every built-in model and on P(1,1,2) with a quarter, a
half and three quarters of Q, with ``delta-flag`` for every built-in flag
and point class on them.  A change of any byte of any of these outputs
fails the test.

The digests live in ``golden_outputs.json`` beside this file.  After an
intended change of output, rewrite them with

    PYTHONPATH=src python tests/test_golden_outputs.py --write

and name the change in CHANGES.md.
"""

import hashlib
import io
import json
import os
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from delpezzo.azflag import builtin_flags
from delpezzo.catalog import catalog_names, get_model
from delpezzo.cli import main
from test_cli import _readme_commands

HERE = Path(__file__).resolve().parent
DATA = HERE / "golden_outputs.json"

SEEDS = (20250810, 20261017)

# (surfaces, classes with a Zariski decomposition on most of them, a class
# outside every one's catalogued cone)
ZARISKI = (
    ([f"dP{k}" for k in range(7, 0, -1)] + ["F1"],
     ("-K - 1/2 E1", "-K - E1", "-K - 3/2 E1"), "-K - 3E1"),
    (["P1xP1"], ("f1 + 2f2",), "f1 - f2"),
    ([f"P(1,1,{n})" for n in range(2, 7)] + ["P(1,1,2)+1/2Q", "P(2,3,5)"], ("O1",), "-O1"),
    ([f"F{n}~P(1,1,{n})" for n in range(2, 7)], ("e + f", "e + 3f"), "f - e"),
)

# every subcommand, each of whose --help is pinned
SUBCOMMANDS = ("catalog", "intersect", "zariski", "volfn", "beta", "delta-flag",
               "semistable", "discrep", "classify", "lct", "nvol", "budget",
               "local-global", "markov", "wps-vol", "git-weight", "git-destab",
               "reproduce-paper")

# surfaces with a boundary, checked by the flag bounds beside the built-ins
FLAG_SURFACES = ("P(1,1,2)+1/4Q", "P(1,1,2)+1/2Q", "P(1,1,2)+3/4Q")


def commands() -> list[list[str]]:
    out = _readme_commands()
    out.append(["--help"])
    out += [[cmd, "--help"] for cmd in SUBCOMMANDS]
    for seed in SEEDS:
        for fmt in ("table", "json"):
            out.append(["reproduce-paper", "--seed", str(seed), "--format", fmt])
    names = catalog_names()
    out += [["catalog", "show", name, "--format", "json"] for name in names]
    for name in names:
        for spec in get_model(name).beta_candidates:
            out.append(["volfn", "--surface", name, f"--divisor-spec={spec}",
                        "--format", "json"])
            out.append(["beta", "--surface", name, f"--divisor-spec={spec}"])
    out.append(["git-destab", "--verdict-table"])
    for surfaces, decompositions, refusal in ZARISKI:
        for surface in surfaces:
            for div in decompositions + (refusal,):
                out.append(["zariski", "--surface", surface, f"--div={div}"])
    for name in names + list(FLAG_SURFACES):
        out.append(["semistable", "--surface", name])
        for flag, _ in builtin_flags(get_model(name)):
            for point in flag.points:
                out.append(["delta-flag", "--surface", name, "--flag", flag.name,
                            "--point", point.label])
    return list({shlex.join(argv): argv for argv in out}.values())  # each command once


def digest(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps help at the terminal's width: pin it
    with redirect_stdout(out), redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        code = main(argv)
    return {"exit": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def test_outputs_match_their_pinned_digests():
    pinned = json.loads(DATA.read_text(encoding="utf-8"))
    argvs = commands()
    keys = [shlex.join(argv) for argv in argvs]
    assert sorted(pinned) == sorted(keys), "the command set differs from the pinned one"
    changed = [key for key, argv in zip(keys, argvs) if digest(argv) != pinned[key]]
    assert changed == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_outputs.py --write")
    table = {shlex.join(argv): digest(argv) for argv in commands()}
    DATA.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"{len(table)} digests written to {DATA}")
