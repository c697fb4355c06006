"""Traced CLI process: ``python3 perfbench/cli_child.py <delpezzo args>``.

Times ``import delpezzo.cli``, installs the benchmark's wrappers in this process,
then runs ``cli.main`` on the arguments exactly as ``python -m delpezzo.cli``
would.  The aggregates and spans go to stderr as one final ``PERFBENCH {json}``
line, which the parent collects.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import Tracer  # noqa: E402


def main() -> int:
    start = time.perf_counter()
    import delpezzo.cli as cli
    import_s = time.perf_counter() - start
    import delpezzo.catalog  # noqa: F401  (imported lazily by the CLI; wrap its loader)
    tracer = Tracer()
    tracer.install()
    tracer.request = 0
    try:
        code = cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        snap = tracer.snapshot()
        snap["first_s"]["cli.import"] = import_s
        snap["spans"] = tracer.spans()
        print("PERFBENCH " + json.dumps(snap), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
