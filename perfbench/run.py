"""End-to-end compile benchmark: Table-I grid, warm sweep, cached service traffic.

Run from the repository root::

    python3 perfbench/run.py --workload grid_cold --seed 0 --seconds 20 --trace 0

``--trace 0`` measures untraced and reports the end-to-end metrics listed in
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics (span self times, layer counters, tracing
overhead).  Either way every output is checked (see ``checks.py``), per-input
ledger rows go to ``.perfbench/<workload>-seed<N>-trace<T>.rows.json``, a
traced run also writes the native and Chrome traces there, and the last
stdout line is the JSON result.  The exit code is 0 only when every job
succeeded and every check passed; it is 2, with no result, when the
checkout has no ``src/repro`` to measure.  See ``perfbench/README.md``.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("grid_cold", "sweep_warm", "service_mixed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        print(
            f"perfbench: {package} not found; run from the root of a full "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    return harness.main(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
