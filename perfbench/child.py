"""Fresh-interpreter helpers the benchmark starts as child processes.

    python perfbench/child.py setup [SCENARIO ...]
        Time importing ``cliffcheck.cli`` and loading and validating each
        scenario, as every CLI call pays it, then time the speed probe in the
        same process; print both as JSON.

    python perfbench/child.py trace OUT.json CLI-ARGS ...
        Run ``cliffcheck`` with the layer tracer installed and write the spans
        to OUT.json; exits with the CLI's exit code.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def setup(paths: list) -> int:
    start = time.perf_counter()
    from cliffcheck import cli

    for path in paths:
        cli.load_scenario(path)
    setup_s = time.perf_counter() - start
    from speed import probe_seconds

    print(json.dumps({"setup_s": setup_s, "probe_s": probe_seconds()}))
    return 0


def trace(out: str, argv: list) -> int:
    from cliffcheck import cli
    from tracing import Tracer

    tracer = Tracer()
    tracer.install(op=0)
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    Path(out).write_text(json.dumps(tracer.export_op()))
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(setup(rest))
    sys.exit(trace(rest[0], rest[1:]))
