"""One workload execution in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py START_NS setup
    python3 perfbench/child.py START_NS run|trace WORKLOAD SEED

START_NS is the parent's ``time.monotonic_ns()`` just before it started
this process, so ``setup_s`` spans interpreter start-up and the import of
``phaseclone.cli``, as a user pays them on every CLI call. ``wall_s``
starts after that import and stops when ``cli.main`` returns; the CLI's
output goes to memory. ``peak_rss_mb`` is this process's ``ru_maxrss``.
Nothing is imported before the set-up clock stops that the CLI would not
import itself.
"""

import os
import sys
import time

START_NS = int(sys.argv[1])
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import phaseclone.cli  # noqa: E402

SETUP_S = (time.monotonic_ns() - START_NS) / 1e9

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def execute(workload: str, seed: int, traced: bool) -> dict:
    from workloads import argv, check_output

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            code = phaseclone.cli.main(argv(workload, seed))
        except SystemExit as exc:
            code = exc.code
    wall_s = time.perf_counter() - start
    result = {"setup_s": SETUP_S, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb(),
              "problems": check_output(workload, code, out.getvalue())}
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    return result


def main() -> None:
    mode = sys.argv[2]
    if not os.path.realpath(phaseclone.cli.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"imported {phaseclone.cli.__file__}, not the checkout's {SRC}")
    if mode == "setup":
        result = {"setup_s": SETUP_S}
    else:
        from provenance import numpy_info

        result = execute(sys.argv[3], int(sys.argv[4]), traced=mode == "trace")
        result["env"] = numpy_info()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
