"""One fresh ``meanfit`` process: import the CLI, make one ``cli.main`` call.

Usage: python3 -I child.py SRC RESULT_JSON TRACE INVOCATION -- CLI_ARGS...

The timings go to RESULT_JSON; the call's own stdout and stderr stay those
of this process.  Only the standard library is imported before the timed
import of ``meanfit.cli``, so ``setup_s`` covers numpy and the package.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    src, result_path, trace, invocation = sys.argv[1:5]
    if sys.argv[5] != "--":
        raise SystemExit("usage: child.py SRC RESULT_JSON TRACE INVOCATION -- CLI_ARGS...")
    argv = sys.argv[6:]
    sys.path[:0] = [src, os.path.dirname(os.path.abspath(__file__))]

    start = time.perf_counter()
    import meanfit.cli as cli
    cli.build_parser()
    setup_s = time.perf_counter() - start
    expected = os.path.realpath(os.path.join(src, "meanfit", "cli.py"))
    if os.path.realpath(cli.__file__) != expected:
        raise SystemExit(f"imported {cli.__file__}, expected {expected}")

    recorder = None
    if trace == "1":
        import tracing
        recorder = tracing.install(int(invocation))

    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    code = cli.main(argv)
    sys.stdout.flush()
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0

    record = {
        "code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        record["trace"] = recorder.dump()
    with open(result_path, "w", encoding="ascii") as fh:
        json.dump(record, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
