"""Seeded end-to-end benchmark of the ``meanfit`` CLI.

Usage:
    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each sample is one fresh child process (``child.py``) that imports
``meanfit.cli`` from this checkout's ``src`` and makes one ``cli.main(argv)``
call on the generated files; children run one at a time.  Every output is
checked against the numpy reference in ``workloads.py``.  With ``--trace 0``
the last line reports the end-to-end metrics; with ``--trace 1`` traced and
untraced calls alternate and it reports the per-layer metrics of
``tracing.py``.  Lines before it give the machine and run record.
See METRICS.md for what each metric should move.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

TAIL_BEYOND = 10        # the tail percentile needs ten samples beyond it
MIN_SAMPLES = 12        # fewest timed calls in a run; the tail needs 11
MIN_TRACED = 3
CALL_TIMEOUT_S = 60.0
RUN_LIMIT_S = 100.0     # stop sampling here even below MIN_SAMPLES, to end within 180 s

END_TO_END = {          # name -> unit
    "setup_s": "s",
    "wall_s_p50": "s",
    "wall_s_tail": "s",
    "cpu_s_p50": "s",
    "items_per_s": "items/s",
    "peak_rss_mb": "MiB",
    "success_share": "ratio",
}

# name -> unit, per traced call.  ".share" is a function's self time (its
# spans' duration minus that of their child spans) over the traced wall time
# of cli.main; a share stays comparable when the whole machine runs slower.
# cli.main.s is that inclusive wall time, cli.self_s the self time of the cli
# spans.
PER_LAYER = {
    "fitsearch.fit_histogram.share": "ratio",
    "fitsearch.fit_histogram.calls": "count",
    "fitsearch.fit_histogram.failed": "count",
    "fitsearch.useful_ratio": "ratio",
    "fitsearch.histogram_to_series.share": "ratio",
    "fitsearch.mse_score.share": "ratio",
    "fitsearch.sweep_shape.share": "ratio",
    "fitsearch.sweep_beta.share": "ratio",
    "fitsearch.beta_mse_profile.share": "ratio",
    "fitsearch.compare_kernels.share": "ratio",
    "wmle.mle_closed_form.share": "ratio",
    "wmle.mle_closed_form.calls": "count",
    "expfam.pdf.share": "ratio",
    "expfam.pdf.calls": "count",
    "expfam.stat_mean_inverse.share": "ratio",
    "expfam.stat_mean_inverse.calls": "count",
    "expfam.catalog.share": "ratio",
    "expfam.catalog.calls": "count",
    "ingest.load_values_csv.share": "ratio",
    "ingest.load_values_csv.rows": "count",
    "ingest.load_histogram_csv.share": "ratio",
    "ingest.load_histogram_csv.calls": "count",
    "ingest.load_histogram_csv.rows": "count",
    "ingest.load_pgm.share": "ratio",
    "ingest.load_pgm.bytes": "B",
    "ingest.block_dct8.share": "ratio",
    "ingest.block_dct8.blocks": "count",
    "ingest.block_dct8.flops_computed": "flop",
    "ingest.block_dct8.bytes_computed": "B",
    "ingest.build_histogram.share": "ratio",
    "ingest.build_histogram.values": "count",
    "ingest.build_histogram.clipped": "count",
    "ingest.format_histogram_csv.share": "ratio",
    "means.lehmer_mean.share": "ratio",
    "means.lehmer_mean.calls": "count",
    "means.lehmer_mean.values": "count",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "trace.overhead_ratio": "ratio",
}


class Sample:
    """Outcome of one child call; ``failure`` is None when the output checked out."""

    def __init__(self, failure=None, record=None, output_bytes=0):
        self.failure = failure
        self.record = record or {}
        self.output_bytes = output_bytes


def machine_record() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas.update(name=info.get("name"), version=info.get("version"))
    except (AttributeError, KeyError, TypeError):
        pass
    blas["threads"] = _blas_threads()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None where it cannot be asked."""
    libs = Path(np.__file__).parent.with_name("numpy.libs")
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def call(wl: workloads.Workload, work: Path, traced: bool, invocation: int) -> Sample:
    """Run one child process and check what it wrote."""
    if wl.sidecar is not None and wl.sidecar.exists():
        wl.sidecar.unlink()
    out_path, err_path, result_path = (work / f"call.{ext}" for ext in ("out", "err", "json"))
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, "-I", str(HERE / "child.py"), str(SRC), str(result_path),
           "1" if traced else "0", str(invocation), "--", *wl.argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=work)
        try:
            code = proc.wait(timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code is None:
        return Sample(f"timed out after {CALL_TIMEOUT_S} s")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    if code != 0 or "Traceback" in stderr:
        last = stderr.strip().splitlines()[-1:] or [""]
        return Sample(f"exit code {code}: {last[0][:200]}")
    try:
        record = json.loads(result_path.read_text(encoding="ascii"))
    except (OSError, ValueError) as exc:
        return Sample(f"no timing record: {exc}")
    stdout = out_path.read_text(encoding="ascii", errors="replace")
    output_bytes = out_path.stat().st_size
    if wl.sidecar is not None and wl.sidecar.exists():
        output_bytes += wl.sidecar.stat().st_size
    return Sample(wl.check(stdout), record, output_bytes)


def corrupt(stdout: str) -> str:
    """Scale the last non-zero number of an output by 1.5."""
    matches = [m for m in re.finditer(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?", stdout)
               if float(m.group()) != 0.0]
    if not matches:
        return stdout + "0\n"
    m = matches[-1]
    return stdout[:m.start()] + repr(float(m.group()) * 1.5) + stdout[m.end():]


def tail(walls: list) -> tuple:
    """Value at the highest percentile with at least ten samples above it."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(wl: workloads.Workload, good: list, attempted: int, failed: int) -> tuple:
    walls = [s.record["wall_s"] for s in good]
    value, pct = tail(walls)
    metrics = {
        "setup_s": statistics.median(s.record["setup_s"] for s in good),
        "wall_s_p50": statistics.median(walls),
        "wall_s_tail": value,
        "cpu_s_p50": statistics.median(s.record["cpu_s"] for s in good),
        "items_per_s": wl.items * len(walls) / sum(walls),
        "peak_rss_mb": statistics.median(s.record["peak_rss_kib"] for s in good) / 1024.0,
        "success_share": (attempted - failed) / attempted,
    }
    note = f"wall_s_tail is the p{pct:.1f} of {len(walls)} timed calls"
    return metrics, note


def per_layer(traced: list, untraced: list) -> tuple:
    """Median over traced invocations of each per-layer value."""
    rows = []
    for sample in traced:
        raw = tracing.layer_metrics(sample.record["trace"])
        wall = raw["cli.main.total_s"]
        row = {name: raw.get(name[:-len("share")] + "s", 0.0) / wall
               if name.endswith(".share") else raw.get(name, 0.0) for name in PER_LAYER}
        calls = raw.get("fitsearch.fit_histogram.calls", 0)
        distinct = raw.get("fitsearch.fit_histogram.distinct", 0)
        row["fitsearch.useful_ratio"] = distinct / calls if calls else 1.0
        row["cli.main.s"] = wall
        row["cli.self_s"] = sum(v for k, v in raw.items()
                                if k.startswith("cli.") and k.endswith(".s"))
        row["cli.output_bytes"] = sample.output_bytes
        rows.append(row)
    metrics = {name: statistics.median(r[name] for r in rows) for name in PER_LAYER}
    metrics["trace.overhead_ratio"] = (
        statistics.median(s.record["wall_s"] for s in traced)
        / statistics.median(s.record["wall_s"] for s in untraced))
    unsteady = sorted(name for name, unit in PER_LAYER.items() if unit in ("count", "B", "flop")
                      and len({r[name] for r in rows}) > 1)
    note = f"{len(rows)} traced and {len(untraced)} untraced calls"
    if unsteady:
        note += "; counts that differ between traced calls: " + ", ".join(unsteady)
    return metrics, note


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        started = time.perf_counter()
        wl = workloads.prepare(name, seed, work)
        prepare_s = time.perf_counter() - started

        # Warm the file cache and compiled bytecode with one checked call.
        warm = call(wl, work, False, 0)
        attempted, failures = 1, ([warm.failure] if warm.failure else [])
        selfcheck = None
        if warm.failure is None:
            stdout = (work / "call.out").read_text(encoding="ascii")
            selfcheck = wl.check(corrupt(stdout))

        good, traced = [], []
        deadline = time.perf_counter() + seconds
        hard_stop = started + RUN_LIMIT_S
        invocation = 1
        while time.perf_counter() < hard_stop:
            enough = (len(traced) >= MIN_TRACED and len(good) >= MIN_TRACED if trace
                      else len(good) >= MIN_SAMPLES)
            if time.perf_counter() >= deadline and enough:
                break
            kinds = (False, True) if trace else (False,)
            for traced_call in kinds:
                sample = call(wl, work, traced_call, invocation)
                invocation += 1
                attempted += 1
                if sample.failure is not None:
                    failures.append(sample.failure)
                else:
                    (traced if traced_call else good).append(sample)
        if not good or (trace and not traced):
            raise RuntimeError(f"{name}: no successful call; first failure: {failures[:1]}")
        if trace:
            metrics, note = per_layer(traced, good)
            units = PER_LAYER
        else:
            metrics, note = end_to_end(wl, good, attempted, len(failures))
            units = END_TO_END
        return {
            "workload": name,
            "correct": not failures and selfcheck is not None,
            "attempted": attempted,
            "failed": len(failures),
            "failures": failures[:5],
            "selfcheck": ("corrupted output rejected: " + selfcheck) if selfcheck
                         else "corrupted output was ACCEPTED" if warm.failure is None
                         else "not run",
            "prepare_s": prepare_s,
            "note": note,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "meanfit" / "cli.py").is_file():
        print(f"error: {SRC / 'meanfit'} not found; run from a meanfit checkout",
              file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    units = PER_LAYER if args.trace else END_TO_END
    print("record " + json.dumps({
        "machine": machine_record(),
        "run": {"workloads": list(names), "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "units": units},
    }))
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results.append(res)
        print(f"== {name}: {res['attempted']} calls, {res['failed']} failed; "
              f"{res['note']}; self-check: {res['selfcheck']}; "
              f"inputs prepared in {res['prepare_s']:.2f} s")
        print(f"   why: {workloads.WHY[name]}")
        for failure in res["failures"]:
            print(f"   failure: {failure}")
        for key, m in res["metrics"].items():
            print(f"   {key:<36} {m['value']:.6g} {m['unit']}")
        print(json.dumps({k: res[k] for k in ("workload", "correct", "attempted", "failed",
                                               "metrics")}))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
