"""Benchmark of cvqkd-mon: sweep, search and monitor workloads.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the repository root (or any copy of it that holds ``src/``).  Each
workload is a closed loop: one client in this process sends the next op only
after the previous one returns, so nothing ever waits in a queue and no
waiting time is reported.  An op is one in-process ``cli.main(argv)`` call
that writes its CSV to a temp file under ``bench/.work``; the package is
driven only through that public entry point.  Op inputs come from the
workload seed (see workloads.py), and every op's output is checked, outside
the timed region, against the 60-digit reference in check.py.

``--trace 0`` measures the end-to-end metrics for ``--seconds``.  Their
times are scaled to a nominal host speed by calibration kernels timed after
every op (see calibration.py); the raw figures are in the report line.
``--trace 1`` runs each op of a fixed prefix of the op stream twice,
untraced and then under :class:`tracing.Tracer`, and reports per-layer
metrics and the tracing overhead; the spans go to
``bench/.work/spans-<workload>.jsonl``.  After either kind of run, the fixed
known-defect probe (DEFECT_PROBE) is evaluated; the report line gives how
many of its points fail, and the traced run reports that count as
schemes.known_defect_points.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a JSON report with the
workload's rationale, the failures and the environment.  Any failed op makes
``correct`` false, as does a probe point that fails other than with the
seed engine's known V >= 1e7 defect (see check.py).
``--workload all`` runs the three workloads one after another, each in a
process of its own, since peak_rss_mb is the high-water mark of the whole
process (interpreter, numpy and the mpmath checker included).
"""

from __future__ import annotations

import os

# Single-threaded numerics for this process and the set-up probes it starts.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import check  # noqa: E402
from calibration import Calibration  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

#: Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_PROBES = 15
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "from cvqkd_mon import cli; cli.build_parser(); print(time.monotonic())")
#: The tail latency is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.self_s": "s/op", "cli.bytes_written": "B/op",
    "schemes.keyrate_points": "1/op", "schemes.keyrate_self_s": "s/op",
    "schemes.errors": "1/op", "schemes.search_calls": "1/op",
    "schemes.points_per_search": "ratio", "schemes.search_point_share": "share",
    "schemes.search_self_s": "s/op", "schemes.searches_capped": "1/op",
    "schemes.searches_insecure_at_zero": "1/op",
    "gaussian.spectrum_calls": "1/op", "gaussian.spectrum_s": "s/op",
    "gaussian.spectra_per_point": "ratio", "gaussian.entropy_calls": "1/op",
    "gaussian.condition_calls": "1/op", "gaussian.transform_calls": "1/op",
    "gaussian.transform_s": "s/op", "gaussian.self_s": "s/op",
    "gaussian.share_of_op": "share", "gaussian.errors": "1/op",
    "finite_size.simulate_calls": "1/op", "finite_size.samples_drawn": "1/op",
    "finite_size.sample_bytes": "B/op", "finite_size.simulate_s": "s/op",
    "finite_size.estimate_s": "s/op", "finite_size.z_calls": "1/op",
    "finite_size.self_s": "s/op", "finite_size.failure_rate": "share",
    "trace.overhead": "ratio",
}

#: Known-defect probe: passive-scheme K at V in {1e8, 1e9}, 7 taps T and 9
#: distances, other parameters at the CLI defaults.  The seed engine raises
#: UnphysicalStateError at 8 of the 126 points and misses the reference by
#: more than check.K_TOL (at most 3.7e-5 bit/pulse) at 41 more.
DEFECT_PROBE = {
    "V": (1e8, 1e9),
    "T": tuple(0.01 + 0.98 * k / 6 for k in range(7)),
    "d_km": tuple(5.0 * k for k in range(9)),
    "params": {"chi_s": 0.1, "eps": 0.1, "beta": 0.8, "r": 0.5, "alpha": 0.2},
}


def _load_package():
    """Import cvqkd_mon from this checkout's src/, never from elsewhere."""
    if not (SRC / "cvqkd_mon" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'cvqkd_mon'}; run from a "
                 f"checkout of the repository")
    sys.path.insert(0, str(SRC))
    from cvqkd_mon import cli
    if Path(cli.__file__).resolve().parent != SRC / "cvqkd_mon":
        sys.exit(f"error: imported cvqkd_mon from {cli.__file__}, not from {SRC}")
    return cli


class SetupProbe:
    """Times a fresh interpreter from launch to a built parser, in s.

    The probe prints time.monotonic() once the parser exists; on Linux that
    clock is system-wide, so it compares with the launch time taken here.
    Creating the probe runs it once untimed, which compiles the bytecode of
    a fresh checkout.  Each time is stored with the index of the op before
    it, whose calibration scales it.
    """

    def __init__(self) -> None:
        self.argv = [sys.executable, "-c", SETUP_CODE, str(SRC)]
        subprocess.run(self.argv, check=True, capture_output=True, timeout=120)
        self.times: list[tuple[int, float]] = []

    def __call__(self, op_index: int) -> None:
        start = time.monotonic()
        done = subprocess.run(self.argv, check=True, capture_output=True, text=True,
                              timeout=120)
        self.times.append((op_index, float(done.stdout) - start))


class OpRunner:
    """Runs ops through cli.main with stdout and stderr captured."""

    def __init__(self, cli, out_path: Path) -> None:
        self.cli = cli
        self.out_path = out_path
        self.stdout = io.StringIO()
        self.stderr = io.StringIO()

    def run(self, op) -> dict:
        argv = list(op.argv) + ["--out", str(self.out_path)]
        self.out_path.unlink(missing_ok=True)
        for buf in (self.stdout, self.stderr):
            buf.seek(0)
            buf.truncate()
        error = None
        with contextlib.redirect_stdout(self.stdout), contextlib.redirect_stderr(self.stderr):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                code, error = None, repr(exc)
            seconds = time.perf_counter() - start
        text = self.out_path.read_text() if self.out_path.exists() else ""
        if error is None and code != 0:
            lines = self.stderr.getvalue().strip().splitlines()
            error = lines[-1] if lines else f"exit {code}"
        return {"op": op, "code": code, "text": text, "seconds": seconds, "error": error}


def check_record(workload: str, seed: int, rec: dict) -> None:
    """Check one op's output, outside its timed region; sets rec["problems"]."""
    op = rec["op"]
    if rec["error"] is not None:
        rec["problems"] = [f"exit {rec['code']}: {rec['error']}"]
        return
    rng = random.Random(f"{workload}:{seed}:{op.index}")
    try:
        rec["problems"] = check.CHECKS[workload](op, rec["code"], rec["text"], rng)
    except (ValueError, IndexError, KeyError) as exc:
        rec["problems"] = [f"unreadable output: {exc!r}"]


def failure_summary(records: list[dict]) -> dict:
    failed = [rec for rec in records if rec["problems"]]
    return {
        "failed": len(failed),
        "examples": [{"op": rec["op"].index, "argv": list(rec["op"].argv),
                      "problem": rec["problems"][0]} for rec in failed[:5]],
    }


def defect_probe(schemes) -> dict:
    """Evaluate DEFECT_PROBE through the package's public schemes functions.

    Returns the points that fail with the known defect's signature and the
    problems of any point that fails otherwise.
    """
    points = list(itertools.product(DEFECT_PROBE["V"], DEFECT_PROBE["T"],
                                    DEFECT_PROBE["d_km"]))
    known, other = 0, []
    for V, T, d in points:
        params = dict(DEFECT_PROBE["params"], V=V, T=T)
        p = schemes.ProtocolParams(
            channel=schemes.ChannelParams(d, params["eps"], params["alpha"]),
            V=V, chi_s=params["chi_s"], beta=params["beta"], r=params["r"], T=T)
        where = f"passive_bs at V={V:g}, T={T:.4g}, d={d:g} km"
        try:
            value = schemes.keyrate_at_distance("passive_bs", p, d).key_rate
        except Exception as exc:  # a raising point is a failed point, not a crash
            is_known, problem = check.known_defect(V, error=str(exc)), f"{where}: {exc!r}"
        else:
            miss = abs(value - check.reference_keyrate("passive_bs", params, d))
            if miss <= check.K_TOL:
                continue
            is_known = check.known_defect(V, miss=miss)
            problem = f"{where}: K misses the reference by {miss:.3g}"
        if is_known:
            known += 1
        else:
            other.append(problem)
    return {"points": len(points), "known_defect": known, "other": other}


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the sample with TAIL_BEYOND samples above it.

    A short run's tail is never taken below its median.
    """
    ordered = sorted(values)
    rank = max(len(ordered) - TAIL_BEYOND, len(ordered) // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment() -> dict:
    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
        "caches_per_cpu0": _cache_sizes(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_end_to_end(workload, seed: int, seconds: float, runner: OpRunner):
    probe = SetupProbe()
    calibration = Calibration(workload.kernels)
    ops = workload.ops(seed)
    first = next(ops)
    runner.run(first)  # warm-up: first-call costs are not part of an op
    # Each op is checked as soon as it returns, and its output dropped, so
    # memory does not grow with the op count; wall time excludes the checks,
    # the calibration samples and the set-up probes, which are spread over the
    # run so that setup_s sees the same machine as the ops.
    records, wall, cpu = [], 0.0, 0.0
    for op in itertools.chain([first], ops):
        start, start_cpu = time.perf_counter(), time.process_time()
        rec = runner.run(op)
        wall += time.perf_counter() - start
        cpu += time.process_time() - start_cpu
        calibration.sample()
        check_record(workload.name, seed, rec)
        del rec["text"]
        records.append(rec)
        while len(probe.times) < SETUP_PROBES * min(wall / seconds, 1.0):
            probe(len(records) - 1)
        if wall >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def figures(scale):
        seconds = [rec["seconds"] * scale(i) for i, rec in enumerate(records)]
        ok = [s * 1e3 for s, rec in zip(seconds, records) if not rec["problems"]]
        tail_ms, tail_pct = tail(ok or [0.0])
        return {
            "setup_s": statistics.median(t * scale(i) for i, t in probe.times),
            "ops_per_s": len(ok) / sum(seconds),
            "op_p50_ms": statistics.median(ok or [0.0]),
            "op_tail_ms": tail_ms,
        }, tail_pct

    metrics, tail_pct = figures(calibration.scale)
    metrics["peak_rss_mb"] = peak_rss_mb
    raw, _ = figures(lambda i: 1.0)
    details = {
        "latency": {"samples": sum(1 for r in records if not r["problems"]),
                    "tail_percentile": tail_pct,
                    "note": "latencies of successful ops; failed ops are counted, not timed"},
        "calibration": {
            "kernels": list(workload.kernels), "nominal_ms": calibration.nominal * 1e3,
            "median_ms": statistics.median(calibration.times) * 1e3,
            "note": "setup_s, ops_per_s, op_p50_ms and op_tail_ms are scaled by "
                    "nominal / host-speed sample around each op or probe; raw "
                    "holds them unscaled",
        },
        "raw": raw,
        "wall_s": wall,
        "cpu_s": cpu,
        "cpu_note": "process CPU time of the timed ops; cpu_s near wall_s means "
                    "slow runs come from a slower CPU, not from preemption",
    }
    return records, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, details


def run_traced(workload, seed: int, runner: OpRunner):
    ops = list(itertools.islice(workload.ops(seed), workload.trace_ops))
    runner.run(ops[0])  # warm-up, as in the untraced loop
    # Each op runs untraced, then traced, so drift cancels out of the overhead.
    tracer = Tracer()
    plain, records = [], []
    for op in ops:
        plain.append(runner.run(op))
        tracer.op = op.index
        with tracer:
            records.append(runner.run(op))
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"spans-{workload.name}.jsonl")

    for before, after in zip(plain, records):
        check_record(workload.name, seed, after)
        if (before["code"], before["text"]) != (after["code"], after["text"]):
            after["problems"].append("output changed under tracing")
    layers = tracer.layer_metrics(len(ops))
    layers["cli.bytes_written"] = sum(len(r["text"].encode()) for r in records) / len(ops)
    rates = [check.monitor_tables(r["text"])[1]["failure_rate"] for r in records
             if workload.name == "monitor" and not r["problems"]]
    layers["finite_size.failure_rate"] = statistics.fmean(rates) if rates else 0.0
    layers["trace.overhead"] = (sum(r["seconds"] for r in records)
                                / sum(r["seconds"] for r in plain))
    metrics = {k: {"value": layers[k], "unit": unit} for k, unit in PER_LAYER_UNITS.items()}
    return records, metrics, {"traced_ops": len(ops)}


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        runner = OpRunner(cli, tmp / "op.csv")
        if trace:
            records, metrics, details = run_traced(workload, seed, runner)
        else:
            records, metrics, details = run_end_to_end(workload, seed, seconds, runner)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    # After the run, so that it changes neither the ops' timing nor peak_rss_mb.
    probe = defect_probe(sys.modules["cvqkd_mon.schemes"])
    if trace:
        metrics["schemes.known_defect_points"] = {"value": probe["known_defect"],
                                                  "unit": "count"}

    failures = failure_summary(records)
    kinds = collections.Counter(rec["op"].kind for rec in records)
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "why": workload.why, "predictions": list(workload.predictions),
        "loop": "closed; 1 client, 1 process, 1 thread; next op after the previous returns",
        "waiting": "none: single-threaded, nothing queues, so no wait time is reported",
        "op_kinds": kinds, "failures": failures, "defect_probe": probe, **details,
        "environment": environment(),
    }
    print(json.dumps({"report": report}))
    return {"correct": failures["failed"] == 0 and not probe["other"],
            "attempted": len(records), "failed": failures["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return 1 if any(codes) else 0
    cli = _load_package()
    result = run_workload(cli, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
