"""Seeded op streams for the three benchmark workloads.

An op is one ``cvqkd-mon`` invocation: ``argv`` (without ``--out``) plus the
parameters the output check needs.  Streams are endless and depend only on
the workload seed, so the same seed gives the same ops on every commit.

Each stream is stratified in blocks: every block holds the same mix of op
kinds (one high-V op in eight sweeps; two normal, one capped and one
insecure search in four; one monitor size per quarter octave), in a seeded
order with seeded values inside each stratum.  The mix of work per block is
therefore fixed, which keeps a run's throughput and percentiles steady from
seed to seed while every input stays seeded.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import check

#: Fiber attenuation used by every op (the CLI default), in dB/km.
ALPHA = 0.2
#: Distances per sweep op; the grid reaches 192-297 km, short of the
#: ETA_FLOOR opacity limit at 300 km.  Ops of several hundred ms average out
#: the sub-second speed swings of a shared machine.
SWEEP_DISTANCES = 257
#: Share of sweep ops whose V is drawn log-uniformly from HIGH_V, where the
#: float64 engine loses the most digits.  The range stops a decade short of
#: the known defect (check.DEFECT_MIN_V), so no op fails on the seed code
#: (its largest miss there is 4e-8 bit/pulse); the defect itself is measured
#: by the fixed probe in run.py.
HIGH_V_SHARE = 1 / 8
HIGH_V = (1e2, 1e6)
#: Distance rows per search op; the secure-distance search dominates.
SEARCH_ROWS = 11
#: Smallest |K_ref| in bit/pulse, at d = 0 and at d_stop, of a search op: the
#: signs there decide the outcome, so the margin keeps it clear of any
#: rounding, far above the 1e-6 bit/pulse accuracy the checker asks for.
SEARCH_OUTCOME_MARGIN = 1e-4
#: Monitor sample counts are drawn from 2**17.5 .. 2**18.5, a quarter octave
#: per stratum.  8*m bytes then spans 1.4 to 2.8 MiB: two strata below and
#: two above a 2 MiB per-core L2 cache.  Narrow strata keep the op cost, and
#: with it the median and tail latency, steady from seed to seed.
MONITOR_LOG2_M = (17.5, 18.5)
MONITOR_STRATUM = 0.25
MONITOR_TRIALS = 100


@dataclass(frozen=True)
class Op:
    index: int
    kind: str
    argv: tuple[str, ...]
    params: dict


def _flags(params: dict, names: list[str]) -> list[str]:
    out = []
    for name in names:
        out += ["--" + name.replace("_", "-"), repr(params[name])]
    return out


def _distance_grid(rng: random.Random, step_range: tuple[float, float],
                   intervals: int) -> tuple[float, float]:
    """A step with three decimals and the stop `intervals` steps away."""
    step = round(rng.uniform(*step_range), 3)
    stop = step * intervals
    if math.floor(stop / step + 1e-9) != intervals:
        raise ValueError(f"grid {step} x {intervals} does not round-trip")
    return step, stop


def sweep_ops(seed: int) -> Iterator[Op]:
    rng = random.Random(seed)
    block = round(1 / HIGH_V_SHARE)
    lo, hi = (math.log10(v) for v in HIGH_V)
    index = 0
    while True:
        high_slot = rng.randrange(block)
        for slot in range(block):
            high = slot == high_slot
            step, stop = _distance_grid(rng, (0.75, 1.16), SWEEP_DISTANCES - 1)
            p = {
                "V": 10.0 ** rng.uniform(lo, hi) if high else rng.uniform(2.0, 100.0),
                "chi_s": 10.0 ** rng.uniform(-3.0, 0.0),
                "eps": rng.uniform(0.001, 0.2),
                "beta": rng.uniform(0.8, 0.98),
                "r": rng.uniform(0.05, 0.95),
                "T": rng.uniform(0.01, 0.99),
                "alpha": ALPHA, "d_step": step, "d_stop": stop,
            }
            argv = (["sweep-distance", "--scheme", "all", "--d-start", "0"]
                    + _flags(p, ["V", "chi_s", "eps", "beta", "r", "T", "alpha",
                                 "d_stop", "d_step"]))
            kind = "high_V" if high else "realistic_V"
            yield Op(index, kind, tuple(argv), p)
            index += 1


def _search_params(rng: random.Random, kind: str) -> dict:
    """Parameter ranges that give a normal, capped or insecure-at-0 search."""
    if kind == "normal":
        return {"V": rng.uniform(5.0, 60.0), "chi_s": 10.0 ** rng.uniform(-2.0, -0.5),
                "eps": rng.uniform(0.02, 0.1), "beta": rng.uniform(0.85, 0.95),
                "T": rng.uniform(0.1, 0.9)}
    if kind == "capped":
        return {"V": rng.uniform(2.0, 10.0), "chi_s": 10.0 ** rng.uniform(-3.0, -2.0),
                "eps": rng.uniform(0.001, 0.01), "beta": rng.uniform(0.95, 0.98),
                "T": rng.uniform(0.5, 0.95)}
    return {"V": rng.uniform(10.0, 60.0), "chi_s": 10.0 ** rng.uniform(-2.0, 0.0),
            "eps": rng.uniform(0.3, 0.5), "beta": rng.uniform(0.8, 0.9),
            "T": rng.uniform(0.1, 0.9)}


def search_outcome(params: dict) -> tuple[str, float]:
    """Outcome of the secure-distance search from the reference key rate.

    Returns the outcome and the smaller |K_ref| of the points that decide it.
    """
    k_zero = check.reference_keyrate("passive_bs", params, 0.0)
    if k_zero <= 0.0:
        return "insecure", -k_zero
    k_cap = check.reference_keyrate("passive_bs", params, params["d_stop"])
    return ("capped" if k_cap > 0.0 else "normal"), min(k_zero, abs(k_cap))


def search_ops(seed: int) -> Iterator[Op]:
    """Search ops whose kind is their reference outcome, by rejection sampling."""
    rng = random.Random(seed)
    index = 0
    while True:
        kinds = ["normal", "normal", "capped", "insecure"]
        rng.shuffle(kinds)
        for kind in kinds:
            while True:
                p = _search_params(rng, kind)
                step, stop = _distance_grid(rng, (8.0, 10.0), SEARCH_ROWS - 1)
                p.update(r=0.5, alpha=ALPHA, d_step=step, d_stop=stop)
                outcome, margin = search_outcome(p)
                if outcome == kind and margin >= SEARCH_OUTCOME_MARGIN:
                    break
            argv = (["grid-T", "--T-start", repr(p["T"]), "--T-stop", repr(p["T"]),
                     "--d-start", "0"]
                    + _flags(p, ["V", "chi_s", "eps", "beta", "r", "alpha",
                                 "d_stop", "d_step"]))
            yield Op(index, kind, tuple(argv), p)
            index += 1


def monitor_ops(seed: int) -> Iterator[Op]:
    rng = random.Random(seed)
    lo, hi = MONITOR_LOG2_M
    strata = round((hi - lo) / MONITOR_STRATUM)
    index = 0
    while True:
        order = list(range(strata))
        rng.shuffle(order)
        for stratum in order:
            log2_m = lo + MONITOR_STRATUM * (stratum + rng.random())
            p = {"V": rng.uniform(2.0, 100.0), "chi_s": 10.0 ** rng.uniform(-2.0, 0.0),
                 "m": int(2.0 ** log2_m), "seed": rng.randrange(1, 2 ** 31),
                 "trials": MONITOR_TRIALS}
            argv = ["finite-size"] + _flags(p, ["V", "chi_s", "m", "seed", "trials"])
            kind = "above_L2" if 8 * p["m"] > 2 * 2 ** 20 else "below_L2"
            yield Op(index, kind, tuple(argv), p)
            index += 1


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Callable[[int], Iterator[Op]]
    #: Ops in a traced run, so per-layer counts repeat exactly for a seed.
    trace_ops: int
    #: Calibration kernels whose work resembles this workload's (calibration.py).
    kernels: tuple[str, ...]
    why: str
    predictions: tuple[str, ...]


WORKLOADS = {
    "sweep": Workload(
        "sweep", sweep_ops, 10, ("small", "large"),
        "Many independent key-rate points (3 schemes x 257 distances to 297 km "
        "per op): gaussian does most of the work and the search driver none, so a "
        "batched spectrum engine shows here. 1 op in 8 draws V log-uniformly "
        "from 1e2 to 1e6, a decade below the seed engine's known V >= 1e7 "
        "defect, which the fixed probe run after every run counts instead.",
        ("gaussian.* -> ops_per_s, op_p50_ms (first); peak_rss_mb must not grow",
         "schemes.keyrate_* -> ops_per_s",
         "cli.self_s, cli.bytes_written -> op_p50_ms (heaviest CSV formatting)",
         "schemes.search_* -> no change (no searches run)",
         "finite_size.* -> no change (layer not reached)")),
    "search": Workload(
        "search", search_ops, 20, ("small", "large"),
        "One-tap grid-T: 11 grid rows, then a secure-distance search of 161-208 "
        "sequential, dependent points (d_stop 80-100 km). Parameters mix normal, "
        "capped-at-d_max and insecure-at-0 outcomes (2:1:1), each drawn until "
        "the reference rate gives it. Fewer points per search shows here.",
        ("schemes.search_*, schemes.points_per_search -> ops_per_s, op_p50_ms",
         "gaussian.* -> ops_per_s (second to sweep)",
         "finite_size.* -> no change (layer not reached)")),
    "monitor": Workload(
        "monitor", monitor_ops, 12, ("large",),
        "finite-size with a 100-trial coverage footer at m from 2^17.5 to "
        "2^18.5 (8m = 1.4 .. 2.8 MiB, around a 2 MiB L2): all work is in "
        "finite_size, none in gaussian or schemes.",
        ("finite_size.* -> ops_per_s, op_tail_ms, peak_rss_mb",
         "gaussian.*, schemes.* -> no change (layers not reached)")),
}
