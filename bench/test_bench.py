"""Tests of the benchmark itself: checker, tracer and op generation.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import itertools
import random
import sys
import types

import pytest

import check
import run
import workloads
from calibration import Calibration
from tracing import PACKAGE, Tracer
from workloads import SWEEP_DISTANCES, WORKLOADS

cli = run._load_package()


def _first_ops(workload: str, count: int, seed: int = 1):
    """The first `count` ops of a seed."""
    return list(itertools.islice(WORKLOADS[workload].ops(seed), count))


@pytest.fixture
def runner(tmp_path):
    return run.OpRunner(cli, tmp_path / "op.csv")


def _check(workload, record, rng=None):
    return check.CHECKS[workload](record["op"], record["code"], record["text"],
                                  rng or random.Random(0))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_checker_passes_seed_code(workload, runner):
    for op in _first_ops(workload, 2):
        record = runner.run(op)
        assert record["error"] is None
        assert _check(workload, record) == []


def _perturb_key_rate(text: str, row: int, delta: float) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[-1] = repr(float(cells[-1]) + delta)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_checker_rejects_key_rate_off_by_1e_5(runner, monkeypatch):
    record = runner.run(_first_ops("sweep", 1)[0])
    rows = len(record["text"].splitlines()) - 1
    monkeypatch.setattr(check, "SAMPLED_ROWS", rows)
    assert _check("sweep", record) == []
    for row in (1, rows // 2, rows):
        bad = dict(record, text=_perturb_key_rate(record["text"], row, 1e-5))
        problems = _check("sweep", bad)
        assert len(problems) == 1 and "differs from reference" in problems[0]


def test_checker_rejects_shifted_secure_distance(runner):
    op = next(op for op in _first_ops("search", 8) if op.kind == "normal")
    record = runner.run(op)
    lines = record["text"].splitlines()
    T, d = lines[-1].split(",")
    assert d and float(d) < op.params["d_stop"]
    assert _check("search", record) == []
    for shift in (-0.05, 0.05):
        lines[-1] = f"{T},{float(d) + shift!r}"
        bad = dict(record, text="\n".join(lines) + "\n")
        assert any("reference boundary" in p for p in _check("search", bad))


def test_checker_rejects_search_outcome_other_than_the_op_kind(runner):
    op = next(op for op in WORKLOADS["search"].ops(1) if op.kind == "normal")
    record = runner.run(op)
    lines = record["text"].splitlines()
    lines[-1] = lines[-1].split(",")[0] + ","
    bad = dict(record, text="\n".join(lines) + "\n")
    assert any("outcome insecure" in p for p in _check("search", bad))


def test_search_ops_are_drawn_with_their_reference_outcome():
    for op in itertools.islice(WORKLOADS["search"].ops(3), 8):
        outcome, margin = workloads.search_outcome(op.params)
        assert outcome == op.kind and margin >= workloads.SEARCH_OUTCOME_MARGIN


def test_checker_rejects_grid_order_and_row_count(runner):
    record = runner.run(_first_ops("sweep", 1)[0])
    lines = record["text"].splitlines()
    swapped = lines[:1] + [lines[2], lines[1]] + lines[3:]
    assert _check("sweep", dict(record, text="\n".join(swapped) + "\n"))
    assert _check("sweep", dict(record, text="\n".join(lines[:-1]) + "\n"))


def test_monitor_check_catches_wrong_dispersion(runner):
    record = runner.run(_first_ops("monitor", 1)[0])
    lines = record["text"].splitlines()
    cells = lines[3].split(",")
    cells[-1] = repr(float(cells[-1]) * (1 + 1e-6))
    bad = dict(record, text="\n".join(lines[:3] + [",".join(cells)]) + "\n")
    assert any("moment_dispersion" in p for p in _check("monitor", bad))


def _namespaces():
    """Every package-module attribute and module-level dict entry, by identity."""
    snapshot = {}
    for name, module in sys.modules.items():
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            for key, value in vars(module).items():
                snapshot[(name, key)] = id(value)
                if isinstance(value, dict):
                    for inner_key, inner in value.items():
                        snapshot[(name, key, inner_key)] = id(inner)
    return snapshot


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tracer_restores_every_namespace(workload, runner):
    from cvqkd_mon import gaussian, schemes

    before = _namespaces()
    original = gaussian.symplectic_spectrum
    tracer = Tracer()
    with tracer:
        assert gaussian.symplectic_spectrum is not original
        assert schemes.von_neumann_entropy is gaussian.von_neumann_entropy
        runner.run(_first_ops(workload, 1)[0])
    assert _namespaces() == before
    assert gaussian.symplectic_spectrum is original
    layers = {span[1] for span in tracer.spans}
    assert "cli" in layers
    assert ("finite_size" in layers) == (workload == "monitor")


def test_traced_counts_match_the_op(runner):
    tracer = Tracer()
    with tracer:
        runner.run(_first_ops("sweep", 1)[0])
    metrics = tracer.layer_metrics(1)
    assert metrics["schemes.keyrate_points"] == 3 * SWEEP_DISTANCES
    assert metrics["schemes.search_calls"] == 0
    assert metrics["gaussian.spectra_per_point"] == 2.0
    assert 0.0 < metrics["gaussian.share_of_op"] < 1.0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_ops(workload):
    ops = WORKLOADS[workload].ops
    first = list(itertools.islice(ops(7), 16))
    assert first == list(itertools.islice(ops(7), 16))
    assert first != list(itertools.islice(ops(8), 16))


def test_high_v_sweep_op_passes_on_every_row(runner, monkeypatch):
    op = next(op for op in WORKLOADS["sweep"].ops(1) if op.kind == "high_V")
    record = runner.run(op)
    assert record["error"] is None
    monkeypatch.setattr(check, "SAMPLED_ROWS", len(record["text"].splitlines()) - 1)
    assert _check("sweep", record) == []


def test_defect_probe_counts_the_seed_defect_and_nothing_else():
    from cvqkd_mon import schemes

    probe = run.defect_probe(schemes)
    assert probe["points"] == 126
    assert probe["known_defect"] == 49 and probe["other"] == []


def test_defect_probe_rejects_the_closed_form_error():
    """The float64 closed form misses by 0.36 bit at V = 1e9 (ROADMAP item 2)."""
    from cvqkd_mon import schemes

    def off(scheme, p, d_km):
        return types.SimpleNamespace(
            key_rate=schemes.keyrate_at_distance(scheme, p, d_km).key_rate + 0.36)

    fake = types.SimpleNamespace(ProtocolParams=schemes.ProtocolParams,
                                 ChannelParams=schemes.ChannelParams,
                                 keyrate_at_distance=off)
    probe = run.defect_probe(fake)
    assert probe["other"] and probe["known_defect"] < 49


def test_known_defect_signature():
    message = "symplectic eigenvalue 0.99999 violates the uncertainty principle"
    assert check.known_defect(1e8, error=message)
    assert not check.known_defect(1e6, error=message)
    assert not check.known_defect(1e8, error="grid step must be positive")
    assert check.known_defect(1e8, miss=5e-5)
    assert not check.known_defect(1e8, miss=0.36)
    assert not check.known_defect(1e6, miss=5e-5)


def test_tail_has_ten_samples_beyond_it_and_is_never_below_the_median():
    assert run.tail([float(v) for v in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0])[0] == 2.0
    assert run.tail([4.0, 1.0, 3.0, 2.0])[0] == 3.0


def test_calibration_scales_by_the_windowed_median():
    calibration = Calibration(("large",))
    calibration.times = [0.01] * 6 + [0.02] * 20
    assert calibration.scale(0) == calibration.nominal / 0.01
    assert calibration.scale(25) == calibration.nominal / 0.02
