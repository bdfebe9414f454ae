"""Output checks for benchmark ops, against an independent 60-digit route.

The reference never calls the package.  It builds every state from its x-
and p-blocks (all states here are phase-symmetric, so the covariance matrix
is X (+) P), takes the symplectic spectrum as sqrt(eig(X P)) and conditions
on Bob's x-homodyne by replacing X with its Schur complement while P only
loses the measured mode (Weedbrook et al., RMP 84, 621 (2012)).  Everything
runs in mpmath at 60 digits, so the reference is exact to far below the
1e-6 bit/pulse tolerance even at V = 1e9.

Each ``check_<workload>`` takes the op (see workloads.py), the op's exit code
and CSV text, and a ``random.Random`` that picks the sampled rows; it
returns a list of problems, empty when the output is correct, and may raise
ValueError, IndexError or KeyError on output it cannot parse.
:func:`known_defect` tells whether a failed key rate of the known-defect
probe in run.py has the signature of the seed engine's known defect.
"""

from __future__ import annotations

import functools
import math
import random

from mpmath import mp

mp.dps = 60

#: Largest tolerated |K - K_ref| in bit/pulse.
K_TOL = 1e-6
#: Search tolerance of ``secure_distance`` (its default ``tol_km``), in km.
SEARCH_TOL_KM = 0.01
#: Key-rate rows recomputed per op; the footer of a search is always checked.
SAMPLED_ROWS = 3
#: Width, in standard errors, of the statistical checks on the monitor.
MONITOR_SIGMAS = 6.0

SCHEME_ORDER = ("untrusted", "active_switch", "passive_bs")

#: Signature of the known float64 defect of the seed engine (ROADMAP item 2),
#: as measured at the commit that added this benchmark.  Only at V >= 1e7 can
#: its K miss the reference by more than K_TOL, and then by at most
#: DEFECT_MAX_MISS (4.7e-5 was the largest miss seen, at V ~ 1e9); and only
#: there can keyrate_passive raise UnphysicalStateError (lowest V seen:
#: 8.3e7), whose message holds DEFECT_RAISE_MESSAGE.
DEFECT_MIN_V = 1e7
DEFECT_MAX_MISS = 1e-4
DEFECT_RAISE_MESSAGE = "violates the uncertainty principle"


def known_defect(V: float, *, miss: float | None = None, error: str = "") -> bool:
    """Whether a key rate at V that missed the reference by `miss`, or raised
    `error`, fails with the known defect's signature."""
    if V < DEFECT_MIN_V:
        return False
    return DEFECT_RAISE_MESSAGE in error if miss is None else miss <= DEFECT_MAX_MISS


def _epr(W, extra=0):
    """x- and p-blocks of a two-mode squeezed vacuum; mode 1 gets `extra` noise."""
    c = mp.sqrt(W * W - 1)
    X = mp.matrix([[W, c], [c, W + extra]])
    P = mp.matrix([[W, -c], [-c, W + extra]])
    return X, P


def _with_vacuum(B):
    n = B.rows
    out = mp.zeros(n + 1, n + 1)
    for i in range(n):
        for j in range(n):
            out[i, j] = B[i, j]
    out[n, n] = 1
    return out


def _beamsplitter(B, i, j, T):
    """s^T B s for the tap mixing modes i (transmitted) and j (reflected)."""
    s = mp.eye(B.rows)
    rt, rr = mp.sqrt(T), mp.sqrt(1 - T)
    s[i, i], s[i, j], s[j, i], s[j, j] = rt, rr, -rr, rt
    return s.T * B * s


def _fiber(B, k, eta, eps):
    out = B.copy()
    root = mp.sqrt(eta)
    for j in range(out.cols):
        out[k, j] *= root
    for i in range(out.rows):
        out[i, k] *= root
    out[k, k] += (1 - eta) + eta * eps
    return out


def _drop(B, k):
    keep = [i for i in range(B.rows) if i != k]
    return mp.matrix([[B[i, j] for j in keep] for i in keep])


def _homodyne_x(X, P, k):
    """State of the other modes after measuring x of mode k."""
    keep = [i for i in range(X.rows) if i != k]
    Xc = mp.matrix([[X[i, j] - X[i, k] * X[k, j] / X[k, k] for j in keep] for i in keep])
    return Xc, _drop(P, k)


def _entropy(X, P):
    """von Neumann entropy in bits from the spectrum sqrt(eig(X P))."""
    M = X * P
    evs = [M[0, 0]] if M.rows == 1 else mp.eig(M, left=False, right=False)
    total = mp.mpf(0)
    for ev in evs:
        x = (mp.sqrt(mp.re(ev)) - 1) / 2
        if x > 0:
            total += (x + 1) * mp.log(x + 1, 2) - x * mp.log(x, 2)
    return total


def _holevo(X, P, bob):
    return _entropy(X, P) - _entropy(*_homodyne_x(X, P, bob))


def _mutual_info(X):
    """Heterodyne A, homodyne B on the (A, B) x-block."""
    a, b, c = X[0, 0], X[1, 1], X[0, 1]
    return mp.log(b / (b - c * c / (a + 1)), 2) / 2


def reference_keyrate(scheme: str, params: dict, d_km: float) -> float:
    """K in bit/pulse of `scheme` at span `d_km`, from 60-digit mpmath.

    Cached, since a search op's outcome is decided when the op is drawn and
    checked again on its output.
    """
    return _reference_keyrate(scheme, tuple(sorted(params.items())), float(d_km))


@functools.lru_cache(maxsize=1024)
def _reference_keyrate(scheme: str, items: tuple, d_km: float) -> float:
    params = dict(items)
    V, chi_s = mp.mpf(params["V"]), mp.mpf(params["chi_s"])
    eps, beta = mp.mpf(params["eps"]), mp.mpf(params["beta"])
    eta = mp.power(10, -mp.mpf(params["alpha"]) * mp.mpf(d_km) / 10)
    if scheme == "passive_bs":
        T = mp.mpf(params["T"])
        Xa, Pa = (_fiber(_beamsplitter(_with_vacuum(B), 1, 2, T), 1, eta, eps)
                  for B in _epr(V, chi_s))
        Xs, Ps = (_fiber(_beamsplitter(_with_vacuum(B), 1, 2, T), 1, eta, eps)
                  for B in _epr(V + chi_s))
        return float(beta * _mutual_info(_drop(Xa, 2)) - _holevo(Xs, Ps, 1))
    Xa, Pa = (_fiber(B, 1, eta, eps) for B in _epr(V, chi_s))
    i_ab = _mutual_info(Xa)
    if scheme == "untrusted":
        return float(beta * i_ab - _holevo(Xa, Pa, 1))
    if scheme == "active_switch":
        Xs, Ps = (_fiber(B, 1, eta, eps) for B in _epr(V + chi_s))
        return float((1 - mp.mpf(params["r"])) * (beta * i_ab - _holevo(Xs, Ps, 1)))
    raise ValueError(f"unknown scheme {scheme!r}")


def reference_z(eps_sm: float) -> float:
    """z > 0 with erfc(z/sqrt(2)) = eps_sm, solved in mpmath."""
    target = mp.mpf(eps_sm)
    return float(mp.findroot(lambda z: mp.erfc(z / mp.sqrt(2)) - target, mp.mpf(6)))


def _grid(start: float, stop: float, step: float) -> list[float]:
    """The CLI's documented grid: start + k*step for k = 0..floor((stop-start)/step)."""
    count = int(math.floor((stop - start) / step + 1e-9))
    return [start + k * step for k in range(count + 1)]


def _close(printed: float, value: float, rel: float = 1e-8) -> bool:
    """Equal up to the CLI's 9-significant-digit formatting."""
    return abs(float(printed) - value) <= rel * max(1.0, abs(value))


def _sampled_rows(rows, schemes, params, rng) -> list[str]:
    """Compare the key rate (last column) of SAMPLED_ROWS rows with the reference."""
    problems = []
    for idx in rng.sample(range(len(rows)), min(SAMPLED_ROWS, len(rows))):
        row = rows[idx]
        ref = reference_keyrate(schemes[idx], params, float(row[1]))
        miss = abs(float(row[2]) - ref)
        if not miss <= K_TOL:
            problems.append(f"row {idx + 1} {','.join(row)}: K differs from "
                            f"reference {ref:.12g} by {miss:.3g}, more than {K_TOL}")
    return problems


def check_sweep(op, code: int, text: str, rng: random.Random) -> list[str]:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    lines = text.splitlines()
    if not lines or lines[0] != "scheme,d_km,key_rate":
        return [f"bad header {lines[:1]}"]
    p = op.params
    distances = _grid(0.0, p["d_stop"], p["d_step"])
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(SCHEME_ORDER) * len(distances):
        return [f"{len(rows)} rows, expected {len(SCHEME_ORDER) * len(distances)}"]
    problems = []
    expected = [(s, d) for s in SCHEME_ORDER for d in distances]
    for i, (row, (scheme, d)) in enumerate(zip(rows, expected)):
        if len(row) != 3 or row[0] != scheme or not _close(row[1], d):
            problems.append(f"row {i + 1} {','.join(row)} out of grid order, "
                            f"expected {scheme} at {d!r} km")
    return problems or _sampled_rows(rows, [row[0] for row in rows], p, rng)


def check_search(op, code: int, text: str, rng: random.Random) -> list[str]:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    p = op.params
    distances = _grid(0.0, p["d_stop"], p["d_step"])
    lines = text.splitlines()
    n = len(distances)
    if (len(lines) != n + 3 or lines[0] != "T,d_km,key_rate"
            or lines[n + 1] != "T,secure_distance_km"):
        return [f"bad layout: {len(lines)} lines, expected header, {n} rows, "
                f"footer header and one footer row"]
    rows = [line.split(",") for line in lines[1:n + 1]]
    problems = []
    for i, (row, d) in enumerate(zip(rows, distances)):
        if len(row) != 3 or not _close(row[0], p["T"]) or not _close(row[1], d):
            problems.append(f"row {i + 1} {','.join(row)} out of grid order, "
                            f"expected T={p['T']!r} at {d!r} km")
    footer = lines[n + 2].split(",")
    if len(footer) != 2 or not _close(footer[0], p["T"]):
        problems.append(f"bad footer row {lines[n + 2]!r}")
    if problems:
        return problems
    problems = _sampled_rows(rows, ["passive_bs"] * n, p, rng)

    def k_ref(d):
        return reference_keyrate("passive_bs", p, max(d, 0.0))

    d_max = p["d_stop"]
    outcome = ("insecure" if footer[1] == "" else
               "capped" if _close(footer[1], d_max) else "normal")
    if outcome != op.kind:
        problems.append(f"search outcome {outcome}, but the reference gives {op.kind}")
    if outcome == "insecure":
        if k_ref(0.0) > 0.0:
            problems.append("search reports insecure at d=0 but K_ref(0) > 0")
    elif outcome == "capped":
        if not k_ref(d_max) > 0.0:
            problems.append(f"search reports the cap {d_max} but K_ref(d_max) <= 0")
    else:
        d = float(footer[1])
        if not (0.0 < d < d_max and k_ref(d - SEARCH_TOL_KM) > 0.0
                and k_ref(d + SEARCH_TOL_KM) <= 0.0):
            problems.append(f"secure distance {d} km is not within {SEARCH_TOL_KM} km "
                            f"of the reference boundary")
    return problems


def monitor_tables(text: str) -> tuple[dict, dict]:
    """The estimate and coverage rows of a finite-size CSV, keyed by column."""
    lines = text.splitlines()
    if len(lines) != 4:
        raise ValueError(f"{len(lines)} lines, expected estimate and coverage tables")
    return tuple(dict(zip(lines[i].split(","), map(float, lines[i + 1].split(","))))
                 for i in (0, 2))


def check_monitor(op, code: int, text: str, rng: random.Random) -> list[str]:
    """Statistical check: holds for any seed contract of the simulation."""
    if code != 0:
        return [f"exit code {code}, expected 0"]
    est, cov = monitor_tables(text)
    p = op.params
    V, chi_s, m, trials = p["V"], p["chi_s"], p["m"], p["trials"]
    moment = math.sqrt(2.0) * (V + chi_s) / math.sqrt(m)
    problems = []
    if not (est["m"] == m and est["seed"] == p["seed"] and cov["trials"] == trials
            and _close(est["V"], V) and _close(est["chi_s"], chi_s)):
        problems.append("echoed inputs differ from the op's flags")
    if not abs(est["sigma_hat2"] - chi_s) <= MONITOR_SIGMAS * moment:
        problems.append(f"sigma_hat2={est['sigma_hat2']} more than {MONITOR_SIGMAS} "
                        f"moment errors ({moment:.3g}) from chi_s={chi_s}")
    if not _close(est["sigma_min2"], est["sigma_hat2"] - est["delta_chi_s"], 1e-7):
        problems.append("sigma_min2 != sigma_hat2 - delta_chi_s")
    if not abs(est["z"] - reference_z(est["eps_sm"])) <= 1e-8 * est["z"]:
        problems.append(f"z={est['z']} differs from the mpmath erfc inverse")
    exact = float(mp.sqrt(2) * (mp.mpf(V) + mp.mpf(chi_s)) / mp.sqrt(m))
    if not abs(cov["moment_dispersion"] - exact) <= 1e-8 * exact:
        problems.append(f"moment_dispersion={cov['moment_dispersion']}, exact {exact:.12g}")
    if not abs(cov["mean_sigma_hat2"] - chi_s) <= MONITOR_SIGMAS * moment / math.sqrt(trials):
        problems.append(f"trial mean {cov['mean_sigma_hat2']} disagrees with chi_s={chi_s} "
                        f"at the moment dispersion")
    if not abs(cov["std_sigma_hat2"] / moment - 1.0) <= MONITOR_SIGMAS / math.sqrt(2.0 * (trials - 1)):
        problems.append(f"trial std {cov['std_sigma_hat2']} disagrees with the moment "
                        f"dispersion {moment:.6g}")
    if not 0.0 <= cov["failure_rate"] <= 1.0:
        problems.append(f"failure_rate {cov['failure_rate']} outside [0, 1]")
    return problems


CHECKS = {"sweep": check_sweep, "search": check_search, "monitor": check_monitor}
