"""Command-line front end: single evaluations, sweeps and finite-size analyses.

Subcommands
-----------
keyrate         one scheme at one parameter point
                CSV: scheme,d_km,eta,chi,i_ab,s_eb,key_rate,secure
sweep-distance  key rate vs distance for one or more schemes
                CSV: scheme,d_km,key_rate
grid-T          passive-scheme key rate over a (T, d) grid, plus a footer
                table of secure distances per tap value
                CSV: T,d_km,key_rate then T,secure_distance_km
finite-size     confidence bound for the monitored noise variance, either
                analytic (--sigma-hat2) or simulated (--V --chi-s --m --seed),
                optionally with a Monte Carlo coverage footer (--trials)
                CSV: sigma_hat2,m,eps_sm,z,delta_chi_s,sigma_min2   (analytic)
                     V,chi_s,m,seed,eps_sm,sigma_hat2,z,delta_chi_s,sigma_min2
                     then trials,failure_rate,mean_sigma_hat2,std_sigma_hat2,
                     assumed_dispersion,moment_dispersion            (simulated)

All floats are serialized with 9 significant digits and '.' decimals, rows
are newline-delimited and emitted in grid order, so output bytes are
reproducible run-to-run for equal flags (and seed).  CSV goes to --out
when given (summary on stdout), else to stdout (summary on stderr).

Exit codes: 0 success/secure, 2 evaluated but insecure, 1 invalid input.

A plain key=value config file (--config) may set any flag; command-line
flags override it.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

from .finite_size import (
    DEFAULT_EPSILON_SM,
    confidence_bound,
    coverage_diagnostic,
    simulated_sigma2,
)
from .schemes import (
    SCHEME_ACTIVE,
    SCHEME_PASSIVE,
    SCHEME_UNTRUSTED,
    SCHEMES,
    ChannelParams,
    ProtocolParams,
    evaluate_keyrate,
    keyrate_at_distance,
    optimize_T,
)


class _CliError(ValueError):
    """Raised for any malformed invocation; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which would collide with
    # the "insecure" exit code; route everything through _CliError instead.
    def error(self, message: str) -> None:  # noqa: D102
        raise _CliError(message)


_PROTOCOL = {f.name: f.default for f in fields(ProtocolParams) if f.name != "channel"}
_CHANNEL = {f.name: f.default for f in fields(ChannelParams)}

_DEFAULTS: dict[str, object] = {
    **_PROTOCOL, "eps": _CHANNEL["epsilon"], "alpha": _CHANNEL["alpha_db_per_km"],
    "d": 10.0, "scheme": None, "out": None, "seed": 1,
    "m": 1_000_000, "eps_sm": DEFAULT_EPSILON_SM, "trials": 0, "sigma_hat2": None,
    "d_start": 0.0, "d_stop": 40.0, "d_step": 0.5,
    "T_start": 0.01, "T_stop": 0.99, "T_step": 0.01,
}

_FLOAT_KEYS = {"V", "chi_s", "eps", "beta", "r", "T", "alpha", "d", "eps_sm",
               "sigma_hat2", "d_start", "d_stop", "d_step",
               "T_start", "T_stop", "T_step"}
_INT_KEYS = {"seed", "m", "trials"}

_SCHEME_ALIASES = {
    "untrusted": SCHEME_UNTRUSTED,
    "active": SCHEME_ACTIVE,
    "active_switch": SCHEME_ACTIVE,
    "passive": SCHEME_PASSIVE,
    "passive_bs": SCHEME_PASSIVE,
}


def _parse_int(text: str) -> int:
    """Integer flag value; accepts scientific notation like 1e8."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
        if value != int(value):
            raise ValueError(f"expected an integer, got {text!r}")
        return int(value)


def _fmt(value: float) -> str:
    """9-significant-digit, locale-independent float serialization."""
    return f"{value:.9g}"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cvqkd-mon",
                     description="Key-rate and source-monitoring analysis "
                                 "for coherent-state CVQKD with a noisy source.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_shared(p: argparse.ArgumentParser) -> None:
        p.add_argument("--V", type=float,
                       help=f"EPR-equivalent modulation variance (default {_DEFAULTS['V']:g})")
        p.add_argument("--chi-s", dest="chi_s", type=float,
                       help=f"source-noise variance (default {_DEFAULTS['chi_s']:g})")
        p.add_argument("--eps", type=float,
                       help=f"channel excess noise (default {_DEFAULTS['eps']:g})")
        p.add_argument("--beta", type=float,
                       help=f"reconciliation efficiency (default {_DEFAULTS['beta']:g})")
        p.add_argument("--r", type=float,
                       help=f"active-scheme sampling ratio (default {_DEFAULTS['r']:g})")
        p.add_argument("--T", type=float,
                       help=f"passive-scheme tap transmittance (default {_DEFAULTS['T']:g})")
        p.add_argument("--alpha", type=float,
                       help=f"fiber attenuation, dB/km (default {_DEFAULTS['alpha']:g})")
        p.add_argument("--d", type=float, help=f"span length, km (default {_DEFAULTS['d']:g})")
        p.add_argument("--scheme", type=str,
                       help="untrusted | active_switch | passive_bs (sweeps also accept 'all' "
                            "or a comma-separated list)")
        p.add_argument("--out", type=str, help="CSV output path (default: stdout)")
        p.add_argument("--config", type=str, help="key=value file; flags override it")
        p.add_argument("--seed", type=_parse_int, help=f"PRNG seed (default {_DEFAULTS['seed']})")
        p.add_argument("--m", type=_parse_int,
                       help=f"monitor sample count (default {_DEFAULTS['m']})")
        p.add_argument("--eps-sm", dest="eps_sm", type=float,
                       help=f"monitor failure probability (default {_DEFAULTS['eps_sm']:g})")
        p.add_argument("--trials", type=_parse_int,
                       help=f"coverage trials, 0 = skip (default {_DEFAULTS['trials']})")
        for key, what in (("d_start", "sweep start, km"), ("d_stop", "sweep stop, km"),
                          ("d_step", "sweep step, km"), ("T_start", "tap grid start"),
                          ("T_stop", "tap grid stop"), ("T_step", "tap grid step")):
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=float,
                           help=f"{what} (default {_DEFAULTS[key]:g})")

    p_key = sub.add_parser("keyrate", help="evaluate one scheme at one parameter point")
    add_shared(p_key)

    p_sweep = sub.add_parser("sweep-distance", help="key rate vs distance per scheme")
    add_shared(p_sweep)

    p_grid = sub.add_parser("grid-T", help="passive key rate over a (T, d) grid")
    add_shared(p_grid)

    p_fs = sub.add_parser("finite-size", help="confidence bound for the monitored noise variance")
    add_shared(p_fs)
    p_fs.add_argument("--sigma-hat2", dest="sigma_hat2", type=float,
                      help="analytic mode: use this estimate instead of simulating")

    return parser


def _load_config(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _CliError(f"cannot read config file: {exc}")
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _CliError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in _DEFAULTS:
            raise _CliError(f"{path}:{lineno}: unknown option {key!r}")
        entries[key] = value.strip()
    return entries


def _convert(key: str, text: str) -> object:
    try:
        if key in _FLOAT_KEYS:
            return float(text)
        if key in _INT_KEYS:
            return _parse_int(text)
        return text
    except ValueError:
        raise _CliError(f"invalid value for {key}: {text!r}")


def _merge(args: argparse.Namespace) -> dict[str, object]:
    """Hard defaults, overridden by the config file, overridden by flags."""
    cfg = dict(_DEFAULTS)
    if getattr(args, "config", None):
        for key, text in _load_config(args.config).items():
            cfg[key] = _convert(key, text)
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _protocol(cfg: dict) -> ProtocolParams:
    channel = ChannelParams(distance_km=cfg["d"], epsilon=cfg["eps"],
                            alpha_db_per_km=cfg["alpha"])
    return ProtocolParams(channel=channel, V=cfg["V"], chi_s=cfg["chi_s"],
                          beta=cfg["beta"], r=cfg["r"], T=cfg["T"])


def _parse_schemes(text: str | None, default: str, allow_multi: bool) -> list[str]:
    if text is None:
        text = default
    names = [t.strip() for t in text.split(",") if t.strip()]
    if not names:
        raise _CliError("empty scheme selector")
    if names == ["all"]:
        if not allow_multi:
            raise _CliError("this subcommand evaluates exactly one scheme")
        return list(SCHEMES)
    tags = []
    for name in names:
        if name not in _SCHEME_ALIASES:
            raise _CliError(f"unknown scheme {name!r}; expected one of "
                            f"{sorted(_SCHEME_ALIASES)} or 'all'")
        tags.append(_SCHEME_ALIASES[name])
    if not allow_multi and len(tags) != 1:
        raise _CliError("this subcommand evaluates exactly one scheme")
    return tags


def _grid(start: float, stop: float, step: float, what: str) -> list[float]:
    if step <= 0.0:
        raise _CliError(f"{what} step must be positive, got {step}")
    if stop < start:
        raise _CliError(f"{what} range is empty: start {start} > stop {stop}")
    count = int(math.floor((stop - start) / step + 1e-9))
    return [start + k * step for k in range(count + 1)]


def _emit(cfg: dict, lines: list[str], summary: str) -> None:
    text = "\n".join(lines) + "\n"
    out = cfg["out"]
    if out:
        Path(out).write_text(text)
        print(summary)
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)


def cmd_keyrate(cfg: dict) -> int:
    scheme = _parse_schemes(cfg["scheme"], default=SCHEME_PASSIVE, allow_multi=False)[0]
    params = _protocol(cfg)
    bd = evaluate_keyrate(scheme, params)
    ch = params.channel
    lines = [
        "scheme,d_km,eta,chi,i_ab,s_eb,key_rate,secure",
        ",".join([bd.scheme, _fmt(ch.distance_km), _fmt(ch.eta), _fmt(ch.chi),
                  _fmt(bd.i_ab), _fmt(bd.s_eb), _fmt(bd.key_rate),
                  "true" if bd.secure else "false"]),
    ]
    verdict = "secure" if bd.secure else "insecure"
    _emit(cfg, lines, f"{bd.scheme} at d={_fmt(ch.distance_km)} km: "
                      f"I(a:b)={_fmt(bd.i_ab)}, S(E:b)={_fmt(bd.s_eb)}, "
                      f"K={_fmt(bd.key_rate)} bits/pulse ({verdict})")
    return 0 if bd.secure else 2


def cmd_sweep_distance(cfg: dict) -> int:
    schemes = _parse_schemes(cfg["scheme"], default="all", allow_multi=True)
    params = _protocol(cfg)
    distances = _grid(cfg["d_start"], cfg["d_stop"], cfg["d_step"], "distance")
    lines = ["scheme,d_km,key_rate"]
    for scheme in schemes:
        for d in distances:
            bd = keyrate_at_distance(scheme, params, d)
            lines.append(f"{scheme},{_fmt(d)},{_fmt(bd.key_rate)}")
    _emit(cfg, lines, f"swept {len(schemes)} scheme(s) over {len(distances)} distances "
                      f"({len(lines) - 1} rows)")
    return 0


def cmd_grid_t(cfg: dict) -> int:
    taps = _grid(cfg["T_start"], cfg["T_stop"], cfg["T_step"], "tap")
    if taps[0] < 0.01 - 1e-12 or taps[-1] > 0.99 + 1e-12:
        raise _CliError(f"tap grid must stay within [0.01, 0.99], got "
                        f"[{taps[0]}, {taps[-1]}]")
    distances = _grid(cfg["d_start"], cfg["d_stop"], cfg["d_step"], "distance")
    params = _protocol(cfg)
    lines = ["T,d_km,key_rate"]
    for T in taps:
        p_t = replace(params, T=T)
        for d in distances:
            bd = keyrate_at_distance(SCHEME_PASSIVE, p_t, d)
            lines.append(f"{_fmt(T)},{_fmt(d)},{_fmt(bd.key_rate)}")
    lines.append("T,secure_distance_km")
    sweep = optimize_T(params, taps, d_max=cfg["d_stop"])
    for T, dist in sweep.table:
        lines.append(f"{_fmt(T)},{'' if dist is None else _fmt(dist)}")
    if sweep.d_best is None:
        summary = f"no secure tap setting on the grid of {len(taps)} values"
    else:
        summary = (f"best tap T={_fmt(sweep.T_best)}: secure distance {_fmt(sweep.d_best)} km "
                   f"(grid of {len(taps)} T values x {len(distances)} distances)")
    _emit(cfg, lines, summary)
    return 0


def cmd_finite_size(cfg: dict) -> int:
    m, eps_sm = cfg["m"], cfg["eps_sm"]
    if cfg["sigma_hat2"] is not None:
        est = confidence_bound(cfg["sigma_hat2"], m, eps_sm)
        lines = [
            "sigma_hat2,m,eps_sm,z,delta_chi_s,sigma_min2",
            ",".join([_fmt(est.sigma_hat2), str(est.m), _fmt(est.epsilon_sm),
                      _fmt(est.z), _fmt(est.delta_chi_s), _fmt(est.sigma_min2)]),
        ]
    else:
        # The batch is estimated in one m-sample buffer and never kept; the
        # coverage trials draw from a separate stream, so this row does not
        # depend on --trials.
        est = confidence_bound(simulated_sigma2(cfg["V"], cfg["chi_s"], m, cfg["seed"]),
                               m, eps_sm)
        lines = [
            "V,chi_s,m,seed,eps_sm,sigma_hat2,z,delta_chi_s,sigma_min2",
            ",".join([_fmt(cfg["V"]), _fmt(cfg["chi_s"]), str(est.m), str(cfg["seed"]),
                      _fmt(est.epsilon_sm), _fmt(est.sigma_hat2), _fmt(est.z),
                      _fmt(est.delta_chi_s), _fmt(est.sigma_min2)]),
        ]
        if cfg["trials"] > 0:
            report = coverage_diagnostic(cfg["V"], cfg["chi_s"], m, eps_sm,
                                         cfg["trials"], cfg["seed"])
            lines.append("trials,failure_rate,mean_sigma_hat2,std_sigma_hat2,"
                         "assumed_dispersion,moment_dispersion")
            lines.append(",".join([str(report.trials), _fmt(report.failure_rate),
                                   _fmt(report.mean_sigma_hat2), _fmt(report.std_sigma_hat2),
                                   _fmt(report.assumed_dispersion),
                                   _fmt(report.moment_dispersion)]))
    note = " [estimate negative: small-sample fluctuation]" if est.negative_estimate else ""
    _emit(cfg, lines, f"sigma_hat2={_fmt(est.sigma_hat2)} -> sigma_min2={_fmt(est.sigma_min2)} "
                      f"(delta={_fmt(est.delta_chi_s)}, z={_fmt(est.z)}, m={est.m}){note}")
    return 0


_DISPATCH = {
    "keyrate": cmd_keyrate,
    "sweep-distance": cmd_sweep_distance,
    "grid-T": cmd_grid_t,
    "finite-size": cmd_finite_size,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _merge(args)
        return _DISPATCH[args.cmd](cfg)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())


if __name__ == "__main__":
    run()
