"""Command-line front end: single evaluations, sweeps and finite-size analyses.

Subcommands
-----------
keyrate         one scheme at one parameter point; reads the parameter flags
                --V --chi-s --eps --beta --r --alpha, and --T --d --scheme
                CSV: scheme,d_km,eta,chi,i_ab,s_eb,key_rate,secure
sweep-distance  key rate vs distance for one or more schemes; reads the
                parameter flags, --T --scheme and --d-start --d-stop --d-step
                CSV: scheme,d_km,key_rate
grid-T          passive-scheme key rate over a (T, d) grid, plus a footer
                table of secure distances per tap value; reads the parameter
                flags, the --d-* grid and --T-start --T-stop --T-step
                CSV: T,d_km,key_rate then T,secure_distance_km
finite-size     confidence bound for the monitored noise variance, either
                analytic (--sigma-hat2, which ignores --V --chi-s --seed and
                exits 1 with --trials) or simulated (--V --chi-s --m --seed),
                optionally with a Monte Carlo coverage footer (--trials),
                at failure probability --eps-sm
                CSV: sigma_hat2,m,eps_sm,z,delta_chi_s,sigma_min2   (analytic)
                     V,chi_s,m,seed,eps_sm,sigma_hat2,z,delta_chi_s,sigma_min2
                     then trials,failure_rate,mean_sigma_hat2,std_sigma_hat2,
                     assumed_dispersion,moment_dispersion            (simulated)

Every subcommand also takes --out; any other flag exits 1 with
"unrecognized arguments".

All floats are serialized with 9 significant digits and '.' decimals, rows
are newline-delimited and emitted in grid order, so output bytes are
reproducible run-to-run for equal flags (and seed).  CSV goes to --out
when given (summary on stdout), else to stdout (summary on stderr).

Exit codes: 0 success/secure, 2 evaluated but insecure, 1 invalid input.

An argument @FILE is replaced by the flags in FILE, whitespace-separated,
with '#' starting a comment (a line "--V 40" or "--V=40").  Later arguments
win, so flags after @FILE override it and flags before it do not.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .finite_size import (
    DEFAULT_EPSILON_SM,
    confidence_bound,
    coverage_diagnostic,
    simulated_sigma2,
    z_from_epsilon,
)
from .schemes import (
    SCHEME_PASSIVE,
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

    def convert_arg_line_to_args(self, arg_line: str) -> list[str]:  # noqa: D102
        return arg_line.split("#", 1)[0].split()


def _integer(text: str) -> int:
    """Integer flag value; accepts scientific notation like 1e8."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
        if not value.is_integer():  # also rejects nan and inf
            raise ValueError(f"expected an integer, got {text!r}")
        return int(value)


_integer.__name__ = "integer"  # argparse names the type in "invalid integer value"

# The taps grid-T may evaluate, which are also its default tap grid.
_TAP_RANGE = (0.01, 0.99)

# Every flag, once: dest -> (type, default, help).  The flag is "--" + dest
# with "_" as "-"; a default of None is shown in no help line.
_FLAGS: dict[str, tuple] = {
    "V": (float, ProtocolParams.V, "EPR-equivalent modulation variance"),
    "chi_s": (float, ProtocolParams.chi_s, "source-noise variance"),
    "eps": (float, ChannelParams.epsilon, "channel excess noise"),
    "beta": (float, ProtocolParams.beta, "reconciliation efficiency"),
    "r": (float, ProtocolParams.r, "active-scheme sampling ratio"),
    "T": (float, ProtocolParams.T, "passive-scheme tap transmittance"),
    "alpha": (float, ChannelParams.alpha_db_per_km, "fiber attenuation, dB/km"),
    "d": (float, 10.0, "span length, km"),
    "scheme": (str, None, "untrusted | active_switch | passive_bs (sweeps also accept "
                          "'all' or a comma-separated list)"),
    "out": (str, None, "CSV output path (default: stdout)"),
    "seed": (_integer, 1, "PRNG seed"),
    "m": (_integer, 1_000_000, "monitor sample count"),
    "eps_sm": (float, DEFAULT_EPSILON_SM, "monitor failure probability"),
    "trials": (_integer, 0, "coverage trials, 0 = skip"),
    "d_start": (float, 0.0, "sweep start, km"),
    "d_stop": (float, 40.0, "sweep stop, km"),
    "d_step": (float, 0.5, "sweep step, km"),
    "T_start": (float, _TAP_RANGE[0], "tap grid start"),
    "T_stop": (float, _TAP_RANGE[1], "tap grid stop"),
    "T_step": (float, 0.01, "tap grid step"),
    "sigma_hat2": (float, None, "analytic mode: use this estimate instead of simulating"),
}

# Most points a grid axis may have; checked from the count, before any allocation.
_MAX_GRID_POINTS = 1_000_000

# The schemes each selector names: a tag, the tag's first word ("active" for
# "active_switch"), or "all".
_SCHEME_SELECTORS = {alias: (tag,) for tag in SCHEMES for alias in (tag, tag.split("_")[0])}
_SCHEME_SELECTORS["all"] = SCHEMES


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _fmt(value: float) -> str:
    """9-significant-digit, locale-independent float serialization."""
    return f"{value:.9g}"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cvqkd-mon", fromfile_prefix_chars="@",
                     description="Key-rate and source-monitoring analysis "
                                 "for coherent-state CVQKD with a noisy source.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for cmd, (text, flags, _handler) in _COMMANDS.items():
        # No abbreviations: "finite-size --eps" must not turn into --eps-sm.
        p = sub.add_parser(cmd, help=text, allow_abbrev=False)
        for key, (kind, default, help_text) in _FLAGS.items():
            if key in flags:
                if default is not None:
                    shown = f"{default:g}" if kind is float else default
                    help_text += f" (default {shown})"
                p.add_argument(_flag(key), dest=key, type=kind, default=default,
                               help=help_text)
    return parser


def _protocol(cfg: dict, d_km: float, T: float) -> ProtocolParams:
    channel = ChannelParams(distance_km=d_km, epsilon=cfg["eps"],
                            alpha_db_per_km=cfg["alpha"])
    return ProtocolParams(channel=channel, V=cfg["V"], chi_s=cfg["chi_s"],
                          beta=cfg["beta"], r=cfg["r"], T=T)


def _parse_schemes(text: str) -> list[str]:
    names = [t.strip() for t in text.split(",") if t.strip()]
    if not names:
        raise _CliError("empty scheme selector")
    for name in names:
        if name not in _SCHEME_SELECTORS:
            raise _CliError(f"unknown scheme {name!r}; expected one of "
                            f"{sorted(_SCHEME_SELECTORS)}")
    # each once, in order
    return list(dict.fromkeys(tag for name in names for tag in _SCHEME_SELECTORS[name]))


def _grid(cfg: dict, axis: str) -> list[float]:
    """The points --{axis}-start, +step, ... up to --{axis}-stop."""
    start, stop, step = (cfg[f"{axis}_{end}"] for end in ("start", "stop", "step"))
    for end, value in (("start", start), ("stop", stop), ("step", step)):
        if not math.isfinite(value):
            raise _CliError(f"--{axis}-{end} must be finite, got {value}")
    if step <= 0.0:
        raise _CliError(f"--{axis}-step must be positive, got {step}")
    if stop < start:
        raise _CliError(f"--{axis}-start/--{axis}-stop range is empty: "
                        f"start {start} > stop {stop}")
    # (stop - start) / step may overflow to inf, which the comparison rejects.
    intervals = (stop - start) / step + 1e-9
    if not intervals < _MAX_GRID_POINTS:
        raise _CliError(f"--{axis}-step {step} gives more than {_MAX_GRID_POINTS} points")
    return [start + k * step for k in range(math.floor(intervals) + 1)]


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
    schemes = _parse_schemes(SCHEME_PASSIVE if cfg["scheme"] is None else cfg["scheme"])
    if len(schemes) != 1:
        raise _CliError("this subcommand evaluates exactly one scheme")
    params = _protocol(cfg, cfg["d"], cfg["T"])
    bd = evaluate_keyrate(schemes[0], params)
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
    schemes = _parse_schemes("all" if cfg["scheme"] is None else cfg["scheme"])
    distances = _grid(cfg, "d")
    params = _protocol(cfg, distances[-1], cfg["T"])  # refuses an opaque grid before any row
    lines = ["scheme,d_km,key_rate"]
    for scheme in schemes:
        for d in distances:
            bd = keyrate_at_distance(scheme, params, d)
            lines.append(f"{scheme},{_fmt(d)},{_fmt(bd.key_rate)}")
    _emit(cfg, lines, f"swept {len(schemes)} scheme(s) over {len(distances)} distances "
                      f"({len(lines) - 1} rows)")
    return 0


def cmd_grid_t(cfg: dict) -> int:
    taps = _grid(cfg, "T")
    lo, hi = _TAP_RANGE
    if taps[0] < lo - 1e-12 or taps[-1] > hi + 1e-12:
        raise _CliError(f"tap grid must stay within [{lo}, {hi}], got "
                        f"[{taps[0]}, {taps[-1]}]")
    if cfg["d_stop"] <= 0.0:
        raise _CliError(f"--d-stop caps the footer's secure-distance search and must be "
                        f"positive, got {cfg['d_stop']}")
    distances = _grid(cfg, "d")
    params = _protocol(cfg, distances[-1], taps[0])  # as in sweep-distance
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
    if cfg["trials"] < 0:
        raise _CliError(f"--trials must be >= 0, got {cfg['trials']}")
    if cfg["sigma_hat2"] is not None:
        if cfg["trials"] > 0:
            raise _CliError("--trials needs simulated data; drop it or --sigma-hat2")
        est = confidence_bound(cfg["sigma_hat2"], m, eps_sm)
        lines = [
            "sigma_hat2,m,eps_sm,z,delta_chi_s,sigma_min2",
            ",".join([_fmt(est.sigma_hat2), str(est.m), _fmt(est.epsilon_sm),
                      _fmt(est.z), _fmt(est.delta_chi_s), _fmt(est.sigma_min2)]),
        ]
    else:
        if cfg["seed"] < 0:
            raise _CliError(f"--seed must be >= 0, got {cfg['seed']}")
        z_from_epsilon(eps_sm)  # a bad --eps-sm costs no draw either
        # The coverage trials draw from a separate stream, so they run first:
        # a refused --trials then costs no m-sample draw.
        report = (coverage_diagnostic(cfg["V"], cfg["chi_s"], m, eps_sm,
                                      cfg["trials"], cfg["seed"])
                  if cfg["trials"] > 0 else None)
        est = confidence_bound(simulated_sigma2(cfg["V"], cfg["chi_s"], m, cfg["seed"]),
                               m, eps_sm)
        lines = [
            "V,chi_s,m,seed,eps_sm,sigma_hat2,z,delta_chi_s,sigma_min2",
            ",".join([_fmt(cfg["V"]), _fmt(cfg["chi_s"]), str(est.m), str(cfg["seed"]),
                      _fmt(est.epsilon_sm), _fmt(est.sigma_hat2), _fmt(est.z),
                      _fmt(est.delta_chi_s), _fmt(est.sigma_min2)]),
        ]
        if report is not None:
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


_PARAMS = ("V", "chi_s", "eps", "beta", "r", "alpha")  # what _protocol reads from cfg
_D_GRID = ("d_start", "d_stop", "d_step")

# Subcommand -> (help, the cfg keys its handler reads, handler).
_COMMANDS = {
    "keyrate": ("evaluate one scheme at one parameter point",
                frozenset((*_PARAMS, "T", "d", "scheme", "out")), cmd_keyrate),
    "sweep-distance": ("key rate vs distance per scheme",
                       frozenset((*_PARAMS, "T", "scheme", "out", *_D_GRID)),
                       cmd_sweep_distance),
    "grid-T": ("passive key rate over a (T, d) grid",
               frozenset((*_PARAMS, "out", *_D_GRID, "T_start", "T_stop", "T_step")),
               cmd_grid_t),
    "finite-size": ("confidence bound for the monitored noise variance",
                    frozenset(("V", "chi_s", "out", "seed", "m", "eps_sm",
                               "trials", "sigma_hat2")), cmd_finite_size),
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.cmd][2](vars(args))
    except (ValueError, ArithmeticError, OSError,  # _CliError is a ValueError
            RecursionError) as exc:  # from an @FILE that names itself
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())


if __name__ == "__main__":
    run()
