"""Command-line front end: spectra, fidelities, Bell sweeps and Kerr reports as CSV.

Exit codes: 0 success, 2 usage/domain/config problems, 3 sweep solver
failures, 4 oracle-vs-formula gap above the acceptance threshold.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bell_oracle import maximize_bell
from .crosskerr import (
    coherent_fock,
    default_cutoff,
    kerr_mes_fidelity,
    pseudo_number_component,
    pseudo_phase_gram,
)
from .errors import (
    ConfigError,
    DegenerateInputError,
    DomainError,
    SolverError,
    TruncationError,
)
from .metrics import QutritState, bell_max_analytic, fidelity, qutrit_truncate
from .states import (
    DEFAULT_TOL,
    MAX_CUTOFF,
    gmes_spectrum,
    mes_spectrum,
    solve_b_for_nbar,
    solve_r_for_nbar,
    tmsv_partial_spectrum,
    tmsv_spectrum,
)

_GAP_LIMIT = 1e-3

_FIG2_DEFAULTS = {
    "a": {"start": 0.01, "stop": 30.0, "steps": 300, "spacing": "linear"},
    "b": {"start": 0.01, "stop": 8.0, "steps": 300, "spacing": "linear"},
    "c": {"start": 1.0, "stop": 2000.0, "steps": 200, "spacing": "log"},
    # the d-curve for the default r=5 peaks near N ~ 1.4e4, so its default
    # range must reach past that to show the maximum
    "d": {"start": 1.0, "stop": 20000.0, "steps": 200, "spacing": "log"},
}


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep description shared by the figure commands."""

    start: float
    stop: float
    steps: int
    spacing: str
    tol: float = DEFAULT_TOL
    cap: int = MAX_CUTOFF

    def __post_init__(self):
        if self.spacing not in ("linear", "log"):
            raise ConfigError(f"spacing must be linear or log, got {self.spacing!r}")
        if not (self.start < self.stop):
            raise ConfigError(f"sweep needs start < stop, got [{self.start}, {self.stop}]")
        if self.steps < 2:
            raise ConfigError(f"sweep needs at least 2 steps, got {self.steps}")
        if not (0.0 < self.tol < 1.0):
            raise ConfigError(f"tol must lie in (0, 1), got {self.tol}")
        if self.cap < 1:
            raise ConfigError(f"cutoff cap must be positive, got {self.cap}")

    def grid(self) -> np.ndarray:
        if self.spacing == "log":
            if self.start <= 0.0:
                raise ConfigError("log spacing needs start > 0")
            return np.logspace(math.log10(self.start), math.log10(self.stop), self.steps)
        return np.linspace(self.start, self.stop, self.steps)

    def integer_grid(self) -> np.ndarray:
        values = np.unique(np.rint(self.grid()).astype(int))
        return values[values >= 1]


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    text = f"{float(value):.12g}"
    if text.lstrip("-").isdigit():
        text += ".0"
    return text


def _write_csv(handle, header, rows) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell if isinstance(cell, str) else _fmt(cell) for cell in row])


def _emit(header, rows, out: str | None) -> None:
    if out is None:
        _write_csv(sys.stdout, header, rows)
        return
    with open(out, "w", encoding="ascii", newline="") as handle:
        _write_csv(handle, header, rows)


def _parse_state_spec(spec: str, tol: float, cap: int):
    family, sep, rest = spec.partition(":")
    family = family.strip()
    usage = "state spec must look like tmsv:r=1.0, gmes:b=15 or mes:N=200"
    if not sep or family not in ("tmsv", "gmes", "mes"):
        raise DomainError(f"{usage}, got {spec!r}")
    fields = {}
    for part in rest.split(","):
        key, eq, value = part.partition("=")
        if not eq or not key.strip():
            raise DomainError(f"{usage}, got {spec!r}")
        fields[key.strip()] = value.strip()
    expected = {"tmsv": "r", "gmes": "b", "mes": "N"}[family]
    if set(fields) != {expected}:
        raise DomainError(f"family {family} takes exactly the key {expected!r}, got {sorted(fields)}")
    try:
        if family == "mes":
            return mes_spectrum(int(fields["N"]))
        value = float(fields[expected])
    except ValueError as exc:
        raise DomainError(f"bad numeric value in state spec {spec!r}") from exc
    if family == "tmsv":
        return tmsv_spectrum(value, tol, cap)
    return gmes_spectrum(value, tol, cap)


def cmd_spectrum(args) -> int:
    if args.family is None:
        raise DomainError("spectrum requires --family tmsv, gmes or mes")
    if args.family == "tmsv":
        if args.r is None:
            raise DomainError("family tmsv requires --r")
        spectrum = tmsv_spectrum(args.r, args.tol, args.cap)
    elif args.family == "gmes":
        if args.b is None:
            raise DomainError("family gmes requires --b")
        spectrum = gmes_spectrum(args.b, args.tol, args.cap)
    else:
        if args.N is None:
            raise DomainError("family mes requires --N")
        spectrum = mes_spectrum(args.N)
    _emit(("n", "coeff"), list(enumerate(spectrum.coeffs)), args.out)
    return 0


def cmd_fidelity(args) -> int:
    first = _parse_state_spec(args.states[0], args.tol, args.cap)
    second = _parse_state_spec(args.states[1], args.tol, args.cap)
    value = fidelity(first, second)
    _emit(("state_a", "state_b", "fidelity"), [(args.states[0], args.states[1], value)], args.out)
    return 0


def cmd_fig1(args) -> int:
    cfg = SweepConfig(
        start=args.start,
        stop=args.stop,
        steps=args.steps,
        spacing=args.spacing,
        tol=args.tol,
        cap=args.cap,
    )
    rows = []
    for nbar in cfg.grid():
        try:
            r = solve_r_for_nbar(nbar)
            b = solve_b_for_nbar(nbar)
        except SolverError as exc:
            raise SolverError(f"fig1 sweep failed at nbar={_fmt(nbar)}: {exc}") from exc
        bell_gmes = bell_max_analytic(qutrit_truncate(gmes_spectrum(b, cfg.tol, cfg.cap))).value
        bell_tmsv = bell_max_analytic(qutrit_truncate(tmsv_spectrum(r, cfg.tol, cfg.cap))).value
        rows.append((nbar, bell_gmes, bell_tmsv))
    _emit(("nbar", "bell_gmes", "bell_tmsv"), rows, args.out)
    return 0


def _tmsv_leading(r: float, tol: float, cap: int, needed: int):
    # squeezing too strong for the cap: keep the leading coefficients, which
    # is exact for fidelities against targets of dimension <= needed
    try:
        return tmsv_spectrum(r, tol, cap)
    except TruncationError:
        return tmsv_partial_spectrum(r, needed)


def _mes_overlaps(spectrum, dims) -> list:
    # fidelity with MES_N is sum_{n<N} c_n / sqrt(N): one prefix sum serves
    # every N, so no N-entry target vector is built.
    csum = np.cumsum(spectrum.coeffs)
    return [min(1.0, float(csum[min(dim, csum.size) - 1]) / math.sqrt(dim)) for dim in dims]


def cmd_fig2(args) -> int:
    if args.variant is None:
        raise DomainError("fig2 requires --variant a, b, c or d")
    defaults = _FIG2_DEFAULTS[args.variant]
    start = defaults["start"] if args.start is None else args.start
    stop = defaults["stop"] if args.stop is None else args.stop
    steps = defaults["steps"] if args.steps is None else args.steps
    spacing = defaults["spacing"] if args.spacing is None else args.spacing
    family = "gmes" if args.variant in ("a", "c") else "tmsv"
    cfg = SweepConfig(start=start, stop=stop, steps=steps, spacing=spacing, tol=args.tol, cap=args.cap)

    if args.variant in ("a", "b"):
        dims = args.dims
        use_nbar = args.x == "nbar"
        rows = []
        for value in cfg.grid():
            if family == "gmes":
                spectrum = gmes_spectrum(value, cfg.tol, cfg.cap)
                x = value * value / 2.0 if use_nbar else value
            else:
                spectrum = _tmsv_leading(value, cfg.tol, cfg.cap, max(dims))
                x = math.sinh(value) ** 2 if use_nbar else value
            rows.append((x, *_mes_overlaps(spectrum, dims)))
        xname = "nbar" if use_nbar else ("b" if family == "gmes" else "r")
        _emit((xname, *[f"fid_N{dim}" for dim in dims]), rows, args.out)
        return 0

    dims = [int(dim) for dim in cfg.integer_grid()]
    if args.variant == "c":
        spectrum = gmes_spectrum(args.b, cfg.tol, cfg.cap)
    else:
        spectrum = _tmsv_leading(args.r, cfg.tol, cfg.cap, max(dims, default=1))
    _emit(("N", "fidelity"), list(zip(dims, _mes_overlaps(spectrum, dims))), args.out)
    return 0


def cmd_bell_oracle(args) -> int:
    if args.a is None:
        raise DomainError("bell-oracle requires --a A0 A1 A2")
    coeffs = np.asarray(args.a, dtype=float)
    norm = float(np.linalg.norm(coeffs))
    if not np.all(np.isfinite(coeffs)) or norm == 0.0:
        raise DomainError("coefficients must be finite and not all zero")
    state = QutritState(coeffs / norm)
    analytic = bell_max_analytic(state)
    result = maximize_bell(state, restarts=args.restarts, seed=args.seed)
    gap = abs(result.value - analytic.value)
    _emit(
        ("analytic", "oracle", "gap", "restarts", "converged"),
        [(analytic.value, result.value, gap, result.restarts_used, result.converged)],
        args.out,
    )
    return 0 if gap <= _GAP_LIMIT else 4


def cmd_kerr(args) -> int:
    if args.alpha is None:
        raise DomainError("kerr requires --alpha")
    if args.d is None:
        raise DomainError("kerr requires --d")
    cutoff = default_cutoff(args.alpha) if args.cutoff is None else args.cutoff
    value = kerr_mes_fidelity(args.alpha, args.d, cutoff)
    coherent = coherent_fock(args.alpha, cutoff)
    norms2 = [pseudo_number_component(coherent, args.d, k)[1] ** 2 for k in range(args.d)]
    gram = pseudo_phase_gram(args.alpha, args.d, cutoff)
    header = (
        "alpha",
        "d",
        "cutoff",
        "fidelity",
        *[f"norm2_k{k}" for k in range(args.d)],
        *[f"gram_0{k}" for k in range(1, args.d)],
    )
    row = (
        float(args.alpha),
        int(args.d),
        int(cutoff),
        value,
        *norms2,
        *[abs(gram[0, k]) for k in range(1, args.d)],
    )
    _emit(header, [row], args.out)
    return 0


_DISPATCH = {
    "spectrum": cmd_spectrum,
    "fidelity": cmd_fidelity,
    "fig1": cmd_fig1,
    "fig2": cmd_fig2,
    "bell-oracle": cmd_bell_oracle,
    "kerr": cmd_kerr,
}


def _int_list(text: str):
    try:
        values = tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}") from exc
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("dimensions must be positive integers")
    return values


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gmeslab",
        description="Schmidt spectra, Bell values and fidelities for Gaussian-mode entangled states.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    subparsers = {}

    def add_command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="spectrum truncation tolerance")
        p.add_argument("--cap", type=int, default=MAX_CUTOFF, help="hard cutoff cap for adaptive spectra")
        p.add_argument("--seed", type=int, default=0, help="base seed for stochastic searches")
        p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
        p.add_argument("--config", default=None, help="flat key=value file mirroring flags; flags win")
        subparsers[name] = p
        return p

    p = add_command("spectrum", "emit one Schmidt spectrum as CSV rows n,coeff")
    p.add_argument("--family", choices=("tmsv", "gmes", "mes"), default=None)
    p.add_argument("--r", type=float, default=None, help="squeezing parameter (tmsv)")
    p.add_argument("--b", type=float, default=None, help="radial cutoff parameter (gmes)")
    p.add_argument("--N", type=int, default=None, help="dimension (mes)")

    p = add_command("fidelity", "fidelity between two states given as family:key=value specs")
    p.add_argument("states", nargs=2, metavar="STATE", help="e.g. tmsv:r=1.0 gmes:b=15 mes:N=200")

    p = add_command("fig1", "Bell ceiling of the qutrit truncation vs mean photon number")
    p.add_argument("--start", type=float, default=0.01, help="first per-mode nbar")
    p.add_argument("--stop", type=float, default=50.0, help="last per-mode nbar")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--spacing", choices=("linear", "log"), default="log")

    p = add_command("fig2", "fidelity sweeps against N-dimensional maximally entangled targets")
    p.add_argument("--variant", choices=("a", "b", "c", "d"), default=None,
                   help="a: gmes vs b, b: tmsv vs r, c: gmes(b fixed) vs N, d: tmsv(r fixed) vs N")
    p.add_argument("--start", type=float, default=None)
    p.add_argument("--stop", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--spacing", choices=("linear", "log"), default=None)
    p.add_argument("--dims", type=_int_list, default=(5, 20, 200, 1000),
                   help="target dimensions for variants a/b, comma separated")
    p.add_argument("--x", choices=("param", "nbar"), default="param",
                   help="x column for variants a/b: raw parameter or per-mode mean photon number")
    p.add_argument("--b", type=float, default=15.0, help="fixed parameter for variant c")
    p.add_argument("--r", type=float, default=5.0, help="fixed parameter for variant d")

    p = add_command("bell-oracle", "compare the Bell closed form with the measurement search")
    p.add_argument("--a", type=float, nargs=3, default=None, metavar=("A0", "A1", "A2"),
                   help="qutrit coefficients, normalized internally")
    p.add_argument("--restarts", type=int, default=32)

    p = add_command("kerr", "cross-Kerr fidelity report with component norms and Gram entries")
    p.add_argument("--alpha", type=float, default=None, help="coherent amplitude")
    p.add_argument("--d", type=int, default=None, help="pseudo-number modulus")
    p.add_argument("--cutoff", type=int, default=None, help="Fock cutoff (default: adaptive)")

    return parser, subparsers


def _load_config(path: str, subparser: argparse.ArgumentParser) -> list:
    """Turn a flat key=value file into argv tokens for ``subparser``'s flags."""
    actions = {}
    for action in subparser._actions:
        for option in action.option_strings:
            if option.startswith("--"):
                actions[option[2:]] = action
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    tokens = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        action = actions.get(key)
        if action is None or key in ("config", "help"):
            raise ConfigError(f"{path}:{lineno}: unknown option {key!r}")
        if action.nargs is None:
            tokens.append(f"--{key}={value}")
        else:
            tokens += [f"--{key}", *value.replace(",", " ").split()]
    return tokens


def main(argv=None) -> int:
    parser, subparsers = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.command is not None and args.config:
            # config values go right after the subcommand, so explicit flags,
            # parsed later, still win
            at = argv.index(args.command) + 1
            config_argv = _load_config(args.config, subparsers[args.command])
            args = parser.parse_args(argv[:at] + config_argv + argv[at:])
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return _DISPATCH[args.command](args)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, ConfigError, TruncationError, DegenerateInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
