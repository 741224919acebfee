"""Command-line front end: spectra, fidelities, Bell sweeps and Kerr reports as CSV.

Exit codes: 0 success, 2 usage/domain/config/truncation problems, 4
oracle-vs-formula gap above the acceptance threshold.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bell_oracle import maximize_bell
from .crosskerr import _kerr_row, default_cutoff
from .errors import ConfigError, DegenerateInputError, DomainError, TruncationError
from .metrics import QutritState, bell_form, bell_max_analytic, fidelity
from .states import (
    DEFAULT_TOL,
    MAX_CUTOFF,
    _check_cap,
    _poisson_tail_array,
    gmes_spectrum,
    mes_overlaps,
    mes_spectrum,
    tmsv_spectrum,
)

_GAP_LIMIT = 1e-3

_FAMILY_KEYS = {"tmsv": "r", "gmes": "b", "mes": "N"}

# Largest sweep; more steps than this is taken for a typo, not a request.
_MAX_STEPS = 1_000_000

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

    def __post_init__(self):
        if self.spacing not in ("linear", "log"):
            raise ConfigError(f"spacing must be linear or log, got {self.spacing!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop) and self.start < self.stop):
            raise ConfigError(f"sweep needs finite start < stop, got [{self.start}, {self.stop}]")
        if not (2 <= self.steps <= _MAX_STEPS):
            raise ConfigError(f"sweep needs 2 to {_MAX_STEPS} steps, got {self.steps}")

    def grid(self) -> np.ndarray:
        if self.spacing == "log":
            if self.start <= 0.0:
                raise ConfigError("log spacing needs start > 0")
            return np.logspace(math.log10(self.start), math.log10(self.stop), self.steps)
        return np.linspace(self.start, self.stop, self.steps)

    def integer_grid(self) -> list:
        # Python ints, exact for every float: an int64 cast wraps past 2^63
        return [int(value) for value in np.unique(np.rint(self.grid())) if value >= 1]


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


def _parse_state_spec(spec: str):
    """``family:key=value`` as ``(family, value)``, with an int value for mes."""
    family, sep, rest = spec.partition(":")
    family = family.strip()
    usage = "state spec must look like tmsv:r=1.0, gmes:b=15 or mes:N=200"
    if not sep or family not in _FAMILY_KEYS:
        raise DomainError(f"{usage}, got {spec!r}")
    fields = {}
    for part in rest.split(","):
        key, eq, value = part.partition("=")
        if not eq or not key.strip():
            raise DomainError(f"{usage}, got {spec!r}")
        fields[key.strip()] = value.strip()
    expected = _FAMILY_KEYS[family]
    if set(fields) != {expected}:
        raise DomainError(f"family {family} takes exactly the key {expected!r}, got {sorted(fields)}")
    try:
        return family, (int if family == "mes" else float)(fields[expected])
    except ValueError as exc:
        raise DomainError(f"bad numeric value in state spec {spec!r}") from exc


def _spectrum(family: str, value, tol: float, cap: int):
    if family == "tmsv":
        return tmsv_spectrum(value, tol, cap)
    if family == "gmes":
        return gmes_spectrum(value, tol, cap)
    _check_cap(cap)
    if value > cap:
        raise TruncationError(f"mes dimension {value} exceeds the hard cap {cap}")
    return mes_spectrum(value)


def cmd_spectrum(args) -> int:
    if args.family is None:
        raise DomainError("spectrum requires --family tmsv, gmes or mes")
    key = _FAMILY_KEYS[args.family]
    value = getattr(args, key)
    if value is None:
        raise DomainError(f"family {args.family} requires --{key}")
    spectrum = _spectrum(args.family, value, args.tol, args.cap)
    _emit(("n", "coeff"), list(enumerate(spectrum.coeffs)), args.out)
    return 0


def cmd_fidelity(args) -> int:
    # sorted so that a mes spec comes second: an overlap with MES_N is exact
    # from mes_overlaps, and only two truncated spectra need tol
    specs = sorted((_parse_state_spec(spec) for spec in args.states), key=lambda s: s[0] == "mes")
    (family, param), (target, dim) = specs
    if target == "mes":
        value = mes_overlaps(family, param, [dim], args.cap)[0]
    else:
        value = fidelity(*(_spectrum(*spec, args.tol, args.cap) for spec in specs))
    _emit(("state_a", "state_b", "fidelity"), [(args.states[0], args.states[1], value)], args.out)
    return 0


def _unit(a) -> np.ndarray:
    """``a`` over its Euclidean norm, for any finite nonzero ``a``."""
    # a is first scaled exactly, by the power of two that puts max |a_i| in
    # [0.5, 1), so its norm neither overflows nor is subnormal.  math.hypot
    # scales by the same power internally, so wherever a / hypot(a) is finite
    # and normal the quotient is the same bit for bit.
    e = -math.frexp(max(map(abs, a)))[1]
    a = [math.ldexp(x, e) for x in a]
    return np.divide(a, math.hypot(*a))


def _bell_of_rows(a: np.ndarray) -> np.ndarray:
    """Closed-form Bell maximum B(a)/|a|^2 of the qutrit state along each row of ``a``."""
    a0, a1, a2 = a.T
    return bell_form(a0, a1, a2) / (a0 * a0 + a1 * a1 + a2 * a2)


def cmd_fig1(args) -> int:
    # GMES: c_n = sqrt(P(X > n)/lam), X ~ Poisson(lam = b^2 = 2 nbar) since sum_n n f(n, b) = b^2/2;
    # TMSV: c_n = t^n / cosh r, t^2 = nbar/(1 + nbar).  Renormalizing cancels 1/lam and 1/cosh r.
    cfg = SweepConfig(start=args.start, stop=args.stop, steps=args.steps, spacing=args.spacing)
    nbars = cfg.grid()
    tails = np.empty((nbars.size, 3))
    # point by point, so that 2 nbar = inf is refused before numpy could warn on it
    for row, nbar in zip(tails, nbars.tolist()):
        lam = 2.0 * nbar
        if not (nbar >= 1e-150 and math.isfinite(lam)):
            raise DomainError(f"fig1 needs nbar >= 1e-150, where P(X > 1) ~ 2 nbar^2 is still a normal float, "
                              f"and 2 nbar finite, got nbar={_fmt(nbar)}")
        row[:] = _poisson_tail_array(lam, 2)
    t = np.sqrt(nbars / (1.0 + nbars))
    tmsv = np.stack((np.ones_like(t), t, t * t), axis=1)
    rows = zip(nbars.tolist(), _bell_of_rows(np.sqrt(tails)).tolist(), _bell_of_rows(tmsv).tolist())
    _emit(("nbar", "bell_gmes", "bell_tmsv"), rows, args.out)
    return 0


def cmd_fig2(args) -> int:
    if args.variant is None:
        raise DomainError("fig2 requires --variant a, b, c or d")
    defaults = _FIG2_DEFAULTS[args.variant]
    start = defaults["start"] if args.start is None else args.start
    stop = defaults["stop"] if args.stop is None else args.stop
    steps = defaults["steps"] if args.steps is None else args.steps
    spacing = defaults["spacing"] if args.spacing is None else args.spacing
    family = "gmes" if args.variant in ("a", "c") else "tmsv"
    cfg = SweepConfig(start=start, stop=stop, steps=steps, spacing=spacing)

    if args.variant in ("a", "b"):
        dims = args.dims
        use_nbar = args.x == "nbar"
        rows = []
        for value in cfg.grid():
            x = value
            if use_nbar:
                try:
                    x = value * value / 2.0 if family == "gmes" else math.sinh(value) ** 2
                except OverflowError:
                    raise DomainError(f"fig2 --x nbar needs a finite sinh(r)^2, got r={_fmt(value)}") from None
            rows.append((x, *mes_overlaps(family, value, dims, args.cap)))
        xname = "nbar" if use_nbar else ("b" if family == "gmes" else "r")
        _emit((xname, *[f"fid_N{dim}" for dim in dims]), rows, args.out)
        return 0

    dims = cfg.integer_grid()
    value = args.b if args.variant == "c" else args.r
    _emit(("N", "fidelity"), list(zip(dims, mes_overlaps(family, value, dims, args.cap))), args.out)
    return 0


def cmd_bell_oracle(args) -> int:
    if args.a is None:
        raise DomainError("bell-oracle requires --a A0 A1 A2")
    if not all(map(math.isfinite, args.a)) or not any(args.a):
        raise DomainError("coefficients must be finite and not all zero")
    state = QutritState(_unit(args.a))
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
    value, norms2, gram_row = _kerr_row(args.alpha, args.d, cutoff)
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
        *np.abs(gram_row[1:]),
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

    def add_command(name: str, help_text: str, *shared: str) -> argparse.ArgumentParser:
        # each command registers only the shared options it reads
        p = sub.add_parser(name, help=help_text)
        if "tol" in shared:
            p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="spectrum truncation tolerance")
        if "cap" in shared:
            p.add_argument("--cap", type=int, default=MAX_CUTOFF, help="hard cutoff cap for adaptive spectra")
        p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
        p.add_argument("--config", default=None, help="flat key=value file mirroring flags; flags win")
        subparsers[name] = p
        return p

    p = add_command("spectrum", "emit one Schmidt spectrum as CSV rows n,coeff", "tol", "cap")
    p.add_argument("--family", choices=tuple(_FAMILY_KEYS), default=None)
    p.add_argument("--r", type=float, default=None, help="squeezing parameter (tmsv)")
    p.add_argument("--b", type=float, default=None, help="radial cutoff parameter (gmes)")
    p.add_argument("--N", type=int, default=None, help="dimension (mes)")

    p = add_command("fidelity", "fidelity between two states given as family:key=value specs", "tol", "cap")
    p.add_argument("states", nargs=2, metavar="STATE", help="e.g. tmsv:r=1.0 gmes:b=15 mes:N=200")

    p = add_command("fig1", "Bell ceiling of the qutrit truncation vs mean photon number")
    p.add_argument("--start", type=float, default=0.01, help="first per-mode nbar")
    p.add_argument("--stop", type=float, default=50.0, help="last per-mode nbar")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--spacing", choices=("linear", "log"), default="log")

    p = add_command("fig2", "fidelity sweeps against N-dimensional maximally entangled targets", "cap")
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
    p.add_argument("--seed", type=int, default=0, help="base seed for stochastic searches")

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
    except (DomainError, ConfigError, TruncationError, DegenerateInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
