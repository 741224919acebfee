"""Command-line front end: spectra, fidelities, Bell sweeps and Kerr reports as CSV.

Exit codes: 0 success, 2 usage/domain/config/truncation problems, 4
oracle-vs-formula gap above the acceptance threshold.
"""

from __future__ import annotations

import argparse
import math
import sys

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


def _sweep(start: float, stop: float, steps: int, spacing: str) -> np.ndarray:
    """``steps`` finite points from ``start`` to ``stop``, evenly spaced in x or in log x."""
    if not (math.isfinite(start) and math.isfinite(stop) and start < stop):
        raise ConfigError(f"sweep needs finite start < stop, got [{start}, {stop}]")
    if not (2 <= steps <= _MAX_STEPS):
        raise ConfigError(f"sweep needs 2 to {_MAX_STEPS} steps, got {steps}")
    if spacing == "log" and start <= 0.0:
        raise ConfigError("log spacing needs start > 0")
    # the grid is judged, not numpy's warnings: a width stop - start past the
    # float range leaves nan and inf in a linear grid, and a last log point
    # that rounds past it leaves inf
    with np.errstate(all="ignore"):
        if spacing == "log":
            grid = np.logspace(math.log10(start), math.log10(stop), steps)
        else:
            grid = np.linspace(start, stop, steps)
    if not np.isfinite(grid).all():
        raise ConfigError(f"sweep needs finite start < stop and a finite {spacing} grid between them, "
                          f"got [{start}, {stop}]")
    return grid


def _fmt(value) -> str:
    if isinstance(value, float):
        text = f"{value:.12g}"
        return text + ".0" if text.lstrip("-").isdigit() else text
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)  # a str or an int


def _emit(header, rows, out: str | None) -> None:
    # no cell needs CSV quoting: numbers never hold a comma, a quote or a line
    # break, and _parse_state_spec accepts no spec that does
    text = "".join(",".join(map(_fmt, row)) + "\n" for row in [header, *rows])
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {out}: {exc}") from exc


def _parse_state_spec(spec: str):
    """``family:key=value`` as ``(family, value)``, with an int value for mes."""
    family, _, field = spec.partition(":")
    key, eq, value = field.partition("=")
    family, key = family.strip(), key.strip()
    if family not in _FAMILY_KEYS or not eq or "\r" in spec or "\n" in spec:
        raise DomainError(f"state spec must be one family:key=value line, like gmes:b=15 or mes:N=9, got {spec!r}")
    expected = _FAMILY_KEYS[family]
    if key != expected:
        raise DomainError(f"family {family} takes exactly the key {expected!r}, got {key!r}")
    try:
        # a second key=value, after a comma, makes the value fail to parse
        return family, (int if family == "mes" else float)(value)
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
    nbars = _sweep(args.start, args.stop, args.steps, args.spacing)
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
    sweep = {key: default if getattr(args, key) is None else getattr(args, key)
             for key, default in _FIG2_DEFAULTS[args.variant].items()}
    grid = _sweep(**sweep)
    family = "gmes" if args.variant in ("a", "c") else "tmsv"

    if args.variant in ("a", "b"):
        # the overlaps come first, so that a bad parameter fails with their error
        overlaps = mes_overlaps(family, grid, args.dims, args.cap)
        x = grid
        if args.x == "nbar":
            with np.errstate(over="ignore"):
                x = grid * grid / 2.0 if family == "gmes" else np.sinh(grid) ** 2
            # b is below ~450 once its overlaps exist, so only sinh(r)^2 can overflow
            if not np.isfinite(x).all():
                raise DomainError(f"fig2 --x nbar needs a finite sinh(r)^2, got r={_fmt(grid[~np.isfinite(x)][0])}")
        xname = "nbar" if args.x == "nbar" else ("b" if family == "gmes" else "r")
        rows = [(x_value, *row) for x_value, row in zip(x.tolist(), overlaps)]
        _emit((xname, *[f"fid_N{dim}" for dim in args.dims]), rows, args.out)
        return 0

    # Python ints, exact for every float: an int64 cast wraps past 2^63
    dims = [int(value) for value in np.unique(np.rint(grid)) if value >= 1]
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
    gap = abs(result.value - analytic)
    _emit(
        ("analytic", "oracle", "gap", "restarts", "converged"),
        [(analytic, result.value, gap, result.restarts_used, result.converged)],
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


def _int_list(text: str):
    try:
        values = tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected integers, got {text!r}") from exc
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("dimensions must be positive integers")
    return values


def _shared_arguments(p: argparse.ArgumentParser, *shared: str) -> None:
    # each command registers only the shared options it reads
    if "tol" in shared:
        p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="spectrum truncation tolerance")
    if "cap" in shared:
        p.add_argument("--cap", type=int, default=MAX_CUTOFF, help="hard cutoff cap for adaptive spectra")
    p.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    p.add_argument("--config", default=None, help="flat key=value file mirroring flags; flags win")


def _spectrum_arguments(p: argparse.ArgumentParser) -> None:
    _shared_arguments(p, "tol", "cap")
    p.add_argument("--family", choices=tuple(_FAMILY_KEYS), default=None)
    p.add_argument("--r", type=float, default=None, help="squeezing parameter (tmsv)")
    p.add_argument("--b", type=float, default=None, help="radial cutoff parameter (gmes)")
    p.add_argument("--N", type=int, default=None, help="dimension (mes)")


def _fidelity_arguments(p: argparse.ArgumentParser) -> None:
    _shared_arguments(p, "tol", "cap")
    p.add_argument("states", nargs=2, metavar="STATE", help="e.g. tmsv:r=1.0 gmes:b=15 mes:N=200")


def _fig1_arguments(p: argparse.ArgumentParser) -> None:
    _shared_arguments(p)
    p.add_argument("--start", type=float, default=0.01, help="first per-mode nbar")
    p.add_argument("--stop", type=float, default=50.0, help="last per-mode nbar")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--spacing", choices=("linear", "log"), default="log")


def _fig2_arguments(p: argparse.ArgumentParser) -> None:
    _shared_arguments(p, "cap")
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


def _bell_oracle_arguments(p: argparse.ArgumentParser) -> None:
    _shared_arguments(p)
    p.add_argument("--a", type=float, nargs=3, default=None, metavar=("A0", "A1", "A2"),
                   help="qutrit coefficients, normalized internally")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--seed", type=int, default=0, help="base seed for stochastic searches")


def _kerr_arguments(p: argparse.ArgumentParser) -> None:
    _shared_arguments(p)
    p.add_argument("--alpha", type=float, default=None, help="coherent amplitude")
    p.add_argument("--d", type=int, default=None, help="pseudo-number modulus")
    p.add_argument("--cutoff", type=int, default=None, help="Fock cutoff (default: adaptive)")


_DISPATCH = {
    "spectrum": cmd_spectrum,
    "fidelity": cmd_fidelity,
    "fig1": cmd_fig1,
    "fig2": cmd_fig2,
    "bell-oracle": cmd_bell_oracle,
    "kerr": cmd_kerr,
}

# the help line and the options of each command, in the order of _DISPATCH
_COMMANDS = {
    "spectrum": ("emit one Schmidt spectrum as CSV rows n,coeff", _spectrum_arguments),
    "fidelity": ("fidelity between two states given as family:key=value specs", _fidelity_arguments),
    "fig1": ("Bell ceiling of the qutrit truncation vs mean photon number", _fig1_arguments),
    "fig2": ("fidelity sweeps against N-dimensional maximally entangled targets", _fig2_arguments),
    "bell-oracle": ("compare the Bell closed form with the measurement search", _bell_oracle_arguments),
    "kerr": ("cross-Kerr fidelity report with component norms and Gram entries", _kerr_arguments),
}


def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command: what ``gmeslab <name>`` reads after its name."""
    parser = argparse.ArgumentParser(prog=f"gmeslab {name}")
    _COMMANDS[name][1](parser)
    return parser


def _listing_parser() -> argparse.ArgumentParser:
    """The top-level parser, whose commands carry their names and help lines and no options.

    It prints ``gmeslab --help`` and the usage errors that name no command.
    """
    parser = argparse.ArgumentParser(
        prog="gmeslab",
        description="Schmidt spectra, Bell values and fidelities for Gaussian-mode entangled states.",
    )
    sub = parser.add_subparsers(metavar="command")
    for name, (help_text, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_text)
    return parser


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
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # argparse takes a command only as the first token, so a command
        # there needs its parser alone; any other argv is --help or a usage error
        if not argv or argv[0] not in _COMMANDS:
            parser = _listing_parser()
            parser.parse_args(argv)
            parser.print_usage(sys.stderr)
            return 2
        parser = _command_parser(argv[0])
        args, extras = parser.parse_known_args(argv[1:])
        if args.config and not extras:
            # config values go before the command's tokens, so explicit flags,
            # parsed later, still win
            args, extras = parser.parse_known_args(_load_config(args.config, parser) + argv[1:])
        if extras:
            # reported as the top-level parser reports what no parser takes
            _listing_parser().error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _DISPATCH[argv[0]](args)
    except (DomainError, ConfigError, TruncationError, DegenerateInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
