"""Independent checks of gmeslab's outputs.

Every reference here is computed apart from gmeslab, from scipy.special and
closed forms, and every check runs in the benchmark's parent process, after
the timed process has exited, so it adds neither time nor memory to it.

Each ``check_*`` function returns a list of problems; an empty list passes.
``classify`` says whether an operation failed (an error, a nonzero exit code,
or a recorded tail above tol, which is fault F-tail).
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy.special import gammaln, pdtrc, xlogy

# gmeslab's default truncation tolerance; every operation here runs at it.
TOL = 1e-12

# CSV values carry 12 significant digits (relative rounding up to 5e-12);
# the rest covers the methods' own error on these inputs.
CSV_RTOL = 1e-10
# fig1's GMES column against b = sqrt(2 nbar): the program bisects on the
# truncated mean, which moves it by up to 1.4e-10 relative on the default grid.
FIG1_GMES_RTOL = 1e-9
# GMES coefficients against sqrt(pdtrc(n, b^2)/b^2): worst today 9.2e-11
# relative over the integer radii 30..400.
COEFF_RTOL = 2.5e-10
# poisson_tail at means up to 1.6e5 against pdtrc: worst seen 1.3e-10.
PTAIL_RTOL = 5e-10
# TMSV coefficients against t^n / cosh r.
TMSV_RTOL = 1e-11
# Kerr fidelity against (sum_k n_k)^2 / d: agrees to 5e-13 today.
KERR_ATOL = 1e-11
# Floating-point slack on Gram magnitudes beyond the truncation loss.
GRAM_ATOL = 1e-12

FIG2_DEFAULTS = {
    "a": (0.01, 30.0, 300, "linear"),
    "b": (0.01, 8.0, 300, "linear"),
    "c": (1.0, 2000.0, 200, "log"),
    "d": (1.0, 20000.0, 200, "log"),
}
FIG2_DIMS = (5, 20, 200, 1000)
FIG2_FIXED_B = 15.0
FIG2_FIXED_R = 5.0
ORACLE_GAP = 1e-3
ORACLE_RESTARTS = 32


def _grid(start, stop, steps, spacing):
    if spacing == "log":
        return np.logspace(math.log10(start), math.log10(stop), steps)
    return np.linspace(start, stop, steps)


# fig1's default grid: 200 log-spaced per-mode mean photon numbers.
FIG1_NBAR = _grid(0.01, 50.0, 200, "log")


def _close(value, ref, rtol, what, atol=0.0):
    value = np.asarray(value, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if value.shape != ref.shape:
        return [f"{what}: shape {value.shape} != reference {ref.shape}"]
    err = np.abs(value - ref)
    bad = err > rtol * np.abs(ref) + atol
    if np.any(bad):
        i = int(np.argmax(np.where(bad, err, -1.0)))
        return [f"{what}: {int(bad.sum())} values off, e.g. {value.flat[i]!r} vs reference {ref.flat[i]!r}"]
    return []


_BOOLS = {"true": 1.0, "false": 0.0}


def _read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], np.array([[_BOOLS.get(x, x) for x in row] for row in rows[1:]], dtype=float)


# --- GMES: f(n, b) = P(X > n)/b^2, X ~ Poisson(b^2) ---------------------------


def gmes_profile(b):
    """f(n, b) for n up to where it vanishes, and tail[m] = sum_{n > m} f(n, b)."""
    lam = float(b) * float(b)
    n_end = int(lam + 40.0 * math.sqrt(lam) + 60.0)
    f = pdtrc(np.arange(n_end + 1), lam) / lam
    tail = np.zeros_like(f)
    tail[:-1] = np.cumsum(f[:0:-1])[::-1]  # summed smallest first
    return f, tail


def gmes_overlaps(b, dims):
    """Overlap of GMES_b with MES_N, and how far a correct truncation may lower it.

    The reference is the untruncated sum sum_{n<N} sqrt(f(n, b))/sqrt(N).  A
    spectrum truncated where the mass beyond it is at most 2 tol keeps at
    least the first m0 + 1 terms, m0 the least m with sum_{n>m} f <= 2 tol;
    the terms it may drop sum to at most sum_{m0<n<N} sqrt(f)/sqrt(N), which is
    at most sqrt(2 tol) by Cauchy-Schwarz.
    """
    f, tail = gmes_profile(b)
    c = np.sqrt(f)
    m0 = int(np.argmax(tail <= 2.0 * TOL))
    csum = np.concatenate(([0.0], np.cumsum(c)))
    refs, slack = [], []
    for n_target in dims:
        n_target = int(n_target)
        k = min(n_target, c.size)
        refs.append(csum[k] / math.sqrt(n_target))
        slack.append(max(0.0, csum[k] - csum[min(m0 + 1, k)]) / math.sqrt(n_target))
    return np.array(refs), np.array(slack)


def _overlaps_ok(values, refs, slack, what):
    values = np.asarray(values, dtype=float)
    low = refs - slack - CSV_RTOL * refs
    high = refs + CSV_RTOL * refs
    bad = (values < low) | (values > high)
    if np.any(bad):
        i = int(np.argmax(bad))
        return [f"{what}: {int(bad.sum())} overlaps off, e.g. {values[i]!r} outside "
                f"[{low[i]!r}, {high[i]!r}]"]
    return []


# --- TMSV: c_n = t^n / cosh r, t = tanh r --------------------------------------


def _tmsv_logs(r):
    one_minus_t = 2.0 / (math.exp(2.0 * r) + 1.0)
    return one_minus_t, math.log1p(-one_minus_t)


def tmsv_overlaps(r, dims):
    """Closed form (1 - t^N)/((1 - t) cosh r sqrt(N)) and the truncation slack."""
    one_minus_t, log_t = _tmsv_logs(r)
    cosh_r = math.cosh(r)
    # least m with t^(2(m+1)) <= 2 tol: a correct cutoff keeps terms 0..m0
    m0 = max(0, math.ceil(math.log(2.0 * TOL) / (2.0 * log_t)) - 1)
    refs, slack = [], []
    for n_target in dims:
        n_target = int(n_target)
        norm = one_minus_t * cosh_r * math.sqrt(n_target)
        refs.append(-math.expm1(n_target * log_t) / norm)
        dropped = n_target - m0 - 1
        slack.append(math.exp((m0 + 1) * log_t) * -math.expm1(dropped * log_t) / norm if dropped > 0 else 0.0)
    return np.array(refs), np.array(slack)


# --- Bell closed form ------------------------------------------------------------


def bell_closed_form(a):
    a = np.asarray(a, dtype=float)
    a0, a1, a2 = a / np.linalg.norm(a)
    return 4.0 * a0 * a1 + (4.0 / math.sqrt(3.0)) * (a0 * a2 + a1 * a2)


# --- CLI outputs -------------------------------------------------------------------


def check_fig1(argv, text):
    header, rows = _read_csv(text)
    if header != ["nbar", "bell_gmes", "bell_tmsv"]:
        return [f"fig1: unexpected header {header}"]
    nbar = FIG1_NBAR
    problems = _close(rows[:, 0], nbar, CSV_RTOL, "fig1 nbar")
    if problems:
        return problems
    # sum_n n f(n, b) = b^2/2, so the GMES point of mean nbar has b^2 = 2 nbar.
    gmes = [bell_closed_form(np.sqrt(pdtrc(np.arange(3), 2.0 * x) / (2.0 * x))) for x in nbar]
    t = np.sqrt(nbar / (1.0 + nbar))
    tmsv = [bell_closed_form([1.0, ti, ti * ti]) for ti in t]
    return _close(rows[:, 1], gmes, FIG1_GMES_RTOL, "fig1 bell_gmes") + _close(rows[:, 2], tmsv, CSV_RTOL, "fig1 bell_tmsv")


def check_fig2(argv, text):
    variant = argv[argv.index("--variant") + 1]
    header, rows = _read_csv(text)
    grid = _grid(*FIG2_DEFAULTS[variant])
    if variant in "ab":
        if header != ["b" if variant == "a" else "r", *[f"fid_N{n}" for n in FIG2_DIMS]]:
            return [f"fig2 {variant}: unexpected header {header}"]
        problems = _close(rows[:, 0], grid, CSV_RTOL, f"fig2 {variant} x")
        for x, row in zip(grid, rows):
            refs, slack = (gmes_overlaps if variant == "a" else tmsv_overlaps)(x, FIG2_DIMS)
            problems += _overlaps_ok(row[1:], refs, slack, f"fig2 {variant} at {x:g}")
        return problems
    if header != ["N", "fidelity"]:
        return [f"fig2 {variant}: unexpected header {header}"]
    dims = np.unique(np.rint(grid).astype(int))
    dims = dims[dims >= 1]
    problems = _close(rows[:, 0], dims, 0.0, f"fig2 {variant} N")
    if problems:
        return problems
    if variant == "c":
        refs, slack = gmes_overlaps(FIG2_FIXED_B, dims)
    else:
        refs, slack = tmsv_overlaps(FIG2_FIXED_R, dims)
    return _overlaps_ok(rows[:, 1], refs, slack, f"fig2 {variant}")


def check_bell_oracle(argv, text):
    header, rows = _read_csv(text)
    if header != ["analytic", "oracle", "gap", "restarts", "converged"]:
        return [f"bell-oracle: unexpected header {header}"]
    i = argv.index("--a")
    ref = bell_closed_form([float(x) for x in argv[i + 1 : i + 4]])
    analytic, oracle, gap, restarts = rows[0, :4]
    problems = _close(analytic, ref, CSV_RTOL, "bell-oracle analytic")
    if oracle > ref * (1.0 + CSV_RTOL):
        problems.append(f"bell-oracle: oracle {oracle!r} exceeds the closed form {ref!r}")
    if oracle < ref - ORACLE_GAP:
        problems.append(f"bell-oracle: oracle {oracle!r} more than {ORACLE_GAP} below {ref!r}")
    if abs(gap - abs(analytic - oracle)) > 2.0 * CSV_RTOL * ref:
        problems.append(f"bell-oracle: gap {gap!r} != |analytic - oracle|")
    if restarts != ORACLE_RESTARTS:
        problems.append(f"bell-oracle: {restarts!r} restarts, expected {ORACLE_RESTARTS}")
    return problems


def check_kerr(argv, text):
    header, rows = _read_csv(text)
    alpha = float(argv[argv.index("--alpha") + 1])
    d = int(argv[argv.index("--d") + 1])
    expected = ["alpha", "d", "cutoff", "fidelity", *[f"norm2_k{k}" for k in range(d)],
                *[f"gram_0{k}" for k in range(1, d)]]
    if header != expected or rows.shape[0] != 1:
        return [f"kerr: unexpected header {header}"]
    row = rows[0]
    cutoff = int(row[2])
    problems = _close(row[0], alpha, CSV_RTOL, "kerr alpha")
    if int(row[1]) != d:
        problems.append(f"kerr: d {row[1]!r} != {d}")
    if "--cutoff" in argv and cutoff != int(argv[argv.index("--cutoff") + 1]):
        problems.append(f"kerr: cutoff {cutoff} != requested")
    lam = alpha * alpha
    n = np.arange(cutoff + 1)
    pmf = np.exp(xlogy(n, lam) - lam - gammaln(n + 1.0))
    norms2 = np.bincount(n % d, weights=pmf, minlength=d)
    problems += _close(row[4 : 4 + d], norms2, CSV_RTOL, "kerr norm2_k")
    # F = (sum_k n_k)^2 / d, n_k^2 the Poisson weight at levels = k (mod d).
    problems += _close(row[3], np.sum(np.sqrt(norms2)) ** 2 / d, 0.0, "kerr fidelity", atol=KERR_ATOL)
    k = np.arange(1, d)
    gram = np.exp(-lam * (1.0 - np.cos(2.0 * np.pi * k / d)))
    loss = float(pdtrc(cutoff, lam))
    problems += _close(row[4 + d :], gram, CSV_RTOL, "kerr gram_0k", atol=loss + GRAM_ATOL)
    return problems


# --- library outputs ------------------------------------------------------------------


def check_gmes(args, out, squared=False):
    """``out`` holds ``array`` (coefficients, or weights if ``squared``) and ``tail_bound``."""
    f, tail = gmes_profile(args[0])
    values = out["array"]
    m = values.size - 1
    if m >= f.size:
        return [f"cutoff {m} beyond the reference range {f.size - 1}"]
    ref = f[: m + 1] if squared else np.sqrt(f[: m + 1])
    what = "gmms probs" if squared else "gmes coeffs"
    problems = _close(values, ref, 2.0 * COEFF_RTOL if squared else COEFF_RTOL, f"{what} b={args[0]}")
    mass = float(np.sum(values if squared else values * values))
    if abs(1.0 - mass - out["tail_bound"]) > 1e-9:
        problems.append(f"{what} b={args[0]}: tail_bound {out['tail_bound']!r} != 1 - mass {1.0 - mass!r}")
    if tail[m] > TOL:
        problems.append(f"{what} b={args[0]}: mass {tail[m]!r} beyond cutoff {m} exceeds tol")
    return problems


def check_tmsv(args, out):
    r = float(args[0])
    coeffs = out["array"]
    _, log_t = _tmsv_logs(r)
    n = np.arange(coeffs.size)
    problems = _close(coeffs, np.exp(n * log_t) / math.cosh(r), TMSV_RTOL, f"tmsv coeffs r={r}")
    problems += _close(out["tail_bound"], math.exp(2.0 * coeffs.size * log_t), 1e-9, f"tmsv tail r={r}")
    return problems


def check_lib(op, out):
    fn, args = op["fn"], op["args"]
    if fn == "gmes_spectrum":
        return check_gmes(args, out)
    if fn == "gmms_distribution":
        return check_gmes(args, out, squared=True)
    if fn == "tmsv_spectrum":
        return check_tmsv(args, out)
    if fn == "poisson_tail":
        return _close(out["value"], pdtrc(args[0], args[1]), PTAIL_RTOL, f"poisson_tail{tuple(args)}")
    if fn == "fidelity_gmes_mes":
        refs, slack = gmes_overlaps(args[0], [args[1]])
        return _overlaps_ok([out["value"]], refs, slack, f"fidelity(gmes {args[0]}, mes {args[1]})")
    return [f"no check for library function {fn}"]


def check_cli(op, text):
    command = op["argv"][0]
    checker = {"fig1": check_fig1, "fig2": check_fig2, "bell-oracle": check_bell_oracle, "kerr": check_kerr}
    return checker[command](op["argv"], text)


def check(op, out):
    """Problems with one operation's output (CSV text or dict of arrays and numbers)."""
    if op["kind"] == "cli":
        return check_cli(op, out)
    return check_lib(op, out)


def classify(op, status, out):
    """The fault an operation shows, or None if it did not fail."""
    if status != "ok":
        return status
    if op["kind"] == "lib" and op["fn"] in ("gmes_spectrum", "gmms_distribution") and out["tail_bound"] > TOL:
        return f"tail_bound {out['tail_bound']:.3g} > tol"
    return None
