"""Acceptance gate: one test per release criterion, one printed verdict each.

Every test ends in ``acceptance_report(...)``, which records a single line

    criterion N: PASS|FAIL (details)

replayed in the terminal summary (see conftest), and then asserts.
Tolerances are the pinned release numbers, not looser.
"""

import math
import time

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from gmeslab import (
    QutritState,
    bell_max_analytic,
    fidelity,
    gmes_spectrum,
    kerr_mes_fidelity,
    maximize_bell,
    mes_spectrum,
    pseudo_phase_gram,
    purify,
    qutrit_truncate,
    thermal_distribution,
    tmsv_spectrum,
)
from gmeslab.cli import main

UNIFORM = QutritState(np.full(3, 1.0 / math.sqrt(3.0)))


def mes_fidelity_peak(spectrum):
    """Exact max over every N of the overlap with the N-dimensional uniform state.

    fidelity(MES_N, s) = (1/sqrt N) sum_{n<N} c_n, so one cumulative sum scans
    all dimensions at once.
    """
    partial = np.cumsum(spectrum.coeffs)
    dims = np.arange(1, partial.size + 1)
    values = partial / np.sqrt(dims)
    i = int(values.argmax())
    return float(values[i]), int(dims[i])


def test_criterion_1_uniform_bell_limit(acceptance_report):
    t0 = time.perf_counter()
    analytic = bell_max_analytic(UNIFORM)
    result = maximize_bell(UNIFORM, restarts=32, seed=0)
    elapsed = time.perf_counter() - t0
    gap = abs(result.value - analytic)
    ok = abs(analytic - 2.8735) <= 1e-3 and gap <= 1e-3 and elapsed < 10.0
    acceptance_report(
        1,
        ok,
        f"analytic {analytic:.6f}, oracle {result.value:.6f}, gap {gap:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_oracle_equivalence(acceptance_report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        a = rng.uniform(0.0, 1.0, 3)
        a /= np.linalg.norm(a)
        state = QutritState(a)
        gap = abs(maximize_bell(state, restarts=32, seed=0).value - bell_max_analytic(state))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 180.0
    acceptance_report(2, ok, f"20 states, worst gap {worst:.2e}, {elapsed:.1f}s")


def best_mes_overlap(dim):
    """max_b fidelity(MES_dim, GMES_b) and its argmax: a grid in b, then a bounded refinement."""
    target = mes_spectrum(dim)

    def value(b):
        return fidelity(target, gmes_spectrum(b))

    grid = np.linspace(0.01, 30.0, 300)
    coarse = np.array([value(b) for b in grid])
    i = int(coarse.argmax())
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
    refined = minimize_scalar(lambda b: -value(b), bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-10})
    return -refined.fun, refined.x


def mes_overlap_oracle(b, dim):
    """fidelity(MES_dim, GMES_b) = sum_{n<dim} sqrt(P(n+1, b^2)) / (b sqrt dim), as an mpf.

    P is the regularized lower incomplete gamma, so P(n+1, b^2) = P(X > n) for
    X ~ Poisson(b^2).  Evaluate it inside ``mpmath.workdps``.
    """
    b = mpmath.mpf(b)
    total = mpmath.fsum(
        mpmath.sqrt(mpmath.gammainc(n + 1, 0, b * b, regularized=True)) for n in range(dim)
    )
    return total / (b * mpmath.sqrt(dim))


# max_b fidelity(MES_200, GMES_b), computed with mpmath alone at 35 digits:
# findroot on dF/db = sum_{n<200} [p_n / sqrt(P_n) - sqrt(P_n) / b^2] / sqrt(200),
# with P_n = P(n+1, b^2) as in mes_overlap_oracle and p_n the Poisson(b^2)
# mass at n, started from b = 13.79, then F evaluated at the root.
MES200_OPTIMUM = 0.989777200364112
MES200_ARGMAX = 13.79279467
# For N >= 2 the optimum over b grows with N, as a scan of N = 2..232 shows
# (N = 1 is matched by the vacuum limit b -> 0).  The same mpmath search gives 0.98999666 at b = 14.1078 for
# N = 209 and 0.99002018 at b = 14.1423 for N = 210, so 0.99 is first reached
# at N = 210.


def test_criterion_3_mes200_fidelity_threshold(acceptance_report):
    t0 = time.perf_counter()
    best, bstar = best_mes_overlap(200)
    below, _ = best_mes_overlap(209)
    above, _ = best_mes_overlap(210)
    elapsed = time.perf_counter() - t0

    with mpmath.workdps(40):
        at, left, right = (mes_overlap_oracle(b, 200) for b in (bstar, bstar - 1e-3, bstar + 1e-3))
        oracle_dev = abs(float(at) - best)
        local_max = bool(at > left and at > right)

    gap = abs(best - MES200_OPTIMUM)
    crossed = below < 0.99 <= above
    ok = (
        gap <= 1e-10
        and abs(bstar - MES200_ARGMAX) <= 1e-6
        and oracle_dev <= 1e-12
        and local_max
        and crossed
        and elapsed < 5.0
    )
    crossing = "first reached at N = 210" if crossed else "not crossed between N = 209 and 210"
    acceptance_report(
        3,
        ok,
        f"max fidelity {best:.12f} at b = {bstar:.8f}, gap to mpmath optimum {gap:.1e} (<=1e-10), "
        f"mpmath at b* {oracle_dev:.1e} (<=1e-12), local max {local_max}; "
        f"0.99 {crossing} (N = 209: {below:.8f}, N = 210: {above:.8f}), {elapsed:.2f}s",
    )


def test_criterion_4_fidelity_peaks(acceptance_report):
    t0 = time.perf_counter()
    peak_g, dim_g = mes_fidelity_peak(gmes_spectrum(15.0))
    peak_t, dim_t = mes_fidelity_peak(tmsv_spectrum(5.0))
    elapsed = time.perf_counter() - t0
    ok = abs(peak_g - 0.99) <= 0.01 and abs(peak_t - 0.90) <= 0.03 and elapsed < 30.0
    acceptance_report(
        4,
        ok,
        f"gmes(15) peak {peak_g:.4f} at N={dim_g} (0.99±0.01), "
        f"tmsv(5) peak {peak_t:.4f} at N={dim_t} (0.90±0.03), {elapsed:.1f}s",
    )


def test_criterion_5_fig1_crossover(tmp_path, capsys, acceptance_report):
    path = tmp_path / "fig1.csv"
    code = main(["fig1", "--out", str(path)])
    capsys.readouterr()
    data = np.genfromtxt(path, delimiter=",", names=True)
    both_violate = (data["bell_gmes"] > 2.0) & (data["bell_tmsv"] > 2.0)
    beyond = np.nonzero(both_violate)[0]
    crossed = beyond.size > 0 and bool(
        np.any(data["bell_gmes"][beyond] > data["bell_tmsv"][beyond])
    )
    ok = code == 0 and crossed
    if beyond.size:
        first = data["nbar"][beyond[0]]
        margin = float(np.max(data["bell_gmes"][beyond] - data["bell_tmsv"][beyond]))
        detail = f"both curves > 2 from nbar = {first:.3f}, max gmes-tmsv margin {margin:.2e}"
    else:
        detail = "no sweep point with both curves above 2"
    acceptance_report(5, ok, detail)


def test_criterion_6_normalization_suite(acceptance_report):
    trace_dev = 0.0
    for b in [0.5, 1.0, 5.0, 15.0, 25.0]:
        s = gmes_spectrum(b)
        trace_dev = max(trace_dev, abs(float(np.sum(s.coeffs**2)) + s.tail_bound - 1.0))

    norm_ok = True
    for s in (
        [tmsv_spectrum(r) for r in (0.5, 1.0, 2.0, 5.0)]
        + [gmes_spectrum(b) for b in (0.5, 1.0, 5.0, 15.0)]
        + [mes_spectrum(n) for n in (1, 3, 200)]
    ):
        total = float(np.sum(s.coeffs**2))
        norm_ok = norm_ok and (1.0 - 1e-12 - s.tail_bound <= total <= 1.0 + 1e-12)

    purity_dev = 0.0
    for r in [0.5, 1.0, 2.0]:
        lifted = purify(thermal_distribution(math.sinh(r) ** 2))
        direct = tmsv_spectrum(r)
        n = min(len(lifted), len(direct))
        purity_dev = max(purity_dev, float(np.max(np.abs(lifted.coeffs[:n] - direct.coeffs[:n]))))

    ok = trace_dev <= 1e-10 and norm_ok and purity_dev <= 1e-10
    acceptance_report(
        6,
        ok,
        f"trace defect {trace_dev:.1e} (<=1e-10), norms in band: {norm_ok}, "
        f"thermal purification dev {purity_dev:.1e} (<=1e-10)",
    )


def test_criterion_7_qutrit_closed_forms(acceptance_report):
    worst = 0.0
    with mpmath.workdps(40):
        for r in np.linspace(0.0, 5.0, 21):
            t = mpmath.tanh(mpmath.mpf(r))
            norm = mpmath.sqrt(1 + t**2 + t**4)
            want = np.array([float(t**k / norm) for k in range(3)])
            got = qutrit_truncate(tmsv_spectrum(float(r))).a
            worst = max(worst, float(np.max(np.abs(got - want))))
        for b in np.linspace(0.05, 20.0, 40):
            lam = mpmath.mpf(b) ** 2
            f = [mpmath.gammainc(k + 1, 0, lam, regularized=True) for k in range(3)]
            total = f[0] + f[1] + f[2]
            want = np.array([float(mpmath.sqrt(fk / total)) for fk in f])
            got = qutrit_truncate(gmes_spectrum(float(b))).a
            worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst <= 1e-12
    acceptance_report(7, ok, f"worst coefficient deviation {worst:.2e} (<=1e-12)")


def test_criterion_8_cross_kerr_onset(acceptance_report):
    curve = [kerr_mes_fidelity(float(a), 2) for a in range(1, 7)]
    # the curve saturates at 1 within float rounding from alpha ~ 3, so the
    # monotone-increase claim is checked up to a few ulps
    monotone = all(y >= x - 5e-15 for x, y in zip(curve, curve[1:]))
    at_four = curve[3] >= 0.999

    gram_dev = 0.0
    for alpha, d in [(1.0, 2), (2.0, 2), (1.0, 3), (2.0, 3)]:
        gram = pseudo_phase_gram(alpha, d)
        for j in range(d):
            for k in range(d):
                if j == k:
                    continue
                want = math.exp(-alpha**2 * (1.0 - math.cos(2.0 * math.pi * (j - k) / d)))
                gram_dev = max(gram_dev, abs(abs(gram[j, k]) - want))

    ok = monotone and at_four and gram_dev <= 1e-8
    acceptance_report(
        8,
        ok,
        f"monotone {monotone}, fidelity(4,2) = {curve[3]:.6f} (>=0.999), "
        f"gram deviation {gram_dev:.1e} (<=1e-8)",
    )


def test_criterion_9_fig1_determinism(tmp_path, capsys, acceptance_report):
    args = ["fig1", "--start", "0.1", "--stop", "5", "--steps", "25"]
    first = tmp_path / "run1.csv"
    second = tmp_path / "run2.csv"
    code1 = main(args + ["--out", str(first)])
    code2 = main(args + ["--out", str(second)])
    capsys.readouterr()
    identical = first.read_bytes() == second.read_bytes()
    ok = code1 == 0 and code2 == 0 and identical
    acceptance_report(9, ok, f"two identical runs, byte-identical: {identical}")
