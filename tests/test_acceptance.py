"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Tolerances are pinned here; nothing is calibrated elsewhere.
"""

import numpy as np
import pytest

from nullcartan import (
    CurvatureProfile,
    HypothesisError,
    MappedCurve,
    PseudoMetric,
    bertrand_check,
    bertrand_mate,
    cartan_frame_at,
    classify,
    evolute,
    frenet_residuals,
    involute,
    involute_frame_check,
    jet_eval,
    parse,
    pseudo_spherical_test,
    synthesize,
)
from nullcartan.bundled import null_quintic_curve

from conftest import (
    eval_longdouble,
    golden_L1,
    golden_L2,
    golden_mate,
    golden_N1,
    golden_N2,
    golden_W3,
    polynomial_derivative_oracle,
    random_expression,
    richardson_derivative,
)


def report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def golden():
    return null_quintic_curve()


@pytest.fixture(scope="module")
def flat5():
    return synthesize(CurvatureProfile.from_strings(5, ["0", "0"]), (0.0, 1.0))


@pytest.fixture(scope="module")
def evolute_fixture():
    profile = CurvatureProfile.from_strings(6, ["0.15", "-0.05", "1/(1 + t)"])
    return synthesize(profile, (-0.7, 1.2))


def test_criterion_1_golden_frame(golden):
    """Frame vectors match the closed forms at s in {0, 0.3, 1} to 1e-9."""
    worst = 0.0
    worst_k = 0.0
    for s in (0.0, 0.3, 1.0):
        f = cartan_frame_at(golden, s)
        for got, want in [(f.L1, golden_L1(s)), (f.L2, golden_L2(s)),
                          (f.W[0], golden_W3(s)), (f.N2, golden_N2(s)),
                          (f.N1, golden_N1(s))]:
            worst = max(worst, float(np.max(np.abs(got - want))))
        worst_k = max(worst_k, abs(f.curvatures[0]), abs(f.curvatures[1]))
    report("criterion 1 (golden frame)", worst <= 1e-9 and worst_k <= 1e-9,
           f"max frame error {worst:.2e}, max |k1|,|k2| {worst_k:.2e} (tol 1e-9)")


def test_criterion_2_golden_mate(golden):
    """Offset mate reproduces the closed-form display with sbar = s to 1e-9."""
    grid = np.linspace(0.0, 1.0, 21)
    result = bertrand_mate(golden, 1.0, grid=grid)
    worst = max(float(np.max(np.abs(p - golden_mate(s, 1.0))))
                for s, p in zip(grid, result.sampled.points))
    identity = result.report.correspondence_offset == 0.0
    report("criterion 2 (golden mate)", worst <= 1e-9 and identity,
           f"max coordinate error {worst:.2e} (tol 1e-9), sbar = s: {identity}")


def test_criterion_3_bertrand_both_directions(flat5):
    """k1 = k2 = 0 curves pass and align W3; curved ones are refused."""
    grid = np.linspace(0.05, 0.95, 9)
    ok = bertrand_check(flat5, grid=grid)
    mate = bertrand_mate(flat5, 1.0, grid=grid)
    forward = ok.verdict and mate.report.alignment_defect <= 1e-7

    refused = []
    defects = []
    for ks in (["0.3", "0"], ["0", "0.1"]):
        curve = synthesize(CurvatureProfile.from_strings(5, ks), (0.0, 1.0))
        try:
            bertrand_mate(curve, 1.0, grid=grid)
            refused.append(False)
        except HypothesisError:
            refused.append(True)
        forced = bertrand_mate(curve, 1.0, grid=grid, force=True)
        defects.append(forced.report.alignment_defect)
    backward = all(refused) and all(d > 1e-3 for d in defects)
    report("criterion 3 (Bertrand both directions)", forward and backward,
           f"flat defect {mate.report.alignment_defect:.2e} (tol 1e-7); "
           f"refusals {refused}, forced defects "
           f"{[f'{d:.2e}' for d in defects]} (must exceed 1e-3)")


def test_criterion_4_pseudo_sphere():
    """Constant k3 = 1/r is spherical with radius r; k3 = 1+t is not; the
    i = 5 recursion step matches the jet oracle on an n = 8 profile."""
    r = 2.0
    const = synthesize(CurvatureProfile.from_strings(6, ["0.1", "0.05", "0.5"]),
                       (0.0, 1.0))
    grid = np.linspace(0.05, 0.95, 9)
    rep_true = pseudo_spherical_test(const, grid, tol=1e-5)
    rel_residual = rep_true.sphere_equation_residual / r**2
    first = (rep_true.is_spherical and abs(rep_true.radius - r) <= 1e-5
             and rep_true.max_center_spread <= 1e-5 and rel_residual <= 1e-5)

    growing = synthesize(CurvatureProfile.from_strings(6, ["0.1", "0.05", "1 + t"]),
                         (0.0, 1.0))
    rep_false = pseudo_spherical_test(growing, grid, tol=1e-5)

    # n = 8, i = 5 step: a4 = (a3' + a2 k4)/k5 against the jet oracle on the
    # closed forms a2 = 1/k3, a3 = -k3'/(k3^2 k4)
    from nullcartan import sphere_coefficients
    texts = ["0.1 + 0.05*t", "-0.2", "1.5 + 0.3*sin(t)", "1 + 0.2*t", "2 - 0.3*t"]
    profile = CurvatureProfile.from_strings(8, texts)
    k3e, k4e, k5e = (parse(texts[2], "t"), parse(texts[3], "t"),
                     parse(texts[4], "t"))
    worst_a4 = 0.0
    for t in (0.1, 0.5, 0.9):
        k3j, k4j, k5j = (jet_eval(k3e, t, 4), jet_eval(k4e, t, 4),
                         jet_eval(k5e, t, 4))
        a2 = 1.0 / k3j
        a3 = -k3j.differentiate() / (k3j * k3j * k4j)
        a4_oracle = ((a3.differentiate() + a2 * k4j) / k5j).value
        a4 = sphere_coefficients(profile, t)[3]
        worst_a4 = max(worst_a4, abs(a4 - a4_oracle))
    report("criterion 4 (pseudo-sphere)",
           first and not rep_false.is_spherical and worst_a4 <= 1e-8,
           f"radius {rep_true.radius:.6f}, center spread "
           f"{rep_true.max_center_spread:.2e}, eq residual rel {rel_residual:.2e} "
           f"(tol 1e-5); growing-k3 spherical={rep_false.is_spherical}; "
           f"i=5 recursion error {worst_a4:.2e} (tol 1e-8)")


def test_criterion_5_evolute_round_trip(evolute_fixture):
    """E is spacelike with the stated speed and unwinds back to the curve."""
    grid = np.linspace(-0.5, 1.0, 21)
    ev = evolute(evolute_fixture, grid)
    t0 = float(grid[0])
    inv = involute(ev.curve, t0, grid, arc_offset=1.0 + t0)
    sup = max(float(np.max(np.abs(inv.sampled.points[i] -
                                  np.asarray(evolute_fixture.point(float(t))))))
              for i, t in enumerate(grid))
    report("criterion 5 (evolute round trip)",
           ev.speed_defect <= 1e-5 and sup <= 1e-5,
           f"<E',E'> defect {ev.speed_defect:.2e}, involute sup distance "
           f"{sup:.2e} (tol 1e-5)")


def test_criterion_6_involute_to_evolute(evolute_fixture):
    """Framing the involute gives k3 = 1/s and the evolute returns to c."""
    ev = evolute(evolute_fixture, np.linspace(-0.6, 1.1, 9))
    c = MappedCurve(ev.curve, "s - 1", (0.4, 2.1))
    rep = involute_frame_check(c, np.linspace(0.5, 2.0, 7))
    report("criterion 6 (involute to evolute)",
           rep.k3_max_rel_error <= 1e-4 and rep.evolute_match <= 1e-4,
           f"k3 vs 1/s rel error {rep.k3_max_rel_error:.2e}, E_I vs c "
           f"{rep.evolute_match:.2e} (tol 1e-4) on s in [0.5, 2]")


def test_criterion_7_frenet_residuals(golden):
    """Residuals meet the budgets and the Gram defect is 4th order in step."""
    golden_res = frenet_residuals(golden, np.linspace(0.1, 1.1, 61))
    profile6 = CurvatureProfile.from_strings(6, ["0.2", "-0.1", "1 + t"])
    profile8 = CurvatureProfile.from_strings(
        8, ["0.1 + 0.05*t", "-0.2", "1.5 + 0.3*sin(t)", "1 + 0.2*t", "2 - 0.3*t"])
    synth_res = []
    for profile in (profile6, profile8):
        curve = synthesize(profile, (0.0, 1.0))
        synth_res.append(frenet_residuals(curve, np.linspace(0.05, 0.95, 61)).overall)
    coarse = synthesize(profile6, (0.0, 1.0), step=0.02, defect_limit=1.0)
    fine = synthesize(profile6, (0.0, 1.0), step=0.01, defect_limit=1.0)
    ratio = coarse.max_gram_defect / fine.max_gram_defect
    report("criterion 7 (Frenet residuals)",
           golden_res.overall <= 1e-6 and max(synth_res) <= 1e-5 and ratio >= 8.0,
           f"golden {golden_res.overall:.2e} (tol 1e-6), synthesized "
           f"{max(synth_res):.2e} (tol 1e-5), halving ratio {ratio:.1f} (>= 8)")


def test_criterion_8_classification(golden):
    """Golden sequences plus the step laws on 100 random admissible bases."""
    rep = classify(golden, grid=[0.2, 0.5, 1.0])
    golden_ok = (rep.report.nullity_sequence == (0, 1, 2, 2, 1, 0)
                 and rep.report.degeneration_degree == 2 and rep.family)
    rng = np.random.default_rng(8128)
    law_ok = True
    for _ in range(100):
        n = int(rng.integers(4, 9))
        m = PseudoMetric(n)
        while True:
            B = rng.normal(size=(n, n))
            if abs(np.linalg.det(B)) > 1e-3:
                break
        seq = m.sequence_report(list(B))
        r, q = seq.nullity_sequence, seq.index_sequence
        for i in range(1, n + 1):
            law_ok &= abs(r[i] - r[i - 1]) <= 1 and q[i] - q[i - 1] in (0, 1)
    report("criterion 8 (classification)", golden_ok and law_ok,
           f"golden {rep.report.nullity_sequence} degree "
           f"{rep.report.degeneration_degree}; step laws on 100 bases: {law_ok}")


def test_criterion_9_jet_engine():
    """Jets match Richardson differences to 1e-6 and are exact on polynomials."""
    rng = np.random.default_rng(1905)
    worst_fd = 0.0
    for _ in range(20):
        expr = parse(random_expression(rng))
        j = jet_eval(expr, 0.7, 6)
        f = lambda x: eval_longdouble(expr, x)
        scale = max(1.0, max(abs(j.derivative(k)) for k in range(7)))
        for k in range(1, 7):
            want = richardson_derivative(f, 0.7, k)
            worst_fd = max(worst_fd, abs(j.derivative(k) - want) / scale)

    worst_poly = 0.0
    for _ in range(20):
        coeffs = rng.normal(size=int(rng.integers(2, 8)))
        text = " + ".join(f"({c:.17g})*s^{k}" if k else f"({c:.17g})"
                          for k, c in enumerate(coeffs))
        base = float(rng.uniform(-1.5, 1.5))
        j = jet_eval(parse(text), base, len(coeffs) + 1)
        for k in range(len(coeffs) + 2):
            want = polynomial_derivative_oracle(coeffs, base, k)
            scale = max(1.0, abs(want))
            worst_poly = max(worst_poly, abs(j.derivative(k) - want) / scale)
    report("criterion 9 (jet engine)",
           worst_fd <= 1e-6 and worst_poly <= 1e-12,
           f"vs Richardson {worst_fd:.2e} (tol 1e-6), polynomial relative "
           f"error {worst_poly:.2e} (tol 1e-12)")
