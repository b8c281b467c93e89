"""Seeded inputs, operations and correctness checks of the three workloads.

Every workload is a closed loop with one caller: the next op starts when the
previous one has returned.  Inputs come only from the seed; the library sees
nothing but the generated curves, profiles and files.  A check that fails
raises ``CheckFailed``; the runner counts it (and any unexpected exception)
as a failed op and keeps going.  An in-process op is a generator: each
``yield`` ends a step, and the runner times the steps one by one so that it
can scale each by the host's speed around it (see ``run.py``).

Workload choice (kept in step with ``BENCHMARK.json``):

* ``cli_cold`` -- four cold ``python -m nullcartan.cli`` runs per op.  Most of
  a cold run is importing the package (scipy among it), so this is where
  taking scipy off the import path shows, and where batching jets barely
  does.
* ``frames`` -- deep jets (order n+2 to 2n+2) at tens of grid points: frame
  tables, residuals, classification, Bertrand and pseudo-sphere verdicts in
  both directions, one evolute.  No quadrature table and no integration
  run inside an op (only the single RK4 steps that reach an off-node
  parameter), so table and integrator changes must leave it unmoved.
* ``integrate`` -- many points evaluated shallowly: pseudo-arc tables of
  1025+ nodes with root-finder inversions, a 1000-step RK4 synthesis, and
  the evolute/involute round trip whose arc-length table also puts deep jets
  at 1025 points (the case grid batching targets most).
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# Tolerances of the test suite (tests/test_acceptance.py, tests/test_cli.py,
# tests/test_curve.py, tests/test_constructions.py).
QUINTIC_RESIDUAL = 1e-6
SYNTH_RESIDUAL = 1e-5
RADIUS_TOL = 1e-5
UNIT_SPEED_DEFECT = 1e-6
ROUND_TRIP_SUP = 1e-5
SPEED_DEFECT = 1e-5
ALIGNMENT_DEFECT = 1e-7
CURVATURE_ZERO = 1e-8
GRAM_DEFECT = 1e-10
RESIDUAL_GRID = 61
FAMILY = (0, 1, 2, 2, 1, 0)


class CheckFailed(Exception):
    """A library result disagreed with its theorem-derived expectation."""


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


def num(x):
    """Float literal the expression tokenizer accepts (no ``np.float64(...)``)."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# Seeded input generators
# ---------------------------------------------------------------------------

def _expm(A):
    """Matrix exponential by scaling and squaring of a Taylor series.

    Used instead of ``scipy.linalg.expm`` so that generating inputs imports
    nothing the library does not, which would blur ``setup_s`` and
    ``peak_rss_mb``.
    """
    norm = np.linalg.norm(A, 1)
    k = max(0, int(math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0)
    X = A / 2.0 ** k
    term = np.eye(len(A))
    total = term.copy()
    for j in range(1, 20):
        term = term @ X / j
        total = total + term
    for _ in range(k):
        total = total @ total
    return total


def random_isometry(n, rng):
    """Random index-2 isometry M = exp(G S), S antisymmetric (the recipe of
    ``tests/conftest.py::random_isometry_frame``), with M^T G M = G checked."""
    G = np.diag([-1.0, -1.0] + [1.0] * (n - 2))
    S = rng.normal(scale=0.3, size=(n, n))
    S = S - S.T
    M = _expm(G @ S)
    check(np.allclose(M.T @ G @ M, G, atol=1e-12), "generated map is not an isometry")
    return M


def moved_quintic(rng):
    """Bundled quintic moved by a random isometry M plus a translation.

    Returns the curve spec and the residual budget that carries the test
    suite's 1e-6 for the bundled quintic through M.  The frame of the moved
    curve is M times the original frame and the curvatures do not change, so
    every stencil residual is M times the original one, and its max-norm
    grows by at most the row-sum norm of M (not 1: M preserves the index-2
    form, not Euclidean length).

    Each component is written as ``0 +/- |c| +/- |m_ij|*(q_j)...`` so that
    every seed parses to the same expression tree; only the numbers differ,
    and with them nothing of the cost.
    """
    from nullcartan.bundled import NULL_QUINTIC

    M = random_isometry(5, rng)
    shift = rng.normal(scale=1.0, size=5)
    comps = NULL_QUINTIC["components"]

    def signed(x, factor=""):
        return f" {'-' if x < 0 else '+'} {num(abs(x))}{factor}"

    components = [
        "0" + signed(shift[i]) + "".join(signed(M[i, j], f"*({comps[j]})") for j in range(5))
        for i in range(5)]
    spec = {"dimension": 5, "parameter": "s", "components": components,
            "domain": list(NULL_QUINTIC["domain"])}
    return spec, QUINTIC_RESIDUAL * float(np.max(np.sum(np.abs(M), axis=1)))


# The profiles below draw every coefficient from a range of fixed sign, so
# that the expression trees, and the work per evaluation, do not depend on
# the seed.

def monotone_cubic(rng):
    """phi(u) = u + c2 u^2 + c3 u^3 with phi' >= 1 on [0, 1] and
    phi([0, 1]) inside the quintic's domain; returns (text, coefficients)."""
    c2 = float(rng.uniform(0.0, 0.1))
    c3 = float(rng.uniform(0.0, 0.05))
    return f"u + {num(c2)}*u^2 + {num(c3)}*u^3", (c2, c3)


def constant_k3_profile(rng):
    """n = 6 constant curvatures; the curve lies on a pseudo-sphere of radius 1/k3."""
    k3 = rng.uniform(0.4, 2.0)
    return [num(rng.uniform(0.05, 0.2)), num(rng.uniform(-0.2, -0.05)), num(k3)], float(k3)


def growing_k3_profile(rng):
    """n = 6 with k3 = c + d t, d > 0: radius changes, so not pseudo-spherical."""
    return [num(rng.uniform(0.05, 0.2)), num(rng.uniform(-0.2, -0.05)),
            f"{num(rng.uniform(0.8, 1.5))} + {num(rng.uniform(0.5, 1.5))}*t"]


def bent_n5_profile(rng):
    """n = 5 with k1 bounded away from 0: never a Bertrand curve."""
    return [num(rng.uniform(0.2, 0.5)), num(rng.uniform(0.02, 0.1))]


def n8_profile(rng):
    """n = 8 profile shaped like the test suite's, with seed-drawn coefficients."""
    a, b, c, d, e, f, g, h, i = rng.uniform(
        [0.05, 0.02, -0.3, 1.2, 0.2, 0.8, 0.1, 1.8, 0.2],
        [0.15, 0.08, -0.1, 1.8, 0.4, 1.2, 0.3, 2.2, 0.4])
    return [f"{num(a)} + {num(b)}*t", num(c), f"{num(d)} + {num(e)}*sin(t)",
            f"{num(f)} + {num(g)}*t", f"{num(h)} - {num(i)}*t"]


def evolute_profile(rng):
    """n = 6 with k3 = 1/(1+t), so (1/k3)' = 1 and the evolute has unit speed."""
    return [num(rng.uniform(0.05, 0.2)), num(rng.uniform(-0.1, -0.02)), "1/(1 + t)"]


def shifted_uniform(rng, lo, hi, m, slack):
    """m uniform points on [lo, hi] shifted by a fresh offset in [0, slack).

    The offset makes every op query grid points no earlier op used, so the
    per-instance state cache of a reused FrenetCurve cannot hit across ops.
    """
    return np.linspace(lo, hi, m) + float(rng.uniform(0.0, slack))


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------

class Frames:
    """One op is one in-process verification round on curves built at set-up."""

    name = "frames"

    def __init__(self, rng):
        self.rng = rng
        self.spec, self.residual_budget = moved_quintic(rng)
        bent = bent_n5_profile(rng)
        const, self.k3 = constant_k3_profile(rng)
        self.k1_bent = float(bent[0])
        self.profiles = {
            "bent5": (5, bent, (0.0, 1.0)),
            "const6": (6, const, (0.0, 1.0)),
            "grow6": (6, growing_k3_profile(rng), (0.0, 1.0)),
            "n8": (8, n8_profile(rng), (0.0, 1.0)),
            "evo6": (6, evolute_profile(rng), (-0.7, 1.2)),
        }

    def build(self):
        """Set-up objects: the parsed moved quintic and five FrenetCurves."""
        from nullcartan import Curve, CurvatureProfile, synthesize

        self.quintic = Curve.from_strings(self.spec["components"], "s",
                                          tuple(self.spec["domain"]))
        self.curves = {
            key: synthesize(CurvatureProfile.from_strings(n, texts), interval)
            for key, (n, texts, interval) in self.profiles.items()}

    def op(self):
        import nullcartan as nc

        rng = self.rng
        q = self.quintic
        rep = nc.classify(q, grid=np.sort(rng.uniform(-0.15, 1.15, 17)))
        check(rep.family and rep.report.nullity_sequence == FAMILY,
              f"moved quintic classified {rep.report.nullity_sequence}")
        grid = shifted_uniform(rng, 0.1, 1.0, RESIDUAL_GRID, 0.1)
        worst_k = 0.0
        for t in grid:
            f = nc.cartan_frame_at(q, float(t))
            worst_k = max(worst_k, abs(f.curvatures[0]), abs(f.curvatures[1]))
        check(worst_k <= CURVATURE_ZERO, f"moved quintic |k1|,|k2| up to {worst_k:.2e}")
        yield
        res = nc.frenet_residuals(q, grid)
        check(res.overall <= self.residual_budget,
              f"moved quintic residual {res.overall:.2e}")
        mate = nc.bertrand_mate(q, float(rng.uniform(0.5, 1.5)),
                                grid=shifted_uniform(rng, 0.0, 0.9, 9, 0.1))
        check(mate.report.verdict and mate.report.correspondence_offset == 0.0
              and mate.report.alignment_defect <= ALIGNMENT_DEFECT,
              f"moved quintic mate defect {mate.report.alignment_defect:.2e}")
        yield

        c = self.curves
        verdict = nc.bertrand_check(c["bent5"], grid=shifted_uniform(rng, 0.05, 0.85, 9, 0.1))
        check(not verdict.verdict and abs(verdict.max_k1 - abs(self.k1_bent)) <= 1e-6,
              f"k1 = {self.k1_bent} curve judged Bertrand={verdict.verdict}, "
              f"max_k1 {verdict.max_k1}")

        sphere_grid = shifted_uniform(rng, 0.05, 0.85, 9, 0.1)
        sph = nc.pseudo_spherical_test(c["const6"], sphere_grid, tol=RADIUS_TOL)
        check(sph.is_spherical and abs(sph.radius - 1.0 / self.k3) <= RADIUS_TOL,
              f"constant k3 = {self.k3}: spherical={sph.is_spherical}, radius {sph.radius}")
        sph = nc.pseudo_spherical_test(c["grow6"], sphere_grid, tol=RADIUS_TOL)
        check(not sph.is_spherical, "growing k3 judged pseudo-spherical")
        yield

        n8 = c["n8"]
        rep = nc.classify(n8, grid=np.sort(rng.uniform(0.02, 0.98, 17)))
        check(rep.family, f"n = 8 curve classified {rep.report.nullity_sequence}")
        res = nc.frenet_residuals(n8, shifted_uniform(rng, 0.05, 0.9, RESIDUAL_GRID, 0.05))
        check(res.overall <= SYNTH_RESIDUAL, f"n = 8 residual {res.overall:.2e}")
        sph = nc.pseudo_spherical_test(n8, shifted_uniform(rng, 0.05, 0.85, 9, 0.1),
                                       tol=RADIUS_TOL)
        check(not sph.is_spherical, "varying n = 8 profile judged pseudo-spherical")
        yield

        ev = nc.evolute(c["evo6"], shifted_uniform(rng, -0.6, 1.0, 33, 0.1))
        check(ev.speed_defect <= SPEED_DEFECT and abs(ev.min_abs_slope - 1.0) <= 1e-6,
              f"evolute speed defect {ev.speed_defect:.2e}, slope {ev.min_abs_slope}")


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------

class Integrate:
    """One op: pseudo-arc table of a warped quintic, an n = 8 synthesis and the
    evolute/involute round trip of acceptance criterion 5.  Every construction
    object is created inside the op, so method caches keyed by instance see
    only that op's queries."""

    name = "integrate"
    REPARAM_GRID = 33

    def __init__(self, rng):
        self.rng = rng

    def build(self):
        from nullcartan.bundled import null_quintic_curve

        self.quintic = null_quintic_curve()

    def op(self):
        import nullcartan as nc

        rng = self.rng
        text, (c2, c3) = monotone_cubic(rng)
        warped = self.quintic.precompose(text, parameter="u", domain=(0.0, 1.0))
        res = nc.pseudo_arc_reparam(warped, grid_density=self.REPARAM_GRID)
        check(res.unit_speed_defect < UNIT_SPEED_DEFECT,
              f"unit speed defect {res.unit_speed_defect:.2e}")
        # the quintic is pseudo-arc, so sbar(u) = phi(u) - phi(0) exactly
        u = res.table_t
        want = u + c2 * u ** 2 + c3 * u ** 3
        err = float(np.max(np.abs(res.table_s - want)))
        check(err <= 1e-9, f"pseudo-arc table off the closed form by {err:.2e}")
        yield

        synth = nc.synthesize(nc.CurvatureProfile.from_strings(8, n8_profile(rng)),
                              (0.0, 1.0), step=1e-3)
        check(synth.max_gram_defect <= GRAM_DEFECT,
              f"n = 8 Gram defect {synth.max_gram_defect:.2e}")
        yield

        base = nc.synthesize(nc.CurvatureProfile.from_strings(6, evolute_profile(rng)),
                             (-0.7, 1.2))
        grid = np.linspace(-0.5, 1.0, 21)
        ev = nc.evolute(base, grid)
        yield
        t0 = float(grid[0])
        inv = nc.involute(ev.curve, t0, grid, arc_offset=1.0 + t0)
        sup = max(float(np.max(np.abs(inv.sampled.points[i] - base.point(float(t)))))
                  for i, t in enumerate(grid))
        check(ev.speed_defect <= SPEED_DEFECT and sup <= ROUND_TRIP_SUP,
              f"round trip: speed defect {ev.speed_defect:.2e}, sup {sup:.2e}")


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

def report_body(text):
    """JSON body of a CLI report (the ``#`` header line dropped)."""
    return json.loads("\n".join(l for l in text.splitlines() if not l.startswith("#")))


class CliCold:
    """One op is four cold CLI runs on files written at set-up."""

    name = "cli_cold"
    COMMANDS = ("classify", "frame", "bertrand", "sphere")

    def __init__(self, rng):
        self.rng = rng
        self.spec, self.residual_budget = moved_quintic(rng)
        texts, self.k3 = constant_k3_profile(rng)
        self.sphere_spec = {"dimension": 6, "parameter": "t", "curvatures": texts,
                            "interval": [0.0, 1.0], "step": 0.001}

    def build(self, workdir):
        self.files = {}
        for key, spec in (("quintic", self.spec), ("sphere", self.sphere_spec)):
            path = os.path.join(workdir, f"{key}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            self.files[key] = path

    def argv(self, command):
        return [command, self.files["sphere" if command == "sphere" else "quintic"]]

    def verify(self, command, code, out):
        check(code == 0, f"{command} exited {code}")
        body = report_body(out)
        summary = body.get("summary", {})
        if command == "classify":
            check(body["verdicts"]["family"] is True
                  and tuple(summary["nullity_sequence"]) == FAMILY,
                  f"classify verdict {body['verdicts']}")
        elif command == "frame":
            rows = body["table"]["rows"]
            ks = np.array([r[-2:] for r in rows], dtype=float)
            check(summary["samples"] == RESIDUAL_GRID and len(rows) == RESIDUAL_GRID
                  and summary["max_frenet_residual"] <= self.residual_budget
                  and float(np.max(np.abs(ks))) <= CURVATURE_ZERO,
                  f"frame residual {summary.get('max_frenet_residual')}")
        elif command == "bertrand":
            check(body["verdicts"]["bertrand"] is True
                  and summary["alignment_defect"] <= ALIGNMENT_DEFECT
                  and summary["correspondence_offset"] == 0.0,
                  f"bertrand verdict {body['verdicts']}")
        else:
            check(body["verdicts"]["is_spherical"] is True
                  and abs(summary["radius"] - 1.0 / self.k3) <= RADIUS_TOL,
                  f"sphere radius {summary.get('radius')} vs 1/k3 = {1.0 / self.k3}")


WORKLOADS = {w.name: w for w in (CliCold, Frames, Integrate)}
