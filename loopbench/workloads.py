"""The four workloads: input generation, library calls, independent checks.

A workload owns a fixed *round*: one point per entry, in order. Every run
executes whole rounds, so each loop class keeps the same share of points
in every run. For each point, ``compute`` makes the library calls (the
only part that is timed) and ``check`` compares their results with the
reference computations in ``reference.py`` or with properties the method
must have. Inputs come from the run's seeded generator and are sampled
here, not by the library's own samplers.
"""

import math

import numpy as np

import reference as ref

LOOP_SPECS = {"rz": "rz", "qc": "qc", "qh2": "qh2", "qsu2": "qsu2",
              "qhr-k1": "qhr:K=1", "qhr-k0": "qhr:K=0"}
# Sampling radii: the chart windows the library's verify suites sample.
DISK_RADIUS = {"qc": 0.9, "qsu2": 0.9, "qh2": 0.95}
RZ_WINDOW = 0.04
QHR_HALF_WIDTH = 0.4
MOBIUS_SIGN = {"qc": -1.0, "qsu2": -1.0, "qh2": 1.0}
DIMS = {"rz": 1, "qc": 2, "qh2": 2, "qsu2": 2, "qhr-k1": 4, "qhr-k0": 4}


def sample(kind, rng, scale=1.0):
    """A chart point of loop class ``kind``, at ``scale`` times its radius."""
    if kind == "rz":
        return np.array([scale * rng.uniform(0.0, RZ_WINDOW)])
    if kind in DISK_RADIUS:
        r = scale * DISK_RADIUS[kind] * math.sqrt(rng.uniform())
        phi = rng.uniform(0.0, 2.0 * math.pi)
        return np.array([r * math.cos(phi), r * math.sin(phi)])
    return scale * rng.uniform(-QHR_HALF_WIDTH, QHR_HALF_WIDTH, size=4)


class PointCheck:
    """Residuals of one point; the point fails on the first bad one."""

    def __init__(self):
        self.failure = None

    def add(self, label, value, tol):
        value = float(value)
        if self.failure is None and not (math.isfinite(value) and value <= tol):
            self.failure = f"{label}: residual {value!r} (tolerance {tol:g})"


def _floats(xs, lb):
    return np.array([lb.dual.primal(v) for v in xs])


class Workload:
    name = ""
    round = ()

    def setup(self, lb):
        """Construct loops, atlases and potentials, then warm up."""
        ctx = {"lb": lb,
               "loops": {k: lb.zoo.make_loop(LOOP_SPECS[k])
                         for k in dict.fromkeys(self.round) if k in LOOP_SPECS}}
        self.extend_setup(ctx)
        for kind, loop in ctx["loops"].items():
            a = sample(kind, np.random.default_rng(0), 0.5)
            lb.core.product(loop, a, a)
            lb.tangent.left_frame_matrix(loop, list(a))
        return ctx

    def extend_setup(self, ctx):
        pass

    def run_checks(self, ctx):
        """Checks made once per run, outside the points: (label, value, ok)."""
        return []


# -- loop-algebra ---------------------------------------------------------------

ALGEBRA_TOL = 1e-9
BUNDLE_TOL = 1e-9
WINDING_POWERS = range(1, 6)
# Inputs per point. One input takes well under a millisecond; with
# batches, and twice the batch for the qhr loops, the three cost tiers of
# the round (2-dimensional loops, rz and bundle, qhr) differ by more than
# the host's swings in speed (about 1.5x), so no percentile crosses tiers.
ALGEBRA_BATCH = {"qhr-k0": 16, "qhr-k1": 16}
DEFAULT_BATCH = 8
# Bundle fiber points and translations stay this close to e so that no
# right division in the right-law residual meets the Moebius singular set
# |b| |a| = 1 (at the verify suite's radii 0.9 and 0.45 some seeds do).
BUNDLE_FIBER_RADIUS = 0.2
BUNDLE_SHIFT_RADIUS = 0.1
# qc and qsu2 act on their chart as rotations of the Riemann sphere by
# 2 arctan|a|, and the longest chain of translations in a loop point (the
# Ad-map, the associators) adds five such angles. At this radius they stay
# below 0.9 pi, so no intermediate meets the chart's point at infinity; at
# half radius (0.45) core.ad_map raised OutOfDomain on one triple in
# about five thousand.
SPHERE_TRIPLE_RADIUS = 0.29


class LoopAlgebra(Workload):
    """Float-path products, divisions, associators and Ad-maps on all
    catalog loops, plus bundle transitions; a point is a batch of inputs."""

    name = "loop-algebra"
    # Tiers of 20%, 40% and 40% of the points: point_p50_ms and
    # point_p90_ms sit three quarters into the middle and top tiers, which
    # stays in a tier's slower mode while the host runs fast less than
    # half the time.
    round = ("qh2", "qc", "qsu2") + ("rz", "bundle") * 3 + ("qhr-k0", "qhr-k1") * 3

    def extend_setup(self, ctx):
        lb = ctx["lb"]
        ctx["s3"] = lb.bundle.make_s3_bundle()
        ctx["winding"] = lb.bundle.make_winding_bundle(1)

    def make_point(self, kind, rng):
        one = self._bundle_input if kind == "bundle" else self._loop_input
        return [one(kind, rng) for _ in range(ALGEBRA_BATCH.get(kind, DEFAULT_BATCH))]

    def _loop_input(self, kind, rng):
        scale = (SPHERE_TRIPLE_RADIUS / DISK_RADIUS[kind] if MOBIUS_SIGN.get(kind) == -1.0
                 else 0.5)
        return [sample(kind, rng, scale) for _ in range(3)]

    def _bundle_input(self, kind, rng):
        def fiber_and_shift():
            return (sample("qc", rng, BUNDLE_FIBER_RADIUS / DISK_RADIUS["qc"]),
                    sample("qc", rng, BUNDLE_SHIFT_RADIUS / DISK_RADIUS["qc"]))

        half = rng.uniform(0.1, math.pi - 0.1)
        return {
            "s3": (np.array([half + math.pi * (rng.uniform() < 0.5)]),
                   *fiber_and_shift()),
            "winding": (np.array([rng.uniform(0.5 * math.pi - 0.1, 0.5 * math.pi + 0.1),
                                  rng.uniform(0.0, 2.0 * math.pi)]),
                        *fiber_and_shift()),
            "sphere": (rng.uniform(0.2, math.pi - 0.2), rng.uniform(0.0, 2.0 * math.pi),
                       rng.uniform(0.0, 2.0 * math.pi), complex(*sample("qc", rng, 0.5))),
            "iterate": (rng.uniform(0.05, 0.18 * math.pi), rng.uniform(0.0, 2.0 * math.pi)),
        }

    def compute(self, ctx, kind, inp):
        one = self._compute_bundle if kind == "bundle" else self._compute_loop
        return [one(ctx, kind, x) for x in inp]

    def check(self, ctx, kind, inp, out, chk):
        one = self._check_bundle if kind == "bundle" else self._check_loop
        for x, o in zip(inp, out):
            one(kind, x, o, chk)

    def _compute_loop(self, ctx, kind, inp):
        core = ctx["lb"].core
        L = ctx["loops"][kind]
        a, b, c = inp
        e = L.identity
        p = core.product(L, a, b)
        ad = core.ad_map(L, b, a, c)
        return {
            "p": p,
            "ea": core.product(L, e, a),
            "ae": core.product(L, a, e),
            "x": core.left_divide(L, a, b),
            "y": core.right_divide(L, b, a),
            "l": core.associator(L, "left", a, b, c),
            "lhat": core.associator(L, "adjoint", a, b, c),
            "r": core.associator(L, "right", a, b, c),
            "u": core.left_divide(L, p, c),
            "ad": ad,
            "back": core.ad_inverse_map(L, b, a, ad),
        }

    def _compute_bundle(self, ctx, kind, inp):
        bundle = ctx["lb"].bundle
        out = {}
        for key in ("s3", "winding"):
            atlas = ctx[key]
            x, q, a = inp[key]
            p = bundle.TotalPoint(chart="minus", base=x, fiber=q)
            out[key] = (
                bundle.cocycle_residual(atlas, "minus", "minus", "plus", x, q),
                bundle.transition_right_law_residual(atlas, "minus", "plus", x, q, a),
                bundle.change_chart(atlas, bundle.change_chart(atlas, p, "plus"),
                                    "minus").fiber,
            )
        theta, psi1, psi2, eta = inp["sphere"]
        z1, z2 = bundle.s3_point(theta, psi1, psi2)
        out["sphere"] = (z1, z2, bundle.s3_right_action(z1, z2, eta))
        theta, gamma = inp["iterate"]
        fiber = ctx["winding"].fiber_loop
        q1 = bundle.winding_transition(1, theta, gamma)
        out["iterate"] = (q1, [bundle.iterate_left(fiber, q1, n, fiber.identity)
                               for n in WINDING_POWERS])
        return out

    def _check_loop(self, kind, inp, out, chk):
        prod = ref.reference_product(kind)
        dist = ref.distance_for(kind)
        a, b, c = inp
        ab = prod(a, b)
        tol = ALGEBRA_TOL
        chk.add("product", dist(out["p"], ab), tol)
        if kind == "qsu2":
            chk.add("unitary_product", np.max(np.abs(
                ref.su2_matrix(complex(*out["p"])) - ref.su2_compensated(a, b))), tol)
        if kind == "qhr-k0":
            chk.add("vector_addition", np.max(np.abs(out["p"] - (a + b))), tol)
        chk.add("left_identity", dist(out["ea"], a), tol)
        chk.add("right_identity", dist(out["ae"], a), tol)
        chk.add("left_division", dist(prod(a, out["x"]), b), tol)
        chk.add("right_division", dist(prod(out["y"], a), b), tol)
        abc = prod(a, prod(b, c))
        chk.add("left_associator", dist(prod(ab, out["l"]), abc), tol)
        chk.add("division_by_product", dist(prod(ab, out["u"]), c), tol)
        chk.add("adjoint_associator", dist(out["lhat"], prod(a, prod(b, out["u"]))), tol)
        chk.add("right_associator", dist(prod(out["r"], ab), prod(prod(c, a), b)), tol)
        chk.add("ad_map", dist(prod(prod(a, out["ad"]), b), prod(ab, c)), tol)
        chk.add("ad_inverse_of_ad", dist(out["back"], c), tol)

    def _check_bundle(self, kind, inp, out, chk):
        for key in ("s3", "winding"):
            cocycle, right_law, round_trip = out[key]
            chk.add(f"{key}_cocycle", cocycle, BUNDLE_TOL)
            chk.add(f"{key}_transition_right_law", right_law, BUNDLE_TOL)
            chk.add(f"{key}_chart_round_trip",
                    ref.rel_dist(round_trip, inp[key][1]), BUNDLE_TOL)
        z1, z2, (w1, w2) = out["sphere"]
        chk.add("s3_norm", ref.s3_norm_defect(w1, w2), BUNDLE_TOL)
        chk.add("s3_same_base", ref.rel_dist(ref.s3_base(w1, w2), ref.s3_base(z1, z2)),
                BUNDLE_TOL)
        theta, gamma = inp["iterate"]
        q1, iterates = out["iterate"]
        chk.add("winding_transition", ref.rel_dist(q1, ref.winding_value(1, theta, gamma)),
                BUNDLE_TOL)
        for n, got in zip(WINDING_POWERS, iterates):
            chk.add(f"winding_iterate_{n}",
                    ref.rel_dist(got, ref.winding_value(n, theta, gamma)), BUNDLE_TOL)


# -- structure-jacobi -------------------------------------------------------------

ANTISYMMETRY_TOL = 1e-10
CLOSED_FORM_TOL = 1e-8
JACOBI_TOL = 1e-6


class StructureJacobi(Workload):
    """Structure functions and the modified Jacobi identity at chart points."""

    name = "structure-jacobi"
    round = ("rz", "qh2", "qc", "qsu2", "qhr-k1")

    def make_point(self, kind, rng):
        return sample(kind, rng)

    def compute(self, ctx, kind, a):
        tangent = ctx["lb"].tangent
        L = ctx["loops"][kind]
        return (np.asarray(tangent.structure_tensor_raw(L, list(a)), dtype=float),
                tangent.jacobi_residual(L, list(a)))

    def check(self, ctx, kind, a, out, chk):
        c, jacobi = out
        chk.add("antisymmetry", np.max(np.abs(c + c.transpose(0, 2, 1))), ANTISYMMETRY_TOL)
        if kind in MOBIUS_SIGN:
            chk.add("closed_form", np.max(np.abs(
                c - ref.mobius_structure(MOBIUS_SIGN[kind], a))), CLOSED_FORM_TOL)
        else:
            fd = ref.fd_structure_tensor(ref.reference_product(kind), a)
            chk.add("finite_difference", np.max(np.abs(c - fd)), ref.fd_tolerance())
        chk.add("modified_jacobi", jacobi, JACOBI_TOL)


# -- lie-reconstruct ---------------------------------------------------------------

RK4_STEPS = {"rz": 32, "qc": 32, "qh2": 32, "qsu2": 32, "qhr-k1": 16}
# The global RK4 error at these step counts stays below 6e-10 even for
# pairs on the rim of the half-radius disks; the order check below is
# what pins the method itself.
RECONSTRUCT_TOL = 1e-8
MAURER_CARTAN_TOL = 1e-6
ORDER_PAIR = ([0.4, -0.3], [0.5, 0.6])
ORDER_STEPS = 32
ORDER_WINDOW = (2.8, 5.2)


class LieReconstruct(Workload):
    """RK4 integration of the generalized Lie equation plus the
    Maurer-Cartan residual, mostly on 2-dimensional loops."""

    name = "lie-reconstruct"
    # A fifth of the points on qhr: with fewer, point_p90_ms falls in the
    # noisy tail of the 2-dimensional points instead of on the qhr class.
    round = ("rz", "qh2", "qc", "qsu2", "qhr-k1")

    def make_point(self, kind, rng):
        return sample(kind, rng, 0.5), sample(kind, rng, 0.5)

    def compute(self, ctx, kind, inp):
        rec = ctx["lb"].reconstruct
        L = ctx["loops"][kind]
        a, b = inp
        return (rec.reconstruct_product(L, list(a), list(b), RK4_STEPS[kind]),
                rec.maurer_cartan_residual(L, list(b), list(a)))

    def check(self, ctx, kind, inp, out, chk):
        got, mc = out
        a, b = inp
        dist = ref.distance_for(kind)
        chk.add("reconstruction", dist(got, ref.reference_product(kind)(a, b)),
                RECONSTRUCT_TOL)
        chk.add("maurer_cartan", mc, MAURER_CARTAN_TOL)

    def run_checks(self, ctx):
        """Observed RK4 order from step halving on one fixed qc pair."""
        rec = ctx["lb"].reconstruct
        L = ctx["loops"]["qc"]
        a, b = ORDER_PAIR
        expect = ref.reference_product("qc")(a, b)
        errs = [np.max(np.abs(rec.reconstruct_product(L, a, b, n) - expect))
                for n in (ORDER_STEPS, 2 * ORDER_STEPS)]
        order = ref.observed_order(*errs)
        lo, hi = ORDER_WINDOW
        return [("rk4_order", order, lo <= order <= hi)]


# -- gauge-curvature ---------------------------------------------------------------

GAUGE_POTENTIAL_SEED = 108
ABELIAN_POTENTIAL_SEED = 110
BIANCHI = "-bianchi"
GAUGE_TOL = {"commutator": 1e-6, "omega_d": 1e-8, "structure_eq": 1e-5,
             "bianchi": 1e-4, "maxwell": 1e-12}


class GaugeCurvature(Workload):
    """Covariant derivatives, curvature, structure equation and Bianchi on
    fixed test potentials, plus the abelian qhr:K=0 case.

    A point of kind "qc" checks the commutator, omega(D), and the structure
    equation at one sampled (x, y); a point of kind "qc-bianchi" checks
    Bianchi at one sampled 3-dimensional base point on the section y = e.
    The Bianchi points are a fifth of the round, so point_p90_ms is their
    median rather than the tail of the cheaper points.
    """

    name = "gauge-curvature"
    round = (("qhr-k0",) * 3 + ("qc", "qh2", "qsu2") * 3
             + ("qc-bianchi", "qh2-bianchi", "qsu2-bianchi"))

    def extend_setup(self, ctx):
        gauge = ctx["lb"].gauge
        forms = {}
        for kind, L in ctx["loops"].items():
            if kind == "qhr-k0":
                pot = ref.PolyPotential(L.dim, 2, ABELIAN_POTENTIAL_SEED)
                forms[kind] = (gauge.LocalConnectionForm(
                    potential=gauge.GaugePotential(chart="abelian", A=pot, base_dim=2),
                    fiber=L), pot)
            else:
                forms[kind] = (gauge.make_test_potential(L, 2, GAUGE_POTENTIAL_SEED),
                               gauge.make_test_potential(L, 3, GAUGE_POTENTIAL_SEED + 1))
        ctx["forms"] = forms

    def make_point(self, kind, rng):
        if kind == "qhr-k0":
            return {"x": rng.uniform(-0.5, 0.5, 2), "y": sample(kind, rng)}
        if kind.endswith(BIANCHI):
            return {"x3": rng.uniform(-0.4, 0.4, 3),
                    "directions": rng.standard_normal((3, 3))}
        dim = DIMS[kind]
        return {
            "x": rng.uniform(-0.4, 0.4, 2),
            "y": sample(kind, rng, 0.4),
            "f": rng.standard_normal(2 + dim),
            "hor": rng.standard_normal((3, 2)),
            "vert": rng.standard_normal((3, dim)),
        }

    def compute(self, ctx, kind, inp):
        lb = ctx["lb"]
        gauge = lb.gauge
        if kind.endswith(BIANCHI):
            loop = kind[:-len(BIANCHI)]
            _, form3 = ctx["forms"][loop]
            e = list(ctx["loops"][loop].identity)
            return {"bianchi": gauge.bianchi_residual(form3, inp["x3"], e,
                                                      *inp["directions"])}
        x, y = list(inp["x"]), list(inp["y"])
        if kind == "qhr-k0":
            form, _ = ctx["forms"][kind]
            return {"F": gauge.curvature(form, x, y),
                    "omega_d": [gauge.omega_annihilates_d_residual(form, x, y, mu)
                                for mu in (0, 1)]}
        form, _ = ctx["forms"][kind]
        e = list(ctx["loops"][kind].identity)
        ck = inp["f"]

        def f(xs, ys):
            acc = 0.0
            for i, v in enumerate(list(xs) + list(ys)):
                acc = acc + ck[i] * v + 0.1 * ck[i] * v * v * v
            return acc

        hor, vert = inp["hor"], inp["vert"]
        h1 = _floats(gauge.hor_field(form, hor[0])(x + y), lb)
        h2 = _floats(gauge.hor_field(form, hor[1])(x + y), lb)
        v1 = _floats(gauge.fundamental_field(form, vert[0])(x + y), lb)
        v2 = _floats(gauge.fundamental_field(form, vert[1])(x + y), lb)
        h3 = _floats(gauge.hor_field(form, hor[2])(x + e), lb)
        return {
            "commutator": gauge.commutator_residual(form, 0, 1, f, x, y),
            "omega_d": [gauge.omega_annihilates_d_residual(form, x, y, mu)
                        for mu in (0, 1)],
            "horizontal": gauge.structure_equation_residual(
                form, x, y, h1[:2], h1[2:], h2[:2], h2[2:]),
            "vertical": gauge.structure_equation_residual(
                form, x, y, v1[:2], v1[2:], v2[:2], v2[2:]),
            "mixed": gauge.structure_equation_residual(
                form, x, e, h3[:2], h3[2:], [0.0, 0.0], list(vert[2])),
        }

    def check(self, ctx, kind, inp, out, chk):
        if kind.endswith(BIANCHI):
            chk.add("bianchi", out["bianchi"], GAUGE_TOL["bianchi"])
            return
        for mu, res in enumerate(out["omega_d"]):
            chk.add(f"omega_annihilates_d_{mu}", res, GAUGE_TOL["omega_d"])
        if kind == "qhr-k0":
            _, pot = ctx["forms"][kind]
            curl = pot.curl(inp["x"], 0, 1)
            chk.add("abelian_curl", np.max(np.abs(out["F"][:, 0, 1] - curl)),
                    GAUGE_TOL["maxwell"])
            chk.add("abelian_curl_antisymmetry", np.max(np.abs(out["F"][:, 1, 0] + curl)),
                    GAUGE_TOL["maxwell"])
            return
        chk.add("commutator", out["commutator"], GAUGE_TOL["commutator"])
        for case in ("horizontal", "vertical", "mixed"):
            chk.add(f"structure_eq_{case}", out[case], GAUGE_TOL["structure_eq"])


WORKLOADS = {w.name: w for w in (LoopAlgebra, StructureJacobi, LieReconstruct,
                                  GaugeCurvature)}
