"""Command-line verification harness.

Subcommands: ``verify`` runs residual suites for a catalog loop,
``reconstruct`` integrates a single product from frame data,
``bundle-check`` exercises an atlas, and ``gauge-check`` is a shortcut
for the gauge suite.  Each command takes only the options it reads
(``COMMANDS``, with specs from the one ``OPTIONS`` table) plus every
``--tol.<name>``, spelled in full.  :func:`resolve_config` layers the
defaults, ``LOOPBUNDLE_SEED``, the ``--config`` file and the flags into
one validated RunConfig.  Exit status: 0 all cases pass, 1 a
verification case failed, 2 usage or configuration error.
"""

import argparse
import os
import sys
import time

import numpy as np

from . import bundle, core, gauge, reconstruct, tangent
from .dual import gcos, gsin, jacobian
from .errors import LoopError, UnknownSuite
from .report import DEFAULT_TOLERANCES, MIN_STEPS, RunConfig, VerificationReport, read_config
from .zoo import catalog_names, make_loop

SUITES = ("axioms", "tangent", "jacobi", "reconstruct", "bundle", "gauge", "all")


def _mobius_reference_structure(sign, a):
    """Closed-form real-basis structure functions of the Moebius loops.

    Complex basis: C^1_12 = sign*eta, C^2_12 = -sign*conj(eta); the
    real-basis values below are that pair pushed through the standard
    real/complex change of basis.
    """
    a1, a2 = float(a[0]), float(a[1])
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = sign * 2.0 * a2
    c[0, 1, 0] = -c[0, 0, 1]
    c[1, 0, 1] = -sign * 2.0 * a1
    c[1, 1, 0] = -c[1, 0, 1]
    return c


def suite_axioms(config):
    L = make_loop(config.loop)
    report = core.check_loop_axioms(L, config.samples, config.seed, config.tol("axioms"))
    if L.name == "qsu2":
        from .zoo import qsu2_product

        rng = np.random.default_rng(config.seed)
        for _ in range(config.samples):
            a, b = L.sample(rng), L.sample(rng)
            _, coord = qsu2_product(complex(*a), complex(*b))
            direct = core.product(L, list(a), list(b))
            report.add("matrix_representation", abs(coord - complex(direct[0], direct[1])),
                       config.tol("qsu2"), config.samples)
    return report


def suite_tangent(config):
    L = make_loop(config.loop)
    rng = np.random.default_rng(config.seed)
    report = VerificationReport(suite=f"tangent[{L.name}]")
    n = config.samples
    sign = {"qc": -1.0, "qsu2": -1.0, "qh2": 1.0}.get(L.name)
    for _ in range(n):
        a = L.sample(rng)
        c = tangent.structure_tensor_raw(L, a)
        report.add("structure_antisymmetry", np.max(np.abs(c + c.transpose(0, 2, 1))),
                   config.tol("structure"), n)
        if sign is not None:
            ref = _mobius_reference_structure(sign, a)
            report.add("structure_closed_form", np.max(np.abs(c - ref)),
                       config.tol("structure"), n)
        b = L.sample(rng)
        v = tangent.TangentVector(base=np.asarray(a, dtype=float),
                                  vec=rng.standard_normal(L.dim))
        rl, rr = tangent.verify_ad_form_laws(L, list(b), v)
        report.add("canonical_form_left_law", rl, config.tol("adform"), n)
        report.add("canonical_form_right_law", rr, config.tol("adform"), n)
    return report


def suite_jacobi(config):
    L = make_loop(config.loop)
    rng = np.random.default_rng(config.seed)
    report = VerificationReport(suite=f"jacobi[{L.name}]")
    for _ in range(config.samples):
        report.add("modified_jacobi", tangent.jacobi_residual(L, list(L.sample(rng))),
                   config.tol("jacobi"), config.samples)
    return report


def suite_reconstruct(config):
    L = make_loop(config.loop)
    rng = np.random.default_rng(config.seed)
    report = VerificationReport(suite=f"reconstruct[{L.name}]")
    n = max(4, config.samples // 10)
    for _ in range(n):
        a = 0.5 * L.sample(rng)
        b = 0.5 * L.sample(rng)
        got = reconstruct.reconstruct_product(L, list(a), list(b), config.steps)
        report.add("product_reconstruction", core.distance(L, got, core.product(L, a, b)),
                   config.tol("reconstruct"), n)
        report.add("maurer_cartan", reconstruct.maurer_cartan_residual(L, list(b), list(a)),
                   config.tol("maurer_cartan"), n)
    report.extend(reconstruct.batalin_axiom_check(
        L, list(0.5 * L.sample(rng)), list(0.5 * L.sample(rng)),
        list(0.5 * L.sample(rng)), config.tol("batalin")))
    return report


def _add_atlas_cases(report, atlas, rng, n, tol, suffix=""):
    """Cocycle, transition right-law and chart round-trip cases over n
    sampled overlap points of ``atlas``."""
    for _ in range(n):
        x = atlas.overlap_sampler(rng)
        q = atlas.fiber_loop.sample(rng)
        report.add("cocycle" + suffix, bundle.cocycle_residual(
            atlas, "minus", "minus", "plus", x, q), tol, n)
        a = 0.5 * atlas.fiber_loop.sample(rng)
        report.add("transition_right_law" + suffix, bundle.transition_right_law_residual(
            atlas, "minus", "plus", x, q, a), tol, n)
        p = bundle.TotalPoint(chart="minus", base=x, fiber=q)
        back = bundle.change_chart(atlas, bundle.change_chart(atlas, p, "plus"),
                                   "minus")
        report.add("chart_round_trip" + suffix, np.max(np.abs(back.fiber - p.fiber)), tol, n)


def suite_bundle(config):
    rng = np.random.default_rng(config.seed)
    report = VerificationReport(suite="bundle")
    tol = config.tol("bundle")
    n = max(10, config.samples // 10)

    for atlas in (bundle.make_s3_bundle(), bundle.make_winding_bundle(2)):
        _add_atlas_cases(report, atlas, rng, n, tol, f"[{atlas.name}]")

    L = make_loop("qc")
    for _ in range(n):
        theta = rng.uniform(0.2, np.pi - 0.2)
        z1, z2 = bundle.s3_point(theta, rng.uniform(0, 2 * np.pi),
                                 rng.uniform(0, 2 * np.pi))
        eta = complex(*(0.5 * L.sample(rng)))
        w1, w2 = bundle.s3_right_action(z1, z2, eta)
        report.add("s3_norm_preservation", abs(abs(w1) ** 2 + abs(w2) ** 2 - 1.0), tol, n)
        theta_w = rng.uniform(0.3, 1.2)
        gamma = rng.uniform(0.0, 2 * np.pi)
        for k in range(1, 6):
            q1 = bundle.winding_transition(1, theta_w, gamma)
            qn = bundle.winding_transition(k, theta_w, gamma)
            it = bundle.iterate_left(L, q1, k, L.identity)
            report.add("winding_closed_form", core.distance(L, qn, it), tol, 5 * n)
    return report


def _phase_transition(coeffs):
    def q_map(xs):
        phi = coeffs[0]
        for c, x in zip(coeffs[1:], xs):
            phi = phi + c * x
        return [gcos(phi), gsin(phi)]
    return q_map


def suite_gauge(config):
    L = make_loop(config.loop)
    rng = np.random.default_rng(config.seed)
    report = VerificationReport(suite=f"gauge[{L.name}]")
    form = gauge.make_test_potential(L, 2, config.seed + 1)
    e = list(L.identity)

    n = min(config.samples, 100)
    coefs = rng.standard_normal((n, 2 + L.dim))
    for k in range(n):
        x = rng.uniform(-0.4, 0.4, 2)
        y = list(0.4 * L.sample(rng))
        ck = coefs[k]

        def f(xs, ys, ck=ck):
            acc = 0.0
            for i, v in enumerate(list(xs) + list(ys)):
                acc = acc + ck[i] * v + 0.1 * ck[i] * v * v * v
            return acc

        report.add("commutator", gauge.commutator_residual(form, 0, 1, f, list(x), y),
                   config.tol("commutator"), n)
        report.add("omega_annihilates_d", gauge.omega_annihilates_d_residual(
            form, list(x), y, 0), config.tol("omega_d"), n)

    # Curvature consistency between the transformed potential and the
    # Ad-rotated curvature, with a circle-valued transition.  Unit-norm
    # transition values live on the full-plane chart, so this case always
    # runs on the spherical fiber.
    qc_form = form if L.name in ("qc", "qsu2") else gauge.make_test_potential(
        make_loop("qc"), 2, config.seed + 1)
    qmap = _phase_transition([0.2, 0.7, -0.4])
    n5, n3 = min(config.samples, 5), min(config.samples, 3)
    for _ in range(n5):
        x = rng.uniform(-0.8, 0.8, 2)
        report.add("gauge_two_route", gauge.curvature_gauge_residual(qc_form, qmap, list(x)),
                   config.tol("gauge_two_route"), n5)

    tol_se = config.tol("structure_eq")
    for _ in range(n5):
        x = rng.uniform(-0.4, 0.4, 2)
        y = list(0.4 * L.sample(rng))
        z = list(x) + y
        h1 = gauge.hor_field(form, rng.standard_normal(2))(z)
        h2 = gauge.hor_field(form, rng.standard_normal(2))(z)
        f1 = gauge.fundamental_field(form, rng.standard_normal(L.dim))(z)
        f2 = gauge.fundamental_field(form, rng.standard_normal(L.dim))(z)
        report.add("structure_eq_horizontal", gauge.structure_equation_residual(
            form, x, y, h1[:2], h1[2:], h2[:2], h2[2:]), tol_se, n5)
        report.add("structure_eq_vertical", gauge.structure_equation_residual(
            form, x, y, f1[:2], f1[2:], f2[:2], f2[2:]), tol_se, n5)
        h1e = gauge.hor_field(form, rng.standard_normal(2))(list(x) + e)
        report.add("structure_eq_mixed", gauge.structure_equation_residual(
            form, x, e, h1e[:2], h1e[2:], [0.0, 0.0],
            list(rng.standard_normal(L.dim))), tol_se, n5)

    form3 = gauge.make_test_potential(L, 3, config.seed + 2)
    for _ in range(n3):
        x = rng.uniform(-0.4, 0.4, 3)
        report.add("bianchi", gauge.bianchi_residual(
            form3, x, e, rng.standard_normal(3), rng.standard_normal(3),
            rng.standard_normal(3)), config.tol("bianchi"), n3)

    La = make_loop("qhr:K=0")
    forma = gauge.make_test_potential(La, 2, config.seed + 3)
    for _ in range(n5):
        x = rng.uniform(-0.5, 0.5, 2)
        y = list(La.sample(rng))
        fcur = gauge.curvature(forma, list(x), y)
        da = jacobian(
            lambda xs: list(np.asarray(forma.potential.A(xs)).reshape(-1)),
            list(x)).reshape(La.dim, 2, 2)
        curl = da[:, 1, 0] - da[:, 0, 1]  # d_0 A_1 - d_1 A_0
        report.add("abelian_maxwell", np.max(np.abs(fcur[:, 1, 0] + curl)),
                   config.tol("maxwell"), n5)

    f1 = gauge.make_test_potential(L, 1, config.seed + 4, kind="trig")
    f2 = gauge.make_test_potential(L, 1, config.seed + 5, kind="trig")
    w1 = lambda xs: 0.5 * (1.0 + gsin(xs[0]))
    w2 = lambda xs: 0.5 * (1.0 - gsin(xs[0]))
    glued = gauge.glue_connections(
        [f1, f2], [w1, w2], [[t] for t in np.linspace(-3, 3, 7)])
    for _ in range(n5):
        x = rng.uniform(-3, 3, 1)
        y = list(0.4 * L.sample(rng))
        report.add("glue_vertical_reproduction", gauge.vertical_reproduction_residual(
            glued, list(x), y, rng.standard_normal(L.dim)), config.tol("glue"), n5)
    return report


SUITE_RUNNERS = {
    "axioms": suite_axioms,
    "tangent": suite_tangent,
    "jacobi": suite_jacobi,
    "reconstruct": suite_reconstruct,
    "bundle": suite_bundle,
    "gauge": suite_gauge,
}


def run_suite(config, suite):
    """Execute a named verification suite and return its report."""
    if suite not in SUITES:
        raise UnknownSuite(f"unknown suite: {suite!r} (choose from {SUITES})")
    t0 = time.perf_counter()
    if suite == "all":
        report = VerificationReport(suite=f"all[{config.loop}]")
        for name in SUITES[:-1]:
            report.extend(SUITE_RUNNERS[name](config))
    else:
        report = SUITE_RUNNERS[suite](config)
    report.wall_time = time.perf_counter() - t0
    return report


def _print_report(report):
    for case in report.cases:
        status = "PASS" if case.passed else "FAIL"
        print(f"{status} {case.name}: max_residual={case.max_residual:.3e} "
              f"tolerance={case.tolerance:.1e} samples={case.samples}")
    overall = "PASS" if report.passed else "FAIL"
    print(f"{overall} {report.suite} ({len(report.cases)} cases, "
          f"{report.wall_time:.2f}s)")


OPTIONS = {
    "--loop": {"help": f"catalog loop ({', '.join(catalog_names())}); default {RunConfig.loop}"},
    "--suite": {"default": "all", "help": f"one of {SUITES}"},
    "--atlas": {"default": "s3-over-s1", "help": "s3-over-s1 or qs2-over-s2:n=<int>"},
    "--a": {"required": True, "help": "comma-separated coordinates"},
    "--b": {"required": True, "help": "comma-separated coordinates"},
    "--samples": {"type": int, "help": f"default {RunConfig.samples}"},
    "--seed": {"type": int, "help": f"default LOOPBUNDLE_SEED, else {RunConfig.seed}"},
    "--steps": {"type": int,
                "help": f"RK4 steps, at least {MIN_STEPS}; default {RunConfig.steps}"},
    "--report": {"help": "write the report as JSON to this file"},
    "--config": {"help": "key = value file of defaults shared by every command"},
    **{f"--tol.{name}": {"type": float, "metavar": "TOL", "help": f"default {value:g}"}
       for name, value in DEFAULT_TOLERANCES.items()},
}
# Every command also takes every --tol.<name>: a config file carries them all.
COMMANDS = {
    "verify": ("run a verification suite",
               ("--loop", "--suite", "--samples", "--seed", "--steps", "--report", "--config")),
    "reconstruct": ("integrate one product", ("--loop", "--a", "--b", "--steps", "--config")),
    "bundle-check": ("verify a bundle atlas",
                     ("--atlas", "--samples", "--seed", "--report", "--config")),
    "gauge-check": ("run the gauge suite",
                    ("--loop", "--samples", "--seed", "--report", "--config")),
}


def _parser():
    parser = argparse.ArgumentParser(prog="loopbundle")
    sub = parser.add_subparsers(dest="command", required=True)
    tolerances = tuple(f"--tol.{name}" for name in DEFAULT_TOLERANCES)
    for command, (text, options) in COMMANDS.items():
        # No abbreviations: --tol.max=1 must not become --tol.maxwell.
        p = sub.add_parser(command, help=text, allow_abbrev=False)
        for option in options + tolerances:
            p.add_argument(option, **OPTIONS[option])
    return parser


def resolve_config(args):
    """The RunConfig of one command: the defaults, then LOOPBUNDLE_SEED,
    then the ``--config`` file, then the flags, validated once.

    The file holds defaults shared by every command, so a setting the
    command has no option for is ignored there; an unknown key is an error.
    """
    options = vars(args)
    values = {"seed": os.environ.get("LOOPBUNDLE_SEED", RunConfig.seed)}
    if args.config:
        values.update(read_config(args.config))
    values.update((key, value) for key, value in options.items() if value is not None)
    return RunConfig.from_values({
        key: value for key, value in values.items()
        if key.startswith("tol.") or (key in options and key in RunConfig.keys())})


def main(argv=None):
    try:
        args, extra = _parser().parse_known_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        for arg in extra:
            if arg.startswith("--tol."):
                raise ValueError(f"unknown tolerance name: {arg[6:].partition('=')[0]!r}")
        if extra:
            raise ValueError(f"unrecognized arguments: {' '.join(extra)}")
        config = resolve_config(args)
        if args.command == "reconstruct":
            return _cmd_reconstruct(config, args)
        if args.command == "bundle-check":
            report = _bundle_check(config, args.atlas)
        else:
            report = run_suite(config, args.suite if args.command == "verify" else "gauge")
        if config.report:
            report.write(config.report)
    except (LoopError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    _print_report(report)
    return 0 if report.passed else 1


def _cmd_reconstruct(config, args):
    L = make_loop(config.loop)
    a, b = ([float(v) for v in text.split(",")] for text in (args.a, args.b))
    got = reconstruct.reconstruct_product(L, a, b, config.steps)
    direct = core.product(L, a, b)
    err = core.distance(L, got, direct)
    print("reconstructed:", " ".join(f"{v:.12g}" for v in got))
    print("closed form:  ", " ".join(f"{float(v):.12g}" for v in direct))
    print(f"difference: {err:.3e} (tolerance {config.tol('reconstruct'):.1e})")
    return 0 if err <= config.tol("reconstruct") else 1


def _bundle_check(config, atlas_name):
    rng = np.random.default_rng(config.seed)
    atlas = bundle.make_atlas(atlas_name)
    report = VerificationReport(suite=f"bundle[{atlas_name}]")
    t0 = time.perf_counter()
    _add_atlas_cases(report, atlas, rng, max(10, config.samples // 10),
                     config.tol("bundle"))
    report.wall_time = time.perf_counter() - t0
    return report


if __name__ == "__main__":
    sys.exit(main())
