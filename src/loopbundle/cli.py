"""Command-line verification harness.

Subcommands: ``verify`` runs residual suites for a catalog loop,
``reconstruct`` integrates a single product from frame data,
``bundle-check`` exercises an atlas, and ``gauge-check`` is a shortcut
for the gauge suite.  Exit status: 0 all cases pass, 1 a verification
case failed, 2 usage or configuration error.
"""

import argparse
import sys
import time

import numpy as np

from . import bundle, core, gauge, reconstruct, tangent
from .dual import gcos, gsin, jacobian, primal
from .errors import LoopError, UnknownLoop, UnknownSuite
from .report import RunConfig, VerificationReport, default_seed, worst_residual
from .zoo import catalog_names, make_loop

SUITES = ("axioms", "tangent", "jacobi", "reconstruct", "bundle", "gauge", "all")


def _loop_for(config):
    try:
        return make_loop(config.loop)
    except LoopError as exc:
        raise UnknownLoop(str(exc)) from exc


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
    L = _loop_for(config)
    report = core.check_loop_axioms(L, config.samples, config.seed)
    for case in report.cases:
        if case.name != "chart_closure":
            case.tolerance = config.tol("axioms")
    if L.name == "qsu2":
        from .zoo import qsu2_product

        rng = np.random.default_rng(config.seed)
        worst = 0.0
        for _ in range(config.samples):
            a, b = L.sample(rng), L.sample(rng)
            _, coord = qsu2_product(complex(*a), complex(*b))
            direct = core.product(L, list(a), list(b))
            worst = worst_residual(worst, abs(coord - complex(direct[0], direct[1])))
        report.add("matrix_representation", worst, config.tol("qsu2"),
                   config.samples)
    return report


def suite_tangent(config):
    L = _loop_for(config)
    rng = np.random.default_rng(config.seed)
    report = VerificationReport(suite=f"tangent[{L.name}]")
    n = config.samples
    anti = 0.0
    closed = 0.0
    ad_left = 0.0
    ad_right = 0.0
    sign = {"qc": -1.0, "qsu2": -1.0, "qh2": 1.0}.get(L.name)
    for _ in range(n):
        a = L.sample(rng)
        c = tangent.structure_tensor_raw(L, a)
        anti = worst_residual(anti, float(np.max(np.abs(c + c.transpose(0, 2, 1)))))
        if sign is not None:
            ref = _mobius_reference_structure(sign, a)
            closed = worst_residual(closed, float(np.max(np.abs(c - ref))))
        b = L.sample(rng)
        v = tangent.TangentVector(base=np.asarray(a, dtype=float),
                                  vec=rng.standard_normal(L.dim))
        rl, rr = tangent.verify_ad_form_laws(L, list(b), list(a), v)
        ad_left = worst_residual(ad_left, rl)
        ad_right = worst_residual(ad_right, rr)
    report.add("structure_antisymmetry", anti, config.tol("structure"), n)
    if sign is not None:
        report.add("structure_closed_form", closed, config.tol("structure"), n)
    report.add("canonical_form_left_law", ad_left, config.tol("adform"), n)
    report.add("canonical_form_right_law", ad_right, config.tol("adform"), n)
    return report


def suite_jacobi(config):
    L = _loop_for(config)
    rng = np.random.default_rng(config.seed)
    report = VerificationReport(suite=f"jacobi[{L.name}]")
    worst = 0.0
    for _ in range(config.samples):
        worst = worst_residual(worst, tangent.jacobi_residual(L, list(L.sample(rng))))
    report.add("modified_jacobi", worst, config.tol("jacobi"), config.samples)
    return report


def suite_reconstruct(config):
    L = _loop_for(config)
    rng = np.random.default_rng(config.seed)
    report = VerificationReport(suite=f"reconstruct[{L.name}]")
    n = max(4, config.samples // 10)
    err = 0.0
    mc = 0.0
    for _ in range(n):
        a = 0.5 * L.sample(rng)
        b = 0.5 * L.sample(rng)
        got = reconstruct.reconstruct_product(L, list(a), list(b), config.steps)
        err = worst_residual(err, core.distance(L, got, core.product(L, a, b)))
        mc = worst_residual(mc, reconstruct.maurer_cartan_residual(L, list(b), list(a)))
    report.add("product_reconstruction", err, config.tol("reconstruct"), n)
    report.add("maurer_cartan", mc, config.tol("maurer_cartan"), n)
    bat = reconstruct.batalin_axiom_check(
        L, list(0.5 * L.sample(rng)), list(0.5 * L.sample(rng)),
        list(0.5 * L.sample(rng)))
    for case in bat.cases:
        report.add("batalin_" + case.name, case.max_residual,
                   config.tol("batalin"), case.samples)
    return report


def _add_atlas_cases(report, atlas, rng, n, tol, suffix=""):
    """Cocycle, transition right-law and chart round-trip cases over n
    sampled overlap points of ``atlas``."""
    coc = 0.0
    law = 0.0
    rt = 0.0
    for _ in range(n):
        x = atlas.overlap_sampler(("plus", "minus"), rng)
        q = atlas.fiber_sampler(rng)
        coc = worst_residual(coc, bundle.cocycle_residual(
            atlas, "minus", "minus", "plus", x, q))
        a = 0.5 * atlas.fiber_loop.sample(rng)
        law = worst_residual(law, bundle.transition_right_law_residual(
            atlas, "minus", "plus", x, q, a))
        p = bundle.TotalPoint(chart="minus", base=x, fiber=q)
        back = bundle.change_chart(atlas, bundle.change_chart(atlas, p, "plus"),
                                   "minus")
        rt = worst_residual(rt, float(np.max(np.abs(back.fiber - p.fiber))))
    report.add("cocycle" + suffix, coc, tol, n)
    report.add("transition_right_law" + suffix, law, tol, n)
    report.add("chart_round_trip" + suffix, rt, tol, n)


def suite_bundle(config):
    rng = np.random.default_rng(config.seed)
    report = VerificationReport(suite="bundle")
    tol = config.tol("bundle")
    n = max(10, config.samples // 10)

    for atlas in (bundle.make_s3_bundle(), bundle.make_winding_bundle(2)):
        label = atlas.name if not atlas.params else \
            f"{atlas.name}:n={atlas.params['n']}"
        _add_atlas_cases(report, atlas, rng, n, tol, f"[{label}]")

    norm = 0.0
    wind = 0.0
    L = make_loop("qc")
    for _ in range(n):
        theta = rng.uniform(0.2, np.pi - 0.2)
        z1, z2 = bundle.s3_point(theta, rng.uniform(0, 2 * np.pi),
                                 rng.uniform(0, 2 * np.pi))
        eta = complex(*(0.5 * L.sample(rng)))
        w1, w2 = bundle.s3_right_action(z1, z2, eta)
        norm = worst_residual(norm, abs(abs(w1) ** 2 + abs(w2) ** 2 - 1.0))
        theta_w = rng.uniform(0.3, 1.2)
        gamma = rng.uniform(0.0, 2 * np.pi)
        for k in range(1, 6):
            q1 = bundle.winding_transition(1, theta_w, gamma)
            qn = bundle.winding_transition(k, theta_w, gamma)
            it = bundle.iterate_left(L, q1, k, L.identity)
            wind = worst_residual(wind, core.distance(L, qn, it))
    report.add("s3_norm_preservation", norm, tol, n)
    report.add("winding_closed_form", wind, tol, 5 * n)
    return report


def _phase_transition(coeffs):
    def q_map(xs):
        phi = coeffs[0]
        for c, x in zip(coeffs[1:], xs):
            phi = phi + c * x
        return [gcos(phi), gsin(phi)]
    return q_map


def suite_gauge(config):
    L = _loop_for(config)
    rng = np.random.default_rng(config.seed)
    report = VerificationReport(suite=f"gauge[{L.name}]")
    form = gauge.make_test_potential(L, 2, config.seed + 1)
    e = list(L.identity)

    n = min(config.samples, 100)
    comm = 0.0
    om_d = 0.0
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

        comm = worst_residual(
            comm, gauge.commutator_residual(form, 0, 1, f, list(x), y))
        om_d = worst_residual(
            om_d, gauge.omega_annihilates_d_residual(form, list(x), y, 0))
    report.add("commutator", comm, config.tol("commutator"), n)
    report.add("omega_annihilates_d", om_d, config.tol("omega_d"), n)

    # Curvature consistency between the transformed potential and the
    # Ad-rotated curvature, with a circle-valued transition.  Unit-norm
    # transition values live on the full-plane chart, so this case always
    # runs on the spherical fiber.
    qc_form = form if L.name in ("qc", "qsu2") else gauge.make_test_potential(
        make_loop("qc"), 2, config.seed + 1)
    two_route = 0.0
    qmap = _phase_transition([0.2, 0.7, -0.4])
    for _ in range(5):
        x = rng.uniform(-0.8, 0.8, 2)
        two_route = worst_residual(two_route, gauge.curvature_gauge_residual(
            qc_form, qmap, list(x)))
    report.add("gauge_two_route", two_route, config.tol("gauge_two_route"), 5)

    hor = 0.0
    vert = 0.0
    mixed = 0.0
    for _ in range(5):
        x = rng.uniform(-0.4, 0.4, 2)
        y = list(0.4 * L.sample(rng))
        z = list(x) + y
        h1 = [primal(v) for v in gauge.hor_field(form, rng.standard_normal(2))(z)]
        h2 = [primal(v) for v in gauge.hor_field(form, rng.standard_normal(2))(z)]
        f1 = [primal(v) for v in gauge.fundamental_field(
            form, rng.standard_normal(L.dim))(z)]
        f2 = [primal(v) for v in gauge.fundamental_field(
            form, rng.standard_normal(L.dim))(z)]
        hor = worst_residual(hor, gauge.structure_equation_residual(
            form, x, y, h1[:2], h1[2:], h2[:2], h2[2:]))
        vert = worst_residual(vert, gauge.structure_equation_residual(
            form, x, y, f1[:2], f1[2:], f2[:2], f2[2:]))
        ze = list(x) + e
        h1e = [primal(v) for v in gauge.hor_field(form, rng.standard_normal(2))(ze)]
        mixed = worst_residual(mixed, gauge.structure_equation_residual(
            form, x, e, h1e[:2], h1e[2:], [0.0, 0.0],
            list(rng.standard_normal(L.dim))))
    tol_se = config.tol("structure_eq")
    report.add("structure_eq_horizontal", hor, tol_se, 5)
    report.add("structure_eq_vertical", vert, tol_se, 5)
    report.add("structure_eq_mixed", mixed, tol_se, 5)

    form3 = gauge.make_test_potential(L, 3, config.seed + 2)
    bia = 0.0
    for _ in range(3):
        x = rng.uniform(-0.4, 0.4, 3)
        bia = worst_residual(bia, gauge.bianchi_residual(
            form3, x, e, rng.standard_normal(3), rng.standard_normal(3),
            rng.standard_normal(3)))
    report.add("bianchi", bia, config.tol("bianchi"), 3)

    La = make_loop("qhr:K=0")
    forma = gauge.make_test_potential(La, 2, config.seed + 3)
    maxwell = 0.0
    for _ in range(5):
        x = rng.uniform(-0.5, 0.5, 2)
        y = list(La.sample(rng))
        fcur = gauge.curvature(forma, list(x), y)
        flat = jacobian(
            lambda xs: list(np.asarray(forma.potential.A(xs)).reshape(-1)),
            list(x))
        da = np.array([[primal(v) for v in row]
                       for row in flat]).reshape(La.dim, 2, 2)
        curl = da[:, 1, 0] - da[:, 0, 1]  # d_0 A_1 - d_1 A_0
        maxwell = worst_residual(maxwell, float(np.max(np.abs(fcur[:, 1, 0] + curl))))
    report.add("abelian_maxwell", maxwell, config.tol("maxwell"), 5)

    f1 = gauge.make_test_potential(L, 1, config.seed + 4, kind="trig")
    f2 = gauge.make_test_potential(L, 1, config.seed + 5, kind="trig")
    w1 = lambda xs: 0.5 * (1.0 + float(gsin(xs[0])))
    w2 = lambda xs: 0.5 * (1.0 - float(gsin(xs[0])))
    glued = gauge.glue_connections(
        [f1, f2], [w1, w2], [[t] for t in np.linspace(-3, 3, 7)])
    rep = 0.0
    for _ in range(5):
        x = rng.uniform(-3, 3, 1)
        y = list(0.4 * L.sample(rng))
        rep = worst_residual(rep, gauge.vertical_reproduction_residual(
            glued, list(x), y, rng.standard_normal(L.dim)))
    report.add("glue_vertical_reproduction", rep, config.tol("glue"), 5)
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
    if config.report_path:
        report.write(config.report_path)
    return report


def _print_report(report):
    for case in report.cases:
        status = "PASS" if case.passed else "FAIL"
        print(f"{status} {case.name}: max_residual={case.max_residual:.3e} "
              f"tolerance={case.tolerance:.1e} samples={case.samples}")
    overall = "PASS" if report.passed else "FAIL"
    print(f"{overall} {report.suite} ({len(report.cases)} cases, "
          f"{report.wall_time:.2f}s)")


def _extract_tolerance_flags(argv):
    """Pull --tol.<name>=value (or space-separated) flags out of argv."""
    rest = []
    tols = {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg.startswith("--tol."):
            key, eq, value = arg[6:].partition("=")
            if not eq:
                if i + 1 >= len(argv):
                    raise ValueError(f"missing value for --tol.{key}")
                value = argv[i + 1]
                i += 1
            tols[key] = float(value)
        else:
            rest.append(arg)
        i += 1
    return rest, tols


def _build_config(args, tols):
    if getattr(args, "config", None):
        config = RunConfig.from_file(args.config)
    else:
        config = RunConfig(seed=default_seed())
    if args.loop is not None:
        config.loop = args.loop
    if args.samples is not None:
        config.samples = args.samples
    if args.seed is not None:
        config.seed = args.seed
    if getattr(args, "steps", None) is not None:
        config.steps = args.steps
    if args.report is not None:
        config.report_path = args.report
    config.tolerances.update(tols)
    config.validate()
    return config


def _add_common(parser):
    parser.add_argument("--loop", default=None,
                        help=f"catalog loop ({', '.join(catalog_names())})")
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--report", default=None, help="report file path")
    parser.add_argument("--config", default=None, help="key=value config file")


def _parse_coords(text):
    return [float(v) for v in text.split(",")]


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, tols = _extract_tolerance_flags(argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(prog="loopbundle")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    _add_common(p_verify)
    p_verify.add_argument("--suite", default="all", help=f"one of {SUITES}")
    p_verify.add_argument("--steps", type=int, default=None)

    p_rec = sub.add_parser("reconstruct", help="integrate one product")
    _add_common(p_rec)
    p_rec.add_argument("--steps", type=int, default=None)
    p_rec.add_argument("--a", required=True, help="comma-separated coordinates")
    p_rec.add_argument("--b", required=True, help="comma-separated coordinates")

    p_bundle = sub.add_parser("bundle-check", help="verify a bundle atlas")
    _add_common(p_bundle)
    p_bundle.add_argument("--atlas", default="s3-over-s1",
                          help="s3-over-s1 or qs2-over-s2:n=<int>")

    p_gauge = sub.add_parser("gauge-check", help="run the gauge suite")
    _add_common(p_gauge)
    p_gauge.add_argument("--steps", type=int, default=None)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        config = _build_config(args, tols)
        if args.command == "verify":
            report = run_suite(config, args.suite)
        elif args.command == "gauge-check":
            report = run_suite(config, "gauge")
        elif args.command == "reconstruct":
            return _cmd_reconstruct(config, args)
        elif args.command == "bundle-check":
            report = _bundle_check(config, args.atlas)
            if config.report_path:
                report.write(config.report_path)
        else:
            raise ValueError(f"unknown command {args.command!r}")
    except (LoopError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    _print_report(report)
    return 0 if report.passed else 1


def _cmd_reconstruct(config, args):
    L = _loop_for(config)
    a = _parse_coords(args.a)
    b = _parse_coords(args.b)
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
