"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not computed.
"""

import math
import random
import time

from envlines import (
    CREATIVE,
    NON_UNIQUE,
    NOT_CREATIVE,
    UNIQUE,
    assess_creativity,
    assess_uniqueness,
    build_creator,
    build_family_clairaut,
    build_family_general,
    build_family_hedgehog,
    build_family_normalized,
    compare_methods,
    evaluate_jet,
    fd_derivative,
    parse_expression,
    sample_discriminant,
    sample_envelope,
    verify_envelope,
)
from envlines.analysis import parameter_grid
from envlines.cli import main
from conftest import scan_and_singulars
from exprgen import gentle_expression

P = parse_expression
KPI = [k * math.pi for k in range(-3, 4)]


def check(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def canonical(family, grid_n=1001, user_b=None):
    scan, singulars = scan_and_singulars(family, grid_n)
    return build_creator(scan, assess_creativity(scan, singulars), user_b)


def canonical_comparison(family, grid_n=1001):
    scan, singulars = scan_and_singulars(family, grid_n)
    creator = build_creator(scan, assess_creativity(scan, singulars))
    return compare_methods(creator, sample_discriminant(scan, singulars),
                           sample_envelope(family, creator, grid_n, scan))


def sine_tangent_family():
    return build_family_general(P("-cos t"), P("1"), P("t*cos t - sin t"), (-10.0, 10.0))


def test_criterion_1_sine_tangent_round_trip():
    start = time.perf_counter()
    family = sine_tangent_family()
    scan, singulars = scan_and_singulars(family, 1001)
    report = assess_creativity(scan, singulars)
    uniqueness = assess_uniqueness(scan)
    creator = build_creator(scan, report)
    curve = sample_envelope(family, creator, 1001)
    elapsed = time.perf_counter() - start

    verdict_ok = report.verdict == CREATIVE and uniqueness.verdict == UNIQUE
    b_err = max(
        abs(creator(float(t)) - (-(t + math.cos(t) * math.sin(t)) / math.sqrt(math.cos(t) ** 2 + 1)))
        / (1.0 + abs(-(t + math.cos(t) * math.sin(t)) / math.sqrt(math.cos(t) ** 2 + 1)))
        for t in parameter_grid(family.domain, 1001)
    )
    env_err = max(
        max(abs(p.point[0] - p.t), abs(p.point[1] - math.sin(p.t))) for p in curve.samples
    )
    check(
        "criterion 1: sine-tangent round trip",
        verdict_ok and b_err <= 1e-6 and env_err <= 1e-6 and elapsed < 1.0,
        f"b_err={b_err:.2e}, env_err={env_err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_creativity_negatives():
    start = time.perf_counter()
    parallel = build_family_normalized(P("0"), P("t"), (-1.0, 1.0))
    parallel_verdict = assess_creativity(*scan_and_singulars(parallel, 1001)).verdict
    t_parallel = time.perf_counter() - start

    start = time.perf_counter()
    evolute = build_family_general(P("1"), P("cos t"), P("-t - cos t*sin t"), (-10.0, 10.0))
    evolute_report = assess_creativity(*scan_and_singulars(evolute, 1001))
    t_evolute = time.perf_counter() - start

    witnesses = sorted(p.t for p in evolute_report.witnesses)
    witness_ok = len(witnesses) == 7 and all(
        abs(t - expected) <= 1e-6 for t, expected in zip(witnesses, KPI)
    )
    check(
        "criterion 2: creativity negatives",
        parallel_verdict == NOT_CREATIVE
        and evolute_report.verdict == NOT_CREATIVE
        and witness_ok
        and t_parallel < 1.0
        and t_evolute < 1.0,
        f"witnesses at k*pi: {witness_ok}, {t_parallel:.2f}s / {t_evolute:.2f}s",
    )


def test_criterion_3_degenerate_positives():
    still = build_family_normalized(P("0"), P("0"), (-1.0, 1.0))
    still_scan, still_singulars = scan_and_singulars(still, 1001)
    still_report = assess_creativity(still_scan, still_singulars)
    still_unique = assess_uniqueness(still_scan).verdict
    sine_creator = build_creator(still_scan, still_report, P("sin(t)"))
    still_curve = sample_envelope(still, sine_creator, 1001)
    still_err = max(
        max(abs(p.point[0]), abs(p.point[1] - math.sin(p.t))) for p in still_curve.samples
    )

    quadratic = build_family_normalized(P("t^2"), P("0"), (-1.0, 1.0))
    quadratic_scan, quadratic_singulars = scan_and_singulars(quadratic, 1001)
    quadratic_report = assess_creativity(quadratic_scan, quadratic_singulars)
    quadratic_unique = assess_uniqueness(quadratic_scan).verdict
    quadratic_curve = sample_envelope(quadratic, build_creator(quadratic_scan, quadratic_report),
                                      1001)
    quadratic_err = max(
        max(abs(p.point[0]), abs(p.point[1])) for p in quadratic_curve.samples
    )
    check(
        "criterion 3: degenerate positives",
        still_report.verdict == CREATIVE
        and still_unique == NON_UNIQUE
        and still_err <= 1e-9
        and quadratic_report.verdict == CREATIVE
        and quadratic_unique == UNIQUE
        and quadratic_err <= 1e-12,
        f"(0,sin t) err={still_err:.2e}, origin err={quadratic_err:.2e}",
    )


def test_criterion_4_clairaut_singular_solutions():
    cases = [
        ("t^2", lambda t: 2.0 * t, lambda t: t * t),
        ("t^3", lambda t: 3.0 * t * t, lambda t: t ** 3),
        ("exp(t)", math.exp, math.exp),
    ]
    worst = 0.0
    for source, g_prime, g in cases:
        family = build_family_clairaut(P(source), (-2.0, 2.0))
        curve = sample_envelope(family, canonical(family), 1001)
        for p in curve.samples:
            expected = (-g_prime(p.t), g(p.t) - p.t * g_prime(p.t))
            worst = max(worst, abs(p.point[0] - expected[0]), abs(p.point[1] - expected[1]))
    check("criterion 4: Clairaut singular solutions", worst <= 1e-6, f"max err={worst:.2e}")


def test_criterion_5_hedgehog_cahn_hoffman():
    domain = (0.0, 2.0 * math.pi)
    cases = [
        ("1", lambda t: 0.0),
        ("sin(t)", math.cos),
        ("2 + cos(3*t)", lambda t: -3.0 * math.sin(3.0 * t)),
    ]
    worst_b = 0.0
    for source, a_prime in cases:
        family = build_family_hedgehog(P(source), domain)
        creator = canonical(family)
        for t in parameter_grid(domain, 1001):
            worst_b = max(worst_b, abs(creator(float(t)) - a_prime(float(t))))

    cosine = build_family_hedgehog(P("cos(t)"), domain)
    curve = sample_envelope(cosine, canonical(cosine), 1001)
    point_err = max(
        max(abs(p.point[0] - 1.0), abs(p.point[1])) for p in curve.samples
    )
    check(
        "criterion 5: hedgehog Cahn-Hoffman",
        worst_b <= 1e-9 and point_err <= 1e-9,
        f"|b - a'|={worst_b:.2e}, point err={point_err:.2e}",
    )


def test_criterion_6_discriminant_pollution():
    family = sine_tangent_family()
    comparison = canonical_comparison(family)
    failures = sorted(comparison.failure_ts)
    set_ok = len(failures) == 7 and all(
        abs(t - expected) <= 1e-9 for t, expected in zip(failures, KPI)
    )

    disc = sample_discriminant(*scan_and_singulars(family, 1001))
    lines_ok = len(disc.polluted_lines) == 7
    for (t, line), k in zip(disc.polluted_lines, range(-3, 4)):
        if k % 2 == 0:
            probes = [(0.0, -k * math.pi), (1.0, 1.0 - k * math.pi)]   # Y = X - k pi, k even
        else:
            probes = [(0.0, k * math.pi), (1.0, k * math.pi - 1.0)]    # Y = -X + k pi, k odd
        for x, y in probes:
            lines_ok = lines_ok and abs(x * line.nu[0] + y * line.nu[1] - line.offset) <= 1e-9

    clairaut = build_family_clairaut(P("t^2"), (-2.0, 2.0))
    clairaut_ok = canonical_comparison(clairaut).widespread_ok
    check(
        "criterion 6: discriminant pollution",
        (not comparison.widespread_ok) and set_ok and lines_ok and clairaut_ok,
        f"failure set ok={set_ok}, line probes ok={lines_ok}",
    )


def _creative_runs():
    two_pi = 2.0 * math.pi
    runs = []
    sine = sine_tangent_family()
    runs.append((sine, canonical(sine)))
    still = build_family_normalized(P("0"), P("0"), (-1.0, 1.0))
    runs.append((still, canonical(still, 1001, P("sin(t)"))))
    quadratic = build_family_normalized(P("t^2"), P("0"), (-1.0, 1.0))
    runs.append((quadratic, canonical(quadratic)))
    for g in ("t^2", "t^3", "exp(t)"):
        family = build_family_clairaut(P(g), (-2.0, 2.0))
        runs.append((family, canonical(family)))
    for a in ("1", "sin(t)", "2 + cos(3*t)", "cos(t)"):
        family = build_family_hedgehog(P(a), (0.0, two_pi))
        runs.append((family, canonical(family)))
    return runs


def test_criterion_7i_membership_residual():
    worst = 0.0
    for family, creator in _creative_runs():
        curve = sample_envelope(family, creator, 1001)
        for p in curve.samples:
            _, _, a = family.coeff_jets(p.t, 0)
            worst = max(worst, abs(p.point[0] * p.nu[0] + p.point[1] * p.nu[1] - a.value))
    check("criterion 7(i): membership residual", worst <= 1e-12, f"max={worst:.2e}")


def test_criterion_7ii_tangency_residual():
    ok = True
    details = []
    for family, creator in _creative_runs():
        curve = sample_envelope(family, creator, 8001)
        report = verify_envelope(curve)
        ok = ok and report.passed
        details.append(f"{family.mode}:{report.max_tangency_residual:.1e}")
    check("criterion 7(ii): tangency residual", ok, ", ".join(details))


def test_criterion_7iii_jet_versus_finite_differences():
    rng = random.Random(20240809)
    worst = 0.0
    for _ in range(200):
        expr = P(gentle_expression(rng))
        t = rng.uniform(-2.0, 2.0)
        exact = evaluate_jet(expr, t, 1).coeffs[1]
        estimate = fd_derivative(expr, t, 1, 1e-5)
        worst = max(worst, abs(exact - estimate) / (1.0 + abs(exact)))
    check("criterion 7(iii): jet vs finite differences", worst <= 1e-6, f"max={worst:.2e}")


def test_criterion_7iv_antipodal_invariance():
    family = sine_tangent_family()
    flipped = build_family_general(P("cos t"), P("-1"), P("-(t*cos t - sin t)"), (-10.0, 10.0))
    scan_a, singulars_a = scan_and_singulars(family, 1001)
    scan_b, singulars_b = scan_and_singulars(flipped, 1001)
    report_a = assess_creativity(scan_a, singulars_a)
    report_b = assess_creativity(scan_b, singulars_b)
    verdict_ok = report_a.verdict == report_b.verdict
    creator_a = build_creator(scan_a, report_a)
    creator_b = build_creator(scan_b, report_b)
    curve_a = sample_envelope(family, creator_a, 1001)
    curve_b = sample_envelope(flipped, creator_b, 1001)
    worst = max(
        max(abs(pa.point[0] - pb.point[0]), abs(pa.point[1] - pb.point[1]))
        for pa, pb in zip(curve_a.samples, curve_b.samples)
    )
    check(
        "criterion 7(iv): antipodal invariance",
        verdict_ok and worst <= 1e-9,
        f"verdicts equal={verdict_ok}, envelope diff={worst:.2e}",
    )


def test_criterion_7v_byte_determinism(tmp_path):
    example1 = ["--A", "-cos t", "--B", "1", "--C", "t*cos t - sin t",
                "--domain", "-10:10", "--grid-n", "301"]
    jobs = [
        (["analyze", *example1], "json"),
        (["envelope", *example1], "csv"),
        (["discriminant", *example1], "json"),
        (["compare", *example1], "json"),
        (["plot", *example1], "svg"),
    ]
    ok = True
    for args, suffix in jobs:
        first = tmp_path / f"first-{args[0]}.{suffix}"
        second = tmp_path / f"second-{args[0]}.{suffix}"
        main([*args, "--output", str(first)])
        main([*args, "--output", str(second)])
        ok = ok and first.read_bytes() == second.read_bytes()
    check("criterion 7(v): byte determinism", ok)
