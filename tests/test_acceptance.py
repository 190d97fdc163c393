"""Acceptance gate: one quantitative criterion per test, one line per verdict.

Each test prints a single pass/fail line (written through the capture so it
is visible in any pytest run) and asserts both the numeric gate and the
runtime budget.
"""

import math
import time

import numpy as np
import pytest

from halfpipe.bending import (
    BendingContext,
    bending_cocycle,
    bending_map,
    bent_holonomy,
    psi_lambda,
    sigma_embed,
)
from halfpipe.doubling import (
    cusp_stabilizer_check,
    double_convex_core_pair,
    meridian_cone_angle,
)
from halfpipe.fuchsian import (
    TeichPoint,
    WeightedMulticurve,
    build_punctured_torus,
    free_reduce,
    kerckhoff_point,
    multicurve_length,
)
from halfpipe.geometry import ADS, HP, HYP, Plane, SpacelikeGeodesicH2, disk_lift, klein_hp
from halfpipe.isometry import (
    classify_isometry,
    embed_h2_isometry,
    group_residual,
    h2_rotation,
    boost_from_origin,
    reflection,
    rescale_conjugate,
    rotation,
)
from halfpipe.transition import (
    direct_hp_matrix,
    extrapolate_limit,
    holonomy_family,
    normalized_projective,
    pleated_surface_convergence,
    projective_distance,
    richardson_limit,
)

ALL_TAGS = (HYP, ADS, HP)
SYMMETRIC = TeichPoint(3.0, 3.0, 3.0)
BASE = np.array([0.11, 0.07])
TRANSITION_GRID = (1e-1, 1e-2, 1e-3, 1e-4)
LETTERS = "ABab"


def _verdict(capsys, number, name, ok, detail, elapsed, budget):
    line = (
        f"criterion {number:02d} {name}: {'PASS' if ok and elapsed < budget else 'FAIL'}"
        f" ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)"
    )
    with capsys.disabled():
        print(line)
    assert ok, line
    assert elapsed < budget, line


def _lamination(weight=1.0):
    return WeightedMulticurve.single("A", weight)


def _random_disk_points(rng, count, radius=0.9):
    angles = rng.uniform(0.0, 2.0 * math.pi, size=count)
    radii = radius * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    return np.stack((radii * np.cos(angles), radii * np.sin(angles)), axis=1)


def _random_axis(rng, min_gap=0.5):
    while True:
        phi = rng.uniform(0.0, 2.0 * math.pi, size=2)
        if abs(math.remainder(phi[0] - phi[1], 2.0 * math.pi)) > min_gap:
            break
    start = np.array([math.cos(phi[0]), math.sin(phi[0])])
    end = np.array([math.cos(phi[1]), math.sin(phi[1])])
    return SpacelikeGeodesicH2.from_ideal_endpoints_klein(start, end)


def _central_axis(rng):
    # a chord passing near the disk center keeps the transport matrices small;
    # noncompact factors must stay tiny or the worst of 10^4 random products
    # drifts to norms where an absolute residual gate is meaningless
    phi = rng.uniform(0.0, 2.0 * math.pi)
    psi = phi + math.pi + rng.uniform(-0.1, 0.1)
    start = np.array([math.cos(phi), math.sin(phi)])
    end = np.array([math.cos(psi), math.sin(psi)])
    return SpacelikeGeodesicH2.from_ideal_endpoints_klein(start, end)


def _random_word(rng, max_length=4):
    length = int(rng.integers(0, max_length + 1))
    return free_reduce("".join(rng.choice(list(LETTERS)) for _ in range(length)))


def test_criterion_01_composition_chains(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    chains, max_length = 10_000, 64
    worst = 0.0
    for tag in ALL_TAGS:
        pool = []
        # anti-de Sitter rotation about a spacelike axis is a cosh/sinh pair,
        # so rotation angles are kept small alongside the other noncompact
        # parameters
        for _ in range(8):
            pool.append(rotation(tag, _central_axis(rng), rng.uniform(-0.2, 0.2)).matrix)
        for _ in range(8):
            u = disk_lift(0.05 * _random_disk_points(rng, 1)[0])
            pool.append(embed_h2_isometry(tag, boost_from_origin(u)).matrix)
            pool.append(embed_h2_isometry(tag, h2_rotation(rng.uniform(0, 2 * math.pi))).matrix)
        for _ in range(8):
            c = 0.1 * _random_disk_points(rng, 1)[0]
            if tag is HP:
                plane = Plane.hp_plane_dual_to(np.array([rng.uniform(-0.1, 0.1), c[0], c[1]]))
            else:
                plane = Plane(np.array([c[0], c[1], rng.uniform(-0.1, 0.1), 1.0]), tag)
            pool.append(reflection(plane).matrix)
        stack = np.stack(pool + [np.linalg.inv(m) for m in pool])

        lengths = rng.integers(1, max_length + 1, size=chains)
        picks = rng.integers(0, stack.shape[0], size=(chains, max_length))
        matrices = np.broadcast_to(np.eye(4), (chains, 4, 4)).copy()
        for step in range(max_length):
            active = lengths > step
            matrices[active] = np.einsum(
                "nij,njk->nik", matrices[active], stack[picks[active, step]]
            )
        residual = max(group_residual(m, tag) for m in matrices)
        worst = max(worst, residual)
    elapsed = time.perf_counter() - started
    _verdict(
        capsys, 1, "composition-chains", worst < 1e-11,
        f"worst group residual {worst:.2e} over {3 * chains} chains", elapsed, 5.0,
    )


def test_criterion_02_rotation_transition(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    worst_order = math.inf
    worst_limit = 0.0
    for _ in range(100):
        axis = _random_axis(rng)
        a = rng.uniform(0.1, 2.0)
        target = rotation(HP, axis, a).matrix
        for side in (1.0, -1.0):
            tag = HYP if side > 0 else ADS
            samples, residuals = [], []
            for t in TRANSITION_GRID:
                s = side * t
                mat = rescale_conjugate(s, rotation(tag, axis, s * a))
                samples.append((s, mat))
                residuals.append(np.max(np.abs(mat - target)))
            order = np.polyfit(np.log(TRANSITION_GRID), np.log(residuals), 1)[0]
            limit_gap = float(np.max(np.abs(richardson_limit(samples, order=2.0) - target)))
            worst_order = min(worst_order, order)
            worst_limit = max(worst_limit, limit_gap)
    ok = worst_order >= 0.9 and worst_limit < 1e-8
    elapsed = time.perf_counter() - started
    _verdict(
        capsys, 2, "rotation-transition", ok,
        f"min order {worst_order:.2f}, max extrapolated gap {worst_limit:.2e}",
        elapsed, 5.0,
    )


def test_criterion_03_reflection_transition(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        c = rng.uniform(-0.8, 0.8, size=3)
        target = np.eye(4)
        target[3, :3] = -2.0 * c
        target[3, 3] = -1.0
        samples = []
        for t in TRANSITION_GRID:
            plane = Plane(np.array([t * c[0], t * c[1], t * c[2], 1.0]), HYP)
            samples.append((t, rescale_conjugate(t, reflection(plane))))
        gap = float(np.max(np.abs(richardson_limit(samples, order=2.0) - target)))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - started
    _verdict(
        capsys, 3, "reflection-transition", worst < 1e-8,
        f"max extrapolated gap {worst:.2e} over 50 plane families", elapsed, 5.0,
    )


def test_criterion_04_bent_holonomy_is_representation(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    group = build_punctured_torus(SYMMETRIC)
    pairs = [(_random_word(rng), _random_word(rng)) for _ in range(200)]
    worst = 0.0
    for tag in ALL_TAGS:
        for scale in (0.2, 0.05):
            ctx = BendingContext(
                group=group, multicurve=_lamination(), base_point=BASE,
                tag=tag, sign=1.0, scale=scale,
            )
            rho = bent_holonomy(ctx)
            cache = {}

            def _eval(word, rho=rho, cache=cache):
                if word not in cache:
                    cache[word] = rho(word).matrix
                return cache[word]

            for w1, w2 in pairs:
                residual = np.max(
                    np.abs(_eval(free_reduce(w1 + w2)) - _eval(w1) @ _eval(w2))
                )
                worst = max(worst, float(residual))
    elapsed = time.perf_counter() - started
    _verdict(
        capsys, 4, "bent-holonomy-representation", worst < 1e-9,
        f"max homomorphism residual {worst:.2e} over 200 pairs x 3 geometries x 2 scales",
        elapsed, 60.0,
    )


def test_criterion_05_cocycle_identities(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(105)
    group = build_punctured_torus(SYMMETRIC)
    worst_cocycle = 0.0
    worst_invariance = 0.0
    for index in range(50):
        tag = ALL_TAGS[index % 3]
        ctx = BendingContext(
            group=group, multicurve=_lamination(), base_point=BASE,
            tag=tag, sign=1.0, scale=float(rng.uniform(0.1, 0.3)),
        )
        x, y, z = _random_disk_points(rng, 3)
        chain = bending_cocycle(ctx, x, y) @ bending_cocycle(ctx, y, z)
        direct = bending_cocycle(ctx, x, z)
        worst_cocycle = max(worst_cocycle, float(np.max(np.abs(chain.matrix - direct.matrix))))

        word = _random_word(rng, 3) or "B"
        push = sigma_embed(ctx, word)
        gx = _act(group.lorentz(word), x)
        gy = _act(group.lorentz(word), y)
        moved = bending_cocycle(ctx, gx, gy)
        conjugated = push @ bending_cocycle(ctx, x, y) @ push.inverse()
        worst_invariance = max(
            worst_invariance, float(np.max(np.abs(moved.matrix - conjugated.matrix)))
        )
    ok = worst_cocycle < 1e-9 and worst_invariance < 1e-9
    elapsed = time.perf_counter() - started
    _verdict(
        capsys, 5, "cocycle-identities", ok,
        f"cocycle condition {worst_cocycle:.2e}, equivariance {worst_invariance:.2e}, 50 configs each",
        elapsed, 60.0,
    )


def _act(lorentz, z):
    lifted = lorentz @ np.array([1.0, z[0], z[1]])
    return lifted[1:] / lifted[0]


def test_criterion_06_one_sided_holonomy_limits(capsys):
    started = time.perf_counter()
    group = build_punctured_torus(SYMMETRIC)
    lam = _lamination()
    worst_gap = 0.0
    worst_match = 0.0
    for word in ("A", "B"):
        report = extrapolate_limit(holonomy_family(group, lam, 1.0, word, base_point=BASE))
        direct = normalized_projective(direct_hp_matrix(group, lam, 1.0, word, BASE))
        worst_gap = max(worst_gap, report.two_sided_gap)
        worst_match = max(worst_match, projective_distance(report.limit, direct))
    ok = worst_gap < 1e-6 and worst_match < 1e-6
    elapsed = time.perf_counter() - started
    _verdict(
        capsys, 6, "one-sided-holonomy-limits", ok,
        f"two-sided gap {worst_gap:.2e}, direct half-pipe match {worst_match:.2e}",
        elapsed, 120.0,
    )


def test_criterion_07_pleated_surface_transition(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(107)
    group = build_punctured_torus(SYMMETRIC)
    samples = _random_disk_points(rng, 200)
    report = pleated_surface_convergence(
        group, _lamination(), 1.0, samples, BASE,
        grid=(-1e-3, 1e-3, -1e-4, 1e-4),
    )
    by_t = dict(zip(report.grid, report.max_residuals))
    ok = True
    detail_parts = []
    for side in (1.0, -1.0):
        coarse, fine = by_t[side * 1e-3], by_t[side * 1e-4]
        ok = ok and fine < 10.0 * coarse * 0.2
        detail_parts.append(f"res({side * 1e-4:+.0e})={fine:.2e} vs gate {2.0 * coarse:.2e}")
    elapsed = time.perf_counter() - started
    _verdict(
        capsys, 7, "pleated-surface-transition", ok,
        ", ".join(detail_parts) + " on 200 points", elapsed, 120.0,
    )


def test_criterion_08_hp_surface_is_graph(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(108)
    group = build_punctured_torus(SYMMETRIC)
    ctx = BendingContext(
        group=group, multicurve=_lamination(), base_point=BASE,
        tag=HP, sign=1.0, scale=1.0,
    )
    worst_graph = 0.0
    for z in _random_disk_points(rng, 500):
        _, height = klein_hp(bending_map(ctx, z))
        worst_graph = max(worst_graph, abs(height - psi_lambda(ctx, z)))
    concave = True
    worst_sag = 0.0
    for _ in range(1000):
        z1, z2 = _random_disk_points(rng, 2)
        mid = psi_lambda(ctx, 0.5 * (z1 + z2))
        sag = 0.5 * (psi_lambda(ctx, z1) + psi_lambda(ctx, z2)) - mid
        worst_sag = max(worst_sag, sag)
        concave = concave and sag <= 1e-12
    ok = worst_graph < 1e-10 and concave
    elapsed = time.perf_counter() - started
    _verdict(
        capsys, 8, "hp-surface-graph", ok,
        f"max graph gap {worst_graph:.2e} on 500 points, max midpoint sag {worst_sag:.2e} on 1000 pairs",
        elapsed, 30.0,
    )


def test_criterion_09_cone_angles(capsys):
    started = time.perf_counter()
    group = build_punctured_torus(SYMMETRIC)
    ts = (0.2, 0.1, 0.05, 0.01)
    worst_table = 0.0
    worst_slope = 0.0
    worst_hp = 0.0
    for weight in (1.0, 0.7):
        contexts = {
            tag: BendingContext(
                group=group, multicurve=_lamination(weight), base_point=BASE,
                tag=tag, sign=1.0, scale=1.0,
            )
            for tag in ALL_TAGS
        }
        hyp_angles = [meridian_cone_angle(contexts[HYP], "A", t) for t in ts]
        ads_angles = [meridian_cone_angle(contexts[ADS], "A", t) for t in ts]
        for t, hyp_angle, ads_angle in zip(ts, hyp_angles, ads_angles):
            worst_table = max(worst_table, abs(hyp_angle - 2.0 * (math.pi - t * weight)))
            worst_table = max(worst_table, abs(ads_angle + 2.0 * t * weight))
        for angles in (hyp_angles, ads_angles):
            slope = np.polyfit(np.array(ts), np.array(angles), 1)[0]
            worst_slope = max(worst_slope, abs(slope + 2.0 * weight))
        worst_hp = max(
            worst_hp, abs(meridian_cone_angle(contexts[HP], "A", 1.0) + 2.0 * weight)
        )
    ok = worst_table < 1e-9 and worst_slope < 1e-8 and worst_hp < 1e-6
    elapsed = time.perf_counter() - started
    _verdict(
        capsys, 9, "cone-angles", ok,
        f"table gap {worst_table:.2e}, slope gap {worst_slope:.2e}, half-pipe gap {worst_hp:.2e}",
        elapsed, 60.0,
    )


def _variety_point_from_xz(x, z, y_reference):
    disc = x * x * z * z - 4.0 * (x * x + z * z)
    roots = (
        0.5 * (x * z - math.sqrt(disc)),
        0.5 * (x * z + math.sqrt(disc)),
    )
    y = min(roots, key=lambda r: abs(r - y_reference))
    return TeichPoint(x, y, z)


def test_criterion_10_kerckhoff_point(capsys):
    started = time.perf_counter()
    lam, mu = WeightedMulticurve.single("A"), WeightedMulticurve.single("B")
    inits = (
        TeichPoint.from_xy(3.0, 3.0, "plus"),
        TeichPoint.from_xy(4.0, 4.0, "minus"),
        TeichPoint.from_xy(3.5, 3.5, "plus"),
    )
    results = [kerckhoff_point(lam, mu, init) for init in inits]
    spread = max(
        float(np.max(np.abs(a.point.as_array() - b.point.as_array())))
        for a in results
        for b in results
    )
    best = results[0]
    symmetric_gap = abs(best.point.x - best.point.y)
    gradient = max(r.gradient_norm for r in results)

    objective = best.objective
    increases = True
    for k in range(8):
        angle = 2.0 * math.pi * k / 8.0
        tp = _variety_point_from_xz(
            best.point.x + 1e-3 * math.cos(angle),
            best.point.z + 1e-3 * math.sin(angle),
            best.point.y,
        )
        perturbed = multicurve_length(tp, lam) + multicurve_length(tp, mu)
        increases = increases and perturbed > objective
    ok = symmetric_gap < 1e-6 and gradient < 1e-7 and increases and spread < 1e-5
    elapsed = time.perf_counter() - started
    _verdict(
        capsys, 10, "kerckhoff-point", ok,
        f"|x-y| {symmetric_gap:.2e}, grad {gradient:.2e}, seed spread {spread:.2e}, "
        f"8-direction increase {increases}",
        elapsed, 60.0,
    )


def test_criterion_11_cusp_behavior(capsys):
    started = time.perf_counter()
    group = build_punctured_torus(SYMMETRIC)
    parabolic = True
    for tag in ALL_TAGS:
        for scale in (0.2, 0.05):
            ctx = BendingContext(
                group=group, multicurve=_lamination(), base_point=BASE,
                tag=tag, sign=1.0, scale=scale,
            )
            kind = classify_isometry(bent_holonomy(ctx)("ABab"))
            parabolic = parabolic and kind == "parabolic"

    kerckhoff = build_punctured_torus(
        TeichPoint(2.0 * math.sqrt(2.0), 2.0 * math.sqrt(2.0), 4.0)
    )
    upper = BendingContext(
        group=kerckhoff, multicurve=WeightedMulticurve.single("A"),
        base_point=BASE, tag=HP, sign=1.0, scale=0.05,
    )
    lower = BendingContext(
        group=kerckhoff, multicurve=WeightedMulticurve.single("B"),
        base_point=BASE, tag=HP, sign=-1.0, scale=0.05,
    )
    report = cusp_stabilizer_check(double_convex_core_pair(upper, lower), "BabA")
    doubled_ok = (
        report.cusp_class == "parabolic"
        and report.commutator_norm < 1e-8
        and report.shared_point_residual < 1e-8
        and report.rank2_defect > 1e-8
    )
    ok = parabolic and doubled_ok
    elapsed = time.perf_counter() - started
    _verdict(
        capsys, 11, "cusp-behavior", ok,
        f"commutator parabolic {parabolic}; doubled cusp commutation {report.commutator_norm:.2e}, "
        f"rank-2 defect {report.rank2_defect:.2e}",
        elapsed, 30.0,
    )
