"""Tests for punctured-torus groups, multicurves, leaves, and minimization."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from halfpipe import fuchsian
from halfpipe.fuchsian import (
    ATLAS_RADIUS_LIMIT,
    BadTracesError,
    BadWordError,
    EndpointOnLeafError,
    EnumerationBudgetError,
    MulticurveComponent,
    NoConvergenceError,
    NotHyperbolicError,
    PuncturedTorusGroup,
    TeichPoint,
    WeightedMulticurve,
    axis_of_sl2,
    build_punctured_torus,
    christoffel,
    filling_advisory,
    fricke_defect,
    free_reduce,
    invert_word,
    kerckhoff_point,
    leaves_crossing,
    multicurve_length,
    segment_crossings,
    sl2_to_so12,
    translation_length_sl2,
    word_homology,
    words_conjugate,
    _crossings,
    _cyclic_reduce,
    _fricke_gradient,
    _normal_form_generators,
    _polynomial_jet,
    _sl2_inverse,
    _tangent_basis,
    _tiles_near_segment,
    _trace_polynomial,
    _walk_segment,
    _word_sl2,
)
from halfpipe.geometry import ADS, HP, HYP, J3, OutsideModelError, disk_lift, minkowski_dot, radial_project
from halfpipe.isometry import Isometry, embed_h2, transport_to_standard_axis

SYMMETRIC = TeichPoint(3.0, 3.0, 3.0)
GOLDEN = (3.0 + math.sqrt(5.0)) / 2.0


def _random_word(rng, length):
    letters = "ABab"
    word = rng.choice(list(letters))
    while len(word) < length:
        ch = rng.choice(list(letters))
        if ch != word[-1].swapcase():
            word += ch
    return word


def _exhaustive_crossing_keys(group, mc, x, y, depth):
    lorentz = {ch: group.lorentz(ch) for ch in "ABab"}
    axes = [group.axis(c.word).normal for c in mc.components]
    nodes = [("", np.eye(3))]
    frontier = [("", np.eye(3))]
    for _ in range(depth):
        step = []
        for word, m in frontier:
            banned = word[-1].swapcase() if word else ""
            for ch in "ABab":
                if ch != banned:
                    step.append((word + ch, m @ lorentz[ch]))
        frontier = step
        nodes.extend(step)
    u0 = J3 @ np.concatenate(([1.0], x))
    u1 = J3 @ np.concatenate(([1.0], y))
    keys = set()
    for _, m in nodes:
        for idx, eta in enumerate(axes):
            normal = m @ eta
            if float(normal @ u0) * float(normal @ u1) < 0.0:
                canonical = normal if normal[np.nonzero(np.abs(normal) > 1e-12)[0][-1]] > 0 else -normal
                keys.add((idx, tuple(np.round(canonical, 9))))
    return keys


def _crossing_keys(crossings):
    keys = set()
    for c in crossings:
        n = c.leaf.normal
        canonical = n if n[np.nonzero(np.abs(n) > 1e-12)[0][-1]] > 0 else -n
        keys.add((c.component_index, tuple(np.round(canonical, 9))))
    return keys


def test_word_images_are_memoised_read_only():
    group = build_punctured_torus(TeichPoint.from_xy(4.0, 5.0))
    for word in ("A", "b", "AB", "aBBA", "ABab"):
        image = group.lorentz(word)
        assert np.array_equal(image, sl2_to_so12(group.sl2(word)))
        assert group.lorentz(word) is image
        with pytest.raises(ValueError):
            image[0, 0] = 0.0
    for word in ("A", "AB", "AAB"):
        axis = group.axis(word)
        assert np.array_equal(axis.normal, axis_of_sl2(group.sl2(word)).normal)
        assert group.axis(word) is axis
        frame = group.axis_frame(word, (HYP, ADS, HP))
        phi, inverses = frame
        assert np.array_equal(phi, embed_h2(transport_to_standard_axis(axis)))
        assert group.axis_frame(word, (HYP, ADS, HP)) is frame
        assert not phi.flags.writeable and not inverses.flags.writeable
    other = build_punctured_torus(TeichPoint.from_xy(4.0, 5.0))
    assert other.lorentz("AB") is not group.lorentz("AB")


def test_no_convergence_error_reports_its_numbers(monkeypatch):
    lam, mu = WeightedMulticurve.single("A"), WeightedMulticurve.single("B")
    with monkeypatch.context() as patch:
        patch.setattr(fuchsian, "KERCKHOFF_MAX_STEPS", 5)
        with pytest.raises(NoConvergenceError) as info:
            kerckhoff_point(lam, mu, SYMMETRIC, gradient_tol=1e-30)
    err = info.value
    assert err.tolerance == 1e-30 and err.steps == 5
    assert 1e-30 < err.gradient_norm < 1e-6
    assert f"{err.gradient_norm:.3e}" in str(err) and "after 5 steps" in str(err)
    # Pairs that do not fill have no minimum: the length falls toward the
    # boundary of the trace domain, which the search refuses to cross.
    for lam_word, mu_word in (("A", "A"), ("A", "a"), ("AB", "AB")):
        lam, mu = WeightedMulticurve.single(lam_word), WeightedMulticurve.single(mu_word)
        with pytest.raises(NoConvergenceError) as info:
            kerckhoff_point(lam, mu, SYMMETRIC)
        err = info.value
        assert err.tolerance == 1e-7 and err.gradient_norm > 1e-7 and 0 < err.steps <= 50
        assert f"{err.gradient_norm:.3e}" in str(err) and f"after {err.steps} steps" in str(err)
    # A start outside the domain (here y = 100) is refused before any step.
    with pytest.raises(NoConvergenceError) as info:
        kerckhoff_point(WeightedMulticurve.single("A"), WeightedMulticurve.single("B"), TeichPoint.from_xy(3.0, 100.0))
    assert info.value.steps == 0 and "after 0 steps" in str(info.value)
    # A pair with no minimum fails from every start.
    for start in (TeichPoint.from_xy(4.0, 5.0), TeichPoint.from_xy(6.0, 3.5)):
        with pytest.raises(NoConvergenceError) as info:
            kerckhoff_point(WeightedMulticurve.single("A"), WeightedMulticurve.single("A"), start)
        assert info.value.gradient_norm > 1e-7 and 0 < info.value.steps <= 50


def test_adjoint_representation_is_a_lorentz_homomorphism():
    rng = np.random.default_rng(5)
    group = build_punctured_torus(SYMMETRIC)
    for letter in "ABab":
        image = group.lorentz(letter)
        assert np.max(np.abs(image.T @ J3 @ image - J3)) < 1e-11
    for _ in range(10):
        w1, w2 = _random_word(rng, 6), _random_word(rng, 6)
        g1, g2 = group.sl2(w1), group.sl2(w2)
        lhs = sl2_to_so12(g1 @ g2)
        rhs = sl2_to_so12(g1) @ sl2_to_so12(g2)
        scale = max(1.0, float(np.max(np.abs(lhs))))
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale
        assert np.allclose(sl2_to_so12(-g1), sl2_to_so12(g1), atol=1e-12)


def test_normal_form_at_symmetric_point():
    group = build_punctured_torus(SYMMETRIC)
    gen_a = group.sl2("A")
    assert np.allclose(gen_a, np.diag([GOLDEN, 1.0 / GOLDEN]), atol=1e-12)
    gen_b = group.sl2("B")
    assert gen_b[1, 0] > 0
    assert np.trace(gen_b) == pytest.approx(3.0, abs=1e-12)
    assert np.trace(gen_a @ gen_b) == pytest.approx(3.0, abs=1e-12)
    assert group.cusp_trace() == pytest.approx(-2.0, abs=1e-10)
    assert np.linalg.det(gen_b) == pytest.approx(1.0, abs=1e-12)


def test_trace_point_validation():
    with pytest.raises(BadTracesError):
        TeichPoint(4.0, 4.0, 4.0)
    with pytest.raises(BadTracesError):
        TeichPoint(2.0, 3.0, 3.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(BadTracesError):
            TeichPoint(bad, bad, bad)
        with pytest.raises(BadTracesError):
            TeichPoint.from_xy(bad, 3.0)
    # Finite traces whose trace relation overflows to NaN.
    with pytest.raises(BadTracesError, match="1e"):
        TeichPoint(1e200, 1e200, 1e200)
    point = TeichPoint.from_xy(3.0, 3.0)
    assert point.z == pytest.approx(3.0)
    assert TeichPoint.from_xy(3.0, 3.0, branch="plus").z == pytest.approx(6.0)
    assert abs(fricke_defect(point.x, point.y, point.z)) < 1e-12


def test_from_xy_refuses_an_unknown_branch():
    for branch in ("minsu", "PLUS", "", None, 1):
        with pytest.raises(BadTracesError, match="branch"):
            TeichPoint.from_xy(3.0, 3.0, branch=branch)
    assert TeichPoint.from_xy(3.0, 3.0, branch="minus") == TeichPoint.from_xy(3.0, 3.0)


def test_swapped_traces_give_swapped_length_spectra():
    p1 = TeichPoint.from_xy(3.2, 3.9)
    p2 = TeichPoint.from_xy(3.9, 3.2)
    g1, g2 = build_punctured_torus(p1), build_punctured_torus(p2)
    rng = np.random.default_rng(9)
    for _ in range(20):
        word = _random_word(rng, int(rng.integers(1, 6)))
        swapped = "".join({"A": "B", "B": "A", "a": "b", "b": "a"}[ch] for ch in word)
        assert g1.translation_length(word) == pytest.approx(g2.translation_length(swapped), abs=1e-9)


def test_axis_of_diagonal_boost():
    axis = axis_of_sl2(np.diag([2.0, 0.5]))
    assert np.allclose(axis.normal, [0.0, 1.0, 0.0], atol=1e-12)
    start, end = axis.ideal_endpoints_klein()
    assert np.allclose(start, [0.0, 1.0], atol=1e-12)
    assert np.allclose(end, [0.0, -1.0], atol=1e-12)
    # The forward ideal endpoint is the attracting eigenline.
    image = sl2_to_so12(np.diag([2.0, 0.5]))
    forward = np.concatenate(([1.0], end))
    assert np.allclose(image @ forward, 4.0 * forward, atol=1e-12)


def test_axis_orientation_and_equivariance():
    group = build_punctured_torus(SYMMETRIC)
    g = group.sl2("AB")
    axis = axis_of_sl2(g)
    assert np.allclose(axis_of_sl2(np.linalg.inv(g)).normal, -axis.normal, atol=1e-10)
    h = group.sl2("BBa")
    conjugated = axis_of_sl2(h @ g @ np.linalg.inv(h))
    assert np.allclose(conjugated.normal, sl2_to_so12(h) @ axis.normal, atol=1e-9)
    with pytest.raises(NotHyperbolicError):
        axis_of_sl2(group.sl2(PuncturedTorusGroup.CUSP_WORD))


def test_translation_lengths():
    assert translation_length_sl2(np.diag([2.0, 0.5])) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
    assert translation_length_sl2(np.array([[1.0, 1.0], [0.0, 1.0]])) == 0.0
    group = build_punctured_torus(SYMMETRIC)
    g = group.sl2("AB")
    rng = np.random.default_rng(15)
    for _ in range(20):
        h = group.sl2(_random_word(rng, 4))
        conjugate = h @ g @ np.linalg.inv(h)
        assert translation_length_sl2(conjugate) == pytest.approx(translation_length_sl2(g), abs=1e-10)


def test_word_utilities():
    assert free_reduce("ABba") == ""
    assert free_reduce("ABbA") == "AA"
    assert invert_word("ABab") == "BAba"
    assert words_conjugate("AB", "BA")
    assert not words_conjugate("AB", "ab")
    assert word_homology("ABab") == (0, 0)
    assert word_homology("AAB") == (2, 1)


def test_multicurve_validation():
    # The cusp and its square, proper powers, and curves that cross themselves.
    for word in ("ABab", "ABabABab", "AA", "AABB", "AAbb", "ABAb", "aBaBaB"):
        with pytest.raises(BadWordError):
            WeightedMulticurve.single(word)
    for bad in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(BadWordError):
            WeightedMulticurve.single("A", weight=bad)
    with pytest.raises(BadWordError):
        WeightedMulticurve.single("Aa")
    # A multicurve is one curve: two components are refused, whether they
    # cross (A and B) or are the same curve (AB and BA, AB and ba).
    for first, second in (("A", "B"), ("AB", "BA"), ("AB", "ba")):
        with pytest.raises(BadWordError):
            WeightedMulticurve((MulticurveComponent(first, 1.0), MulticurveComponent(second, 0.5)))
    with pytest.raises(BadWordError):
        WeightedMulticurve(())
    mc = WeightedMulticurve((MulticurveComponent("aBA", 0.5),))
    assert mc == WeightedMulticurve.single("aBA", 0.5)


def _all_reduced_words(length):
    words, shell = [], [""]
    for _ in range(length):
        shell = [w + ch for w in shell for ch in "ABab" if not w.endswith(ch.swapcase())]
        words += shell
    return words


def test_simple_curves_are_the_signed_christoffel_classes():
    for p in range(-5, 6):
        for q in range(-5, 6):
            if math.gcd(p, q) != 1:
                continue
            word = christoffel(p, q)
            assert word_homology(word) == (p, q)
            for w in (word, invert_word(word)):
                for k in range(len(w)):
                    WeightedMulticurve.single(w[k:] + w[:k])
    # The geometric meaning at (3,3,3): a reduced word of length <= 5 is
    # accepted exactly when it is hyperbolic, not a proper power, and no
    # translate g . axis with |g| <= 5 crosses its axis.
    group = build_punctured_torus(SYMMETRIC)
    words = _all_reduced_words(5)
    translates = np.stack([group.lorentz(g) for g in ["", *words]])
    for word in words:
        try:
            WeightedMulticurve.single(word)
        except BadWordError:
            accepted = False
        else:
            accepted = True
        if abs(float(np.trace(group.sl2(word)))) < 2.0 + 1e-9:
            assert not accepted, word
            continue
        core = _cyclic_reduce(word)
        power = any(len(core) % n == 0 and core[:n] * (len(core) // n) == core for n in range(1, len(core)))
        normal = group.axis(word).normal
        crossed = bool(np.any(np.abs((translates @ normal) @ J3 @ normal) < 1.0 - 1e-9))
        assert accepted == (not power and not crossed), word


def test_filling_advisory():
    assert filling_advisory(WeightedMulticurve.single("A"), WeightedMulticurve.single("B")) is None
    msg = filling_advisory(WeightedMulticurve.single("A"), WeightedMulticurve.single("AAB"))
    assert msg is None
    assert filling_advisory(WeightedMulticurve.single("AB"), WeightedMulticurve.single("Ab")) is None
    for lam, mu in (("A", "A"), ("A", "a"), ("AAB", "BAA")):
        failing = filling_advisory(WeightedMulticurve.single(lam), WeightedMulticurve.single(mu))
        assert failing is not None and "do not fill" in failing


def test_multicurve_lengths():
    lam = WeightedMulticurve.single("A")
    assert multicurve_length(SYMMETRIC, lam) == pytest.approx(2.0 * math.acosh(1.5), abs=1e-12)
    assert multicurve_length(SYMMETRIC, WeightedMulticurve.single("A", 2.0)) == pytest.approx(
        4.0 * math.acosh(1.5), abs=1e-12
    )
    asym = TeichPoint.from_xy(3.4, 3.1)
    swapped = TeichPoint.from_xy(3.1, 3.4)
    assert multicurve_length(asym, WeightedMulticurve.single("A")) == pytest.approx(
        multicurve_length(swapped, WeightedMulticurve.single("B")), abs=1e-10
    )


@given(
    x=st.floats(3.0, 12.0),
    y=st.floats(3.0, 12.0),
    letters=st.lists(st.sampled_from("ABab"), min_size=1, max_size=4).map(free_reduce).filter(bool),
)
def test_trace_polynomials_match_the_matrix_traces(x, y, letters):
    point = TeichPoint.from_xy(x, y)
    p = point.as_array()
    value, grad, hess = _polynomial_jet(_trace_polynomial(letters), p)
    expected = float(np.trace(build_punctured_torus(point).sl2(letters)))
    assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def trace_at(q):
        gen_a, gen_b = _normal_form_generators(*q)
        gens = {"A": gen_a, "B": gen_b, "a": _sl2_inverse(gen_a), "b": _sl2_inverse(gen_b)}
        return float(np.trace(_word_sl2(gens, letters)))

    gradient = _fricke_gradient(p)
    normal = gradient / np.linalg.norm(gradient)
    frame = np.column_stack([_tangent_basis(gradient, float(gradient @ gradient)), normal])
    # Differences of traces of size |value| carry rounding of about
    # 1e-16 * |value| / h^2 < 1e-9 * |value|.
    atol = 1e-6 * max(1.0, abs(value))
    h = 1e-4
    diffs = np.array([(trace_at(p + h * v) - trace_at(p - h * v)) / (2.0 * h) for v in frame.T])
    np.testing.assert_allclose(frame.T @ grad, diffs, rtol=1e-6, atol=atol)
    h = 1e-3
    second = np.array(
        [
            [
                (
                    trace_at(p + h * u + h * v)
                    - trace_at(p + h * u - h * v)
                    - trace_at(p - h * u + h * v)
                    + trace_at(p - h * u - h * v)
                )
                / (4.0 * h * h)
                for v in frame.T
            ]
            for u in frame.T
        ]
    )
    np.testing.assert_allclose(frame.T @ hess @ frame, second, rtol=1e-6, atol=atol)


def test_length_function_is_smooth_along_variety_paths():
    lam = WeightedMulticurve.single("AB", 1.3)

    def length_at(t):
        return multicurve_length(TeichPoint.from_xy(3.0 + t, 3.1), lam)

    h = 1e-3
    central = (length_at(h) - length_at(-h)) / (2.0 * h)
    fourth = (-length_at(2 * h) + 8 * length_at(h) - 8 * length_at(-h) + length_at(-2 * h)) / (12.0 * h)
    assert central == pytest.approx(fourth, rel=1e-5)


def test_no_crossings_within_one_face():
    group = build_punctured_torus(SYMMETRIC)
    mc = WeightedMulticurve.single("A")
    crossings = leaves_crossing(group, mc, np.array([-0.30, 0.10]), np.array([-0.26, -0.17]))
    assert crossings == []


def test_single_crossing_of_the_diagonal_axis():
    group = build_punctured_torus(SYMMETRIC)
    mc = WeightedMulticurve.single("A", weight=1.7)
    crossings = leaves_crossing(group, mc, np.array([-0.30, 0.02]), np.array([0.30, -0.02]))
    assert len(crossings) == 1
    hit = crossings[0]
    assert hit.weight == pytest.approx(1.7)
    assert hit.parameter == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(hit.leaf.normal, [0.0, 1.0, 0.0], atol=1e-12)
    # Left normal points away from the segment start.
    assert float(minkowski_dot(hit.leaf.normal, disk_lift(np.array([-0.30, 0.02])))) < 0


def test_crossing_orientation_flips_with_segment():
    group = build_punctured_torus(SYMMETRIC)
    mc = WeightedMulticurve.single("A")
    forward = leaves_crossing(group, mc, np.array([-0.30, 0.02]), np.array([0.30, -0.02]))
    backward = leaves_crossing(group, mc, np.array([0.30, -0.02]), np.array([-0.30, 0.02]))
    assert np.allclose(forward[0].leaf.normal, -backward[0].leaf.normal, atol=1e-12)


def test_endpoint_on_leaf_is_rejected():
    group = build_punctured_torus(SYMMETRIC)
    mc = WeightedMulticurve.single("A")
    with pytest.raises(EndpointOnLeafError):
        leaves_crossing(group, mc, np.array([0.0, 0.2]), np.array([0.3, 0.1]))


def test_enumeration_matches_exhaustive_search():
    group = build_punctured_torus(SYMMETRIC)
    mc = WeightedMulticurve.single("AAB", 0.5)
    x, y = np.array([-0.31, 0.12]), np.array([0.33, -0.14])
    crossings = leaves_crossing(group, mc, x, y)
    assert _crossing_keys(crossings) == _exhaustive_crossing_keys(group, mc, x, y, depth=8)
    params = [c.parameter for c in crossings]
    assert params == sorted(params)


def test_enumeration_equivariance():
    group = build_punctured_torus(SYMMETRIC)
    mc = WeightedMulticurve.single("A")
    x, y = np.array([-0.28, 0.07]), np.array([0.31, -0.11])
    base = leaves_crossing(group, mc, x, y)
    mover = group.lorentz("B")
    gx = (mover @ disk_lift(x))[1:] / (mover @ disk_lift(x))[0]
    gy = (mover @ disk_lift(y))[1:] / (mover @ disk_lift(y))[0]
    moved = leaves_crossing(group, mc, gx, gy)
    assert len(moved) == len(base)
    for before, after in zip(base, moved):
        assert np.allclose(after.leaf.normal, mover @ before.leaf.normal, atol=1e-9)


def test_crossing_counts_match_intersection_numbers():
    group = build_punctured_torus(SYMMETRIC)
    lam = WeightedMulticurve.single("A")
    rng = np.random.default_rng(21)
    for gamma, expected in (("B", 1), ("AB", 1), ("BB", 2)):
        counts = []
        mover = group.lorentz(gamma)
        for _ in range(5):
            x = rng.uniform(-0.2, 0.2, size=2) + np.array([0.05, 0.33])
            image = mover @ disk_lift(x)
            y = image[1:] / image[0]
            counts.append(len(leaves_crossing(group, lam, x, y)))
        assert min(counts) == expected


ATLAS_POINTS = {
    "(3,3,3)": SYMMETRIC,
    "xy(6,3.5)": TeichPoint.from_xy(6.0, 3.5),
    "xy(4,5)": TeichPoint.from_xy(4.0, 5.0),
    "xy(2.9,2.9,plus)": TeichPoint.from_xy(2.9, 2.9, "plus"),
    "xy(20,3)": TeichPoint.from_xy(20.0, 3.0),
    "xy(3,40)": TeichPoint.from_xy(3.0, 40.0),
}
ATLAS_MULTICURVES = (
    WeightedMulticurve.single("A"),
    WeightedMulticurve.single("AB", 0.8),
    WeightedMulticurve.single("AAB", 0.5),
    WeightedMulticurve.single("ABB"),
)


def _disk_point(rng, radius):
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return radius * np.array([math.cos(angle), math.sin(angle)])


def _assert_walk_agrees(group, mc, x, y):
    """The atlas answer for [x, y] is the answer of a search of the segment alone."""
    normals, sides, parameters, words = segment_crossings(group, mc, x, y)
    searched = _crossings(_walk_segment(group, mc, x, y), x, y)
    assert words == searched[3]
    assert np.array_equal(normals, searched[0])
    assert np.array_equal(sides, searched[1])
    assert parameters.tolist() == searched[2].tolist()


@pytest.mark.parametrize("name", sorted(ATLAS_POINTS))
def test_atlas_matches_segment_walk(name):
    rng = np.random.default_rng(sorted(ATLAS_POINTS).index(name))
    for mc in ATLAS_MULTICURVES:
        group = build_punctured_torus(ATLAS_POINTS[name])
        # The first segment reaches the rim, so the atlas grows to its limit.
        radii = [0.97, 0.97] + list(0.97 * np.sqrt(rng.uniform(size=10)))
        points = [_disk_point(rng, r) for r in radii]
        for x, y in zip(points[::2], points[1::2]):
            _assert_walk_agrees(group, mc, x, y)
        assert group.atlas(mc).radius == ATLAS_RADIUS_LIMIT


def test_atlas_freezes_at_the_walk_budget_and_falls_back_to_segment_walks():
    # The atlas grows in steps up to ATLAS_RADIUS_LIMIT and stops there;
    # segments reaching past it are searched on their own.  At this point
    # the atlas used to run out of its word-walk budget at radius 2.0.
    group = build_punctured_torus(ATLAS_POINTS["xy(3,40)"])
    mc = WeightedMulticurve.single("ABB")
    atlas = group.atlas(mc)
    rng = np.random.default_rng(3)
    near = (_disk_point(rng, 0.8), _disk_point(rng, 0.9))
    far = (_disk_point(rng, 0.95), _disk_point(rng, 0.6))
    edge = (_disk_point(rng, 0.985), _disk_point(rng, 0.4))
    rim = (_disk_point(rng, 0.995), _disk_point(rng, 0.5))
    _assert_walk_agrees(group, mc, *near)
    assert atlas.radius == 1.5
    _assert_walk_agrees(group, mc, *far)
    assert atlas.radius == 2.0
    _assert_walk_agrees(group, mc, *edge)
    assert atlas.radius == ATLAS_RADIUS_LIMIT
    _assert_walk_agrees(group, mc, *rim)
    assert atlas.radius == ATLAS_RADIUS_LIMIT
    assert atlas.covering(group, *far) is atlas.leaves
    assert atlas.covering(group, *rim) is None
    _assert_walk_agrees(group, mc, *near)


@pytest.mark.parametrize(
    "name, mc",
    [("xy(20,3)", WeightedMulticurve.single("AAB", 0.5)), ("xy(3,40)", WeightedMulticurve.single("ABB"))],
    ids=("0.5AAB@xy(20,3)", "ABB@xy(3,40)"),
)
def test_atlas_first_grown_past_the_walk_budget_keeps_the_largest_radius_that_builds(name, mc):
    # Of the test grid, these points need the most tiles for the atlas ball
    # at the radius limit (about a hundred tested), and the old word walk ran
    # out of budget there: a first query at |z| = 0.97 now grows the atlas
    # straight to the limit.
    group = build_punctured_torus(ATLAS_POINTS[name])
    atlas = group.atlas(mc)
    rng = np.random.default_rng(4)
    _assert_walk_agrees(group, mc, _disk_point(rng, 0.97), _disk_point(rng, 0.3))
    assert atlas.radius == ATLAS_RADIUS_LIMIT
    for _ in range(4):
        x, y = (_disk_point(rng, 0.97 * math.sqrt(rng.uniform())) for _ in range(2))
        assert atlas.covering(group, x, y) is atlas.leaves
        _assert_walk_agrees(group, mc, x, y)


def test_segment_endpoints_off_the_open_disk_are_refused():
    # A NaN endpoint used to start a walk that kept every tile until the budget ran out.
    group = build_punctured_torus(SYMMETRIC)
    mc = WeightedMulticurve.single("A")
    inside = np.array([0.11, 0.07])
    for outside in ([1.0, 0.0], [0.8, 0.7], [math.nan, 0.1], [0.1, math.nan], [math.inf, 0.0]):
        for ends in ((inside, np.array(outside)), (np.array(outside), inside)):
            with pytest.raises(OutsideModelError):
                segment_crossings(group, mc, *ends)


def test_enumeration_budget_error_reports_its_numbers(monkeypatch):
    group = build_punctured_torus(SYMMETRIC)
    mc = WeightedMulticurve.single("A")
    x, y = np.array([-0.5, 0.2]), np.array([0.6, -0.3])
    origin = np.zeros(2)
    length = math.acosh(-float(minkowski_dot(disk_lift(x), disk_lift(y))))
    cases = (((x, y), 0.0, f"segment length {length:.3f}"), ((origin, origin), 2.0, "atlas radius 2.0"))
    monkeypatch.setattr(fuchsian, "MAX_NODES", 3)
    for ends, radius, region in cases:
        with pytest.raises(EnumerationBudgetError) as info:
            _tiles_near_segment(group, *ends, radius)
        err = info.value
        assert err.nodes > 3 and err.depth >= 1 and err.region == region
        assert f"after {err.nodes} nodes at depth {err.depth} ({region})" in str(err)


def test_leaf_search_over_budget_stops_before_the_shell_that_crosses_it():
    # A point of the trace_points box where the segment from (0.11, 0.07) to
    # its image under BBaa needs more than MAX_NODES tiles.  Forming and
    # testing the shell that crosses the budget peaked at 92 MB of traced
    # allocations; checking the budget first peaks at 59 MB.
    group = build_punctured_torus(TeichPoint.from_xy(7.9017, 7.9017))
    x = np.array([0.11, 0.07])
    y = radial_project(group.lorentz("BBaa") @ disk_lift(x))
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationBudgetError) as info:
            leaves_crossing(group, WeightedMulticurve.single("A"), x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.nodes > fuchsian.MAX_NODES
    assert peak < 75e6, f"traced peak {peak / 1e6:.1f} MB"

def test_tile_sides_are_paired_by_the_generators():
    for point in (SYMMETRIC, TeichPoint.from_xy(3.0, 40.0), TeichPoint.from_xy(20.0, 3.0)):
        group = build_punctured_torus(point)
        sides = group.tile_sides()
        assert not sides.flags.writeable
        assert np.allclose(np.einsum("ik,ij,jk->k", sides, J3, sides), 1.0, atol=1e-12)
        # g carries the side Q shares with g^-1.Q onto the side Q shares with
        # g.Q, turning the inward normal outward.
        for g in range(4):
            image = group.lorentz("ABab"[g]) @ sides[:, (g + 2) % 4]
            assert np.max(np.abs(image + sides[:, g])) < 1e-9 * np.max(np.abs(sides[:, g]))
        # The disk centre's tile holds it.
        origin = np.array([1.0, 0.0, 0.0])
        word = ""
        for _ in range(50):
            at = (group.lorentz(word) @ sides).T @ J3 @ origin
            if at.min() >= 0.0:
                break
            word = free_reduce(word + "ABab"[int(np.argmin(at))])
        assert at.min() >= 0.0


def _coset_key(word, root):
    """The shortest words of word . <root> (root cyclically reduced), the least of them."""
    found = [word]
    for step in (root, invert_word(root)):
        head = word
        # Lengths along word . root^j fall, then rise.
        while len(free_reduce(head + step)) <= len(head):
            head = free_reduce(head + step)
            found.append(head)
    return min(found, key=lambda w: (len(w), w))


def _brute_force_crossings(group, mc, x, y, length):
    """(component, parameter) of the leaves w . axis crossing (x, y) with |w| <= length, sorted.

    The components are cyclically reduced.  A leaf is kept once, from the
    shortest of its words, which has the most accurate normal.
    """
    gens = np.stack([group.lorentz(ch) for ch in "ABab"])
    words, mats, shell = [""], [np.eye(3)[np.newaxis]], [""]
    for _ in range(length):
        pairs = [(w, g) for g in range(4) for w in range(len(shell)) if not shell[w].endswith("ABab"[(g + 2) % 4])]
        mats.append(mats[-1][[w for w, _ in pairs]] @ gens[[g for _, g in pairs]])
        shell = [shell[w] + "ABab"[g] for w, g in pairs]
        words += shell
    mats = np.concatenate(mats)
    u0, u1 = J3 @ np.concatenate(([1.0], x)), J3 @ np.concatenate(([1.0], y))
    found = {}
    for idx, comp in enumerate(mc.components):
        normals = mats @ group.axis(comp.word).normal
        f0, f1 = normals @ u0, normals @ u1
        for i in np.nonzero(f0 * f1 < 0.0)[0]:
            found.setdefault((idx, _coset_key(words[i], comp.word)), float(f0[i] / (f0[i] - f1[i])))
    return sorted((idx, t) for (idx, _), t in found.items())


def _assert_same_crossings(parameters, expected):
    assert len(parameters) == len(expected)
    assert np.allclose(sorted(parameters), [t for _, t in expected], rtol=0.0, atol=1e-6)


# The angle is offset so that the simplest examples miss the axis of A.
disk_points = st.tuples(st.floats(0.01, 0.9), st.floats(0.0, 2.0 * math.pi)).map(
    lambda polar: polar[0] * np.array([math.cos(polar[1] + 1.0), math.sin(polar[1] + 1.0)])
)
trace_points = (
    st.tuples(st.floats(2.5, 8.0), st.floats(2.5, 8.0))
    .filter(lambda xy: xy[0] ** 2 * xy[1] ** 2 >= 4.0 * (xy[0] ** 2 + xy[1] ** 2))
    .map(lambda xy: TeichPoint.from_xy(*xy))
)
reduced_words = st.lists(st.sampled_from("ABab"), min_size=1, max_size=4).map("".join).map(free_reduce).filter(bool)


# Trace points out to the extremes the CLI meets, such as from_xy(20, 3) and from_xy(3, 40).
extreme_trace_points = (
    st.tuples(st.floats(2.1, 60.0), st.floats(2.1, 60.0))
    .filter(lambda xy: xy[0] ** 2 * xy[1] ** 2 >= 4.0 * (xy[0] ** 2 + xy[1] ** 2))
    .map(lambda xy: TeichPoint.from_xy(*xy))
)
any_reduced_words = st.lists(st.sampled_from("ABab"), max_size=12).map("".join).map(free_reduce)


def _adjoint_by_basis(g):
    """The adjoint image of g, one basis element and one column at a time, as sl2_to_so12 used to form it."""
    inverse = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]])
    columns = []
    for e in ([[0.0, -1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]):
        m = g @ np.array(e) @ inverse
        columns.append(np.array([(m[1, 0] - m[0, 1]) / 2.0, m[0, 0], (m[1, 0] + m[0, 1]) / 2.0]))
    return np.column_stack(columns)


@given(point=extreme_trace_points, word=reduced_words)
def test_stacked_letter_images_equal_each_letters_adjoint_bit_for_bit(point, word):
    group = build_punctured_torus(point)
    images = group.letter_images()
    assert images.shape == (4, 3, 3) and not images.flags.writeable
    for image, letter in zip(images, "ABab"):
        g = group.sl2(letter)
        assert image.tobytes() == sl2_to_so12(g).tobytes() == _adjoint_by_basis(g).tobytes(), letter
        assert group.lorentz(letter).tobytes() == image.tobytes(), letter
    g = group.sl2(word)
    assert sl2_to_so12(g).tobytes() == _adjoint_by_basis(g).tobytes()


@given(u=any_reduced_words, cancelled=st.integers(0, 12), w=any_reduced_words)
def test_join_of_reduced_words_is_their_free_reduction(u, cancelled, w):
    # v starts by cancelling up to ``cancelled`` letters of u.
    v = free_reduce(invert_word(u[max(0, len(u) - cancelled) :]) + w)
    assert fuchsian._join(u, v) == free_reduce(u + v)
    assert fuchsian._join(v, u) == free_reduce(v + u)


@given(point=extreme_trace_points, u=reduced_words, v=reduced_words)
def test_lorentz_images_are_a_homomorphism_into_the_lorentz_group_at_random_points(point, u, v):
    # Each image is the adjoint of a rounded SL(2) product, whose condition is |L|:
    # residuals are measured relative to the sizes of the factors.
    group = build_punctured_torus(point)
    lu, lv = group.lorentz(u), group.lorentz(v)
    size = lambda m: float(np.max(np.abs(m)))
    assert size(group.lorentz(u + v) - lu @ lv) <= 1e-14 * size(lu) * size(lv)
    for image in (lu, lv, group.lorentz(free_reduce(u + v))):
        assert size(image.T @ J3 @ image - J3) <= 1e-14 * size(image) ** 2


@given(point=trace_points, mc=st.sampled_from(ATLAS_MULTICURVES), x=disk_points, y=disk_points)
def test_leaf_search_finds_every_crossing_of_a_brute_force_enumeration(point, mc, x, y):
    group = build_punctured_torus(point)
    try:
        crossings = leaves_crossing(group, mc, x, y)
    except EndpointOnLeafError:
        assume(False)
    expected = _brute_force_crossings(group, mc, x, y, 7)
    _assert_same_crossings([c.parameter for c in crossings], expected)
    _assert_same_crossings(_crossings(_walk_segment(group, mc, x, y), x, y)[2], expected)


@given(
    point=trace_points,
    mc=st.sampled_from(ATLAS_MULTICURVES),
    x=disk_points,
    y=disk_points,
    mover=st.lists(st.sampled_from("ABab"), min_size=1, max_size=3).map("".join).map(free_reduce).filter(bool),
)
def test_leaf_search_is_equivariant(point, mc, x, y, mover):
    group = build_punctured_torus(point)
    image = group.lorentz(mover)

    def moved(z):
        lift = image @ disk_lift(z)
        return lift[1:] / lift[0]

    try:
        before = leaves_crossing(group, mc, x, y)
        after = leaves_crossing(group, mc, moved(x), moved(y))
    except EndpointOnLeafError:
        assume(False)
    assert [c.component_index for c in after] == [c.component_index for c in before]
    for old, new in zip(before, after):
        # Far leaves have nearly null normals of size cosh(distance), whose
        # unit scale is known only to about 1e-16 cosh(distance)^2.
        pushed = image @ old.leaf.normal
        gap = new.leaf.normal / np.max(np.abs(new.leaf.normal)) - pushed / np.max(np.abs(pushed))
        assert np.max(np.abs(gap)) < 1e-9


def _assert_whole_word_normals(group, mc, crossings):
    """Each crossing's normal is the group's image of its whole conjugator word applied to the root's axis normal."""
    normals, _, _, words = crossings
    axis = group.axis(mc.components[0].root).normal
    for normal, word in zip(normals, words):
        assert normal.tobytes() == (group.lorentz(word) @ axis).tobytes(), word


@given(
    point=trace_points, mc=st.sampled_from(ATLAS_MULTICURVES), x=disk_points, y=disk_points, word=reduced_words
)
def test_side_times_the_conjugated_axis_normal_is_the_leaf_normal(point, mc, x, y, word):
    # The bent products turn each leaf by its side times the angle, taking
    # lorentz(word) . axis as the leaf's normal, while leaves_crossing orients
    # the leaf away from x: the two must agree.  Every tile source names its
    # leaves' normals by that one evaluation, bit for bit.
    group = build_punctured_torus(point)
    try:
        crossings = leaves_crossing(group, mc, x, y)
    except EndpointOnLeafError:
        assume(False)
    found = segment_crossings(group, mc, x, y)
    _, sides, _, words = found
    assert [c.conjugator_word for c in crossings] == words
    axis = group.axis(mc.components[0].root).normal
    for crossing, side in zip(crossings, sides):
        pushed = side * (group.lorentz(crossing.conjugator_word) @ axis)
        assert np.max(np.abs(crossing.leaf.normal - pushed)) <= 1e-9 * np.max(np.abs(pushed))
        assert float(minkowski_dot(crossing.leaf.normal, disk_lift(x))) < 0.0
    assert group.atlas(mc).covering(group, x, y) is not None
    _assert_whole_word_normals(group, mc, found)
    _assert_whole_word_normals(group, mc, _crossings(_walk_segment(group, mc, x, y), x, y))
    try:
        along_tree = fuchsian.holonomy_segment_crossings(group, mc, x, word)
    except (EndpointOnLeafError, OutsideModelError):
        return
    _assert_whole_word_normals(group, mc, along_tree)


def _is_simple_curve(word):
    try:
        MulticurveComponent(word, 1.0)
    except BadWordError:
        return False
    return True


# The simple closed curves with words of up to five letters, A to AABAB.
SIMPLE_CURVES = [word for word in _all_reduced_words(5) if _is_simple_curve(word)]
holonomy_trace_points = (
    st.tuples(st.floats(2.1, 12.0), st.floats(2.1, 12.0))
    .filter(lambda xy: xy[0] ** 2 * xy[1] ** 2 >= 4.0 * (xy[0] ** 2 + xy[1] ** 2))
    .map(lambda xy: TeichPoint.from_xy(*xy))
)
# Off the disk centre and turned by one radian, as disk_points are, so that the simplest draws miss the axis of A.
base_points = st.tuples(st.floats(0.01, 0.5), st.floats(0.0, 2.0 * math.pi)).map(
    lambda polar: polar[0] * np.array([math.cos(polar[1] + 1.0), math.sin(polar[1] + 1.0)])
)
# Words over A, B, a, b up to five letters, those that are not freely reduced included.
any_words = st.lists(st.sampled_from("ABab"), min_size=1, max_size=5).map("".join)


def _crossings_or_error(query):
    try:
        return query()
    except (EndpointOnLeafError, OutsideModelError) as exc:
        return type(exc)


def _assert_same_arrays(found, expected):
    if isinstance(expected, type):
        assert found is expected
        return
    assert found[3] == expected[3]
    for got, want in zip(found[:3], expected[:3]):
        assert np.array_equal(got, want)


@given(point=holonomy_trace_points, curve=st.sampled_from(SIMPLE_CURVES), x0=base_points, word=any_words)
def test_holonomy_crossings_from_the_tree_equal_a_search_of_the_segment(point, curve, x0, word):
    group = build_punctured_torus(point)
    mc = WeightedMulticurve.single(curve)
    far = radial_project(group.lorentz(free_reduce(word)) @ disk_lift(x0))

    def searched():
        u, v = far.tolist()
        if not u * u + v * v < 1.0:
            raise OutsideModelError("g.x0 rounds onto the rim")
        return _crossings(_walk_segment(group, mc, x0, far), x0, far)

    try:
        expected = _crossings_or_error(searched)
    except EnumerationBudgetError:
        assume(False)
    _assert_same_arrays(_crossings_or_error(lambda: fuchsian.holonomy_segment_crossings(group, mc, x0, word)), expected)


@pytest.mark.parametrize(
    "name, curve", [("xy(7,12)", "Ab"), ("xy(10,4)", "A"), ("xy(3,40)", "ABB"), ("xy(20,3)", "AAB")]
)
def test_holonomy_crossings_from_a_far_basepoint_equal_a_search_of_the_segment(name, curve):
    # At these points a basepoint at radius 0.9 lies a few letters deep in
    # its tile w.Q.  The inverse of a prefix of w sends the segment up the
    # tree from w before it runs down to u, past leaves that only the tiles
    # on the way up carry.
    point = {"xy(7,12)": TeichPoint.from_xy(7.0, 12.0), "xy(10,4)": TeichPoint.from_xy(10.0, 4.0), **ATLAS_POINTS}[name]
    group = build_punctured_torus(point)
    mc = WeightedMulticurve.single(curve)
    for angle in np.linspace(0.3, 2.0 * math.pi + 0.3, 7, endpoint=False):
        x0 = 0.9 * np.array([math.cos(angle), math.sin(angle)])
        tile = group.tiles_near(x0)[0]
        for word in sorted({invert_word(tile[:k]) for k in (1, 2, 3)}):
            far = radial_project(group.lorentz(word) @ disk_lift(x0))
            expected = _crossings_or_error(lambda: _crossings(_walk_segment(group, mc, x0, far), x0, far))
            _assert_same_arrays(
                _crossings_or_error(lambda: fuchsian.holonomy_segment_crossings(group, mc, x0, word)), expected
            )


def test_a_word_crosses_the_leaves_of_its_free_reduction():
    x0 = np.array([0.11, 0.07])
    for point, curve in ((SYMMETRIC, "A"), (TeichPoint.from_xy(4.0, 5.0), "AB"), (TeichPoint.from_xy(6.0, 3.5), "AAB")):
        group = build_punctured_torus(point)
        mc = WeightedMulticurve.single(curve)
        for word in ("AaBBB", "BbAAb", "AaB", "bAaB", "abBA"):
            found = fuchsian.holonomy_segment_crossings(group, mc, x0, word)
            _assert_same_arrays(found, fuchsian.holonomy_segment_crossings(group, mc, x0, free_reduce(word)))


def test_kerckhoff_point_symmetric_pair():
    result = kerckhoff_point(WeightedMulticurve.single("A"), WeightedMulticurve.single("B"), SYMMETRIC)
    assert result.point.x == pytest.approx(result.point.y, abs=1e-6)
    assert result.point.x == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)
    assert result.point.z == pytest.approx(4.0, abs=1e-5)
    assert result.objective == pytest.approx(4.0 * math.acosh(math.sqrt(2.0)), abs=1e-9)
    assert result.gradient_norm < 1e-7
    assert result.advisory is None
    assert result.hessian_condition < 1e3


def test_kerckhoff_point_from_asymmetric_seed_and_scaling():
    lam, mu = WeightedMulticurve.single("A"), WeightedMulticurve.single("B")
    seeded = kerckhoff_point(lam, mu, TeichPoint.from_xy(3.6, 2.9))
    assert seeded.point.x == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)
    scaled = kerckhoff_point(WeightedMulticurve.single("A", 2.5), WeightedMulticurve.single("B", 2.5), SYMMETRIC)
    assert scaled.point.x == pytest.approx(seeded.point.x, abs=1e-6)
    assert scaled.point.y == pytest.approx(seeded.point.y, abs=1e-6)


def test_kerckhoff_minimizer_is_locally_minimal():
    from halfpipe.fuchsian import _project_to_variety, _tangent_basis

    lam, mu = WeightedMulticurve.single("A"), WeightedMulticurve.single("B")
    result = kerckhoff_point(lam, mu, SYMMETRIC)
    p = result.point.as_array()
    gradient = _fricke_gradient(p)
    basis = _tangent_basis(gradient, float(gradient @ gradient))
    for k in range(8):
        angle = 2.0 * math.pi * k / 8.0
        direction = basis @ np.array([math.cos(angle), math.sin(angle)])
        probe = TeichPoint(*_project_to_variety(p + 1e-3 * direction))
        assert multicurve_length(probe, lam) + multicurve_length(probe, mu) >= result.objective - 1e-10


# ---------------------------------------------------------------------------
# The Kerckhoff step and the group's set-up against their numpy forms: they
# do their element-wise arithmetic in Python floats and leave every product
# that numpy hands to BLAS a numpy call, so the bits agree.
# ---------------------------------------------------------------------------


def _numpy_fricke_gradient(p):
    x, y, z = p
    return np.array([2.0 * x - y * z, 2.0 * y - x * z, 2.0 * z - x * y])


def _numpy_project_to_variety(p):
    p = np.array(p, dtype=float)
    for _ in range(60):
        defect = fricke_defect(*p)
        if abs(defect) < 1e-13:
            break
        grad = _numpy_fricke_gradient(p)
        p -= defect * grad / float(grad @ grad)
    return p


def _numpy_tangent_basis(p):
    n = _numpy_fricke_gradient(p)
    n = n / np.linalg.norm(n)
    seed = np.eye(3)[np.argmin(np.abs(n))]
    t1 = seed - float(seed @ n) * n
    t1 /= np.linalg.norm(t1)
    return np.column_stack([t1, np.cross(n, t1)])


def _numpy_polynomial_jet(poly, p):
    exponents, coefficients = poly
    terms = coefficients * np.prod(p**exponents, axis=1)
    first = exponents * terms[:, None]
    grad = first.sum(axis=0) / p
    hess = (exponents.T @ first) / np.outer(p, p) - np.diag(grad / p)
    return float(terms.sum()), grad, hess


def _numpy_reduced_model(terms, p):
    if not (min(p) > 2.0 and max(p) <= fuchsian.KERCKHOFF_TRACE_MAX):
        return math.inf, None, None, None
    total, grad, hess = 0.0, np.zeros(3), np.zeros((3, 3))
    for weight, poly in terms:
        trace, d_trace, dd_trace = _numpy_polynomial_jet(poly, p)
        if not abs(trace) / 2.0 > 1.0 + 1e-12:
            return math.inf, None, None, None
        room = trace * trace - 4.0
        first = 2.0 * math.copysign(1.0, trace) / math.sqrt(room)
        second = -2.0 * abs(trace) / room**1.5
        total += weight * 2.0 * math.acosh(abs(trace) / 2.0)
        grad += weight * first * d_trace
        hess += weight * (first * dd_trace + second * np.outer(d_trace, d_trace))
    x, y, z = p
    normal = _numpy_fricke_gradient(p)
    hess -= float(grad @ normal) / float(normal @ normal) * np.array([[2.0, -z, -y], [-z, 2.0, -x], [-y, -x, 2.0]])
    basis = _numpy_tangent_basis(p)
    return total, basis, basis.T @ grad, basis.T @ hess @ basis


def _same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


# Kerckhoff trial points: on the trace variety, or off it by up to a unit.
traces = st.floats(2.0, 80.0, exclude_min=True)
trial_points = st.one_of(
    st.tuples(traces, traces, traces).map(np.array),
    st.tuples(extreme_trace_points, st.tuples(*[st.floats(-1.0, 1.0)] * 3)).map(
        lambda pair: pair[0].as_array() + np.array(pair[1])
    ),
)


@given(p=trial_points)
def test_variety_projection_and_tangent_basis_equal_their_numpy_forms_bit_for_bit(p):
    assert _same_bits(fuchsian._project_to_variety(p), _numpy_project_to_variety(p))
    gradient = _fricke_gradient(p)
    assert _same_bits(gradient, _numpy_fricke_gradient(p))
    assert _same_bits(_tangent_basis(gradient, float(gradient @ gradient)), _numpy_tangent_basis(p))


@given(p=trial_points, word=st.lists(st.sampled_from("ABab"), min_size=1, max_size=5).map("".join))
def test_polynomial_jets_equal_their_numpy_form_bit_for_bit(p, word):
    poly = _trace_polynomial(word)
    value, grad, hess = _polynomial_jet(poly, p)
    expected = _numpy_polynomial_jet(poly, p)
    assert value.hex() == expected[0].hex()
    assert _same_bits(grad, expected[1]) and _same_bits(hess, expected[2])


@given(
    p=trial_points,
    curves=st.tuples(st.sampled_from(SIMPLE_CURVES), st.sampled_from(SIMPLE_CURVES)),
    weights=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
)
def test_kerckhoff_local_model_equals_its_numpy_form_bit_for_bit(p, curves, weights):
    terms = [(weight, _trace_polynomial(word)) for weight, word in zip(weights, curves)]
    found, expected = fuchsian._reduced_model(terms, p), _numpy_reduced_model(terms, p)
    assert found[0] == expected[0] or math.isinf(found[0]) and math.isinf(expected[0])
    if math.isfinite(expected[0]):
        assert found[0].hex() == expected[0].hex()
        assert all(_same_bits(a, b) for a, b in zip(found[1:], expected[1:]))


@given(point=extreme_trace_points, curve=st.sampled_from(SIMPLE_CURVES))
def test_group_set_up_equals_its_numpy_form_bit_for_bit(point, curve):
    group = build_punctured_torus(point)
    cusp = group.sl2(PuncturedTorusGroup.CUSP_WORD)
    assert group.cusp_trace() == float(np.trace(cusp))
    # tile_sides, with the cusp's fixed vector taken as numpy took it.
    shifted = cusp + np.eye(2)
    v = shifted[:, int(np.argmax(np.abs(shifted).sum(axis=0)))]
    vertices = []
    for word in ("", "a", "ba", "Aba"):
        v1, v2 = group.sl2(word) @ v
        vertices.append(np.array([(v1 * v1 + v2 * v2) / 2.0, v1 * v2, (v2 * v2 - v1 * v1) / 2.0]))
    columns = []
    for j in range(4):
        n = J3 @ np.cross(vertices[j - 1], vertices[j])
        facing = vertices[(j + 1) % 4] + vertices[(j + 2) % 4]
        n0, n1, n2 = n
        p0, p1, p2 = facing
        columns.append(n * math.copysign(1.0 / math.sqrt(n1 * n1 + n2 * n2 - n0 * n0), n1 * p1 + n2 * p2 - n0 * p0))
    assert _same_bits(group.tile_sides(), np.array(columns).T)
    # axis_frame's inverses, against those of two Isometry copies.
    tags = (HYP, ADS, HP, HYP)
    phi, inverses = group.axis_frame(curve, tags)
    expected = embed_h2(transport_to_standard_axis(group.axis(curve)))
    assert _same_bits(phi, expected)
    assert _same_bits(inverses, [Isometry(expected, tag).inverse().matrix for tag in tags])
