"""Tests for punctured-torus groups, multicurves, leaves, and minimization."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from halfpipe import fuchsian
from halfpipe.fuchsian import (
    ATLAS_RADIUS,
    BadTracesError,
    BadWordError,
    EPS_ENDPOINT,
    EPS_FRICKE,
    EPS_FRICKE_RELATIVE,
    EndpointOnLeafError,
    EnumerationBudgetError,
    GENERATOR_LETTERS,
    Leaves,
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
    translation_length_sl2,
    word_homology,
    words_conjugate,
    _crossings,
    _cyclic_reduce,
    _fricke_gradient,
    _join,
    _normal_form_generators,
    _project_to_variety,
    _tangent_basis,
    _tile_leaves,
    _tiles_within,
    _trace_jet,
)
from halfpipe.geometry import (
    J3,
    GeometryError,
    OutsideModelError,
    disk_lift,
    disk_point,
    minkowski_dot,
)
from halfpipe.isometry import sl2_to_so12

SYMMETRIC = TeichPoint(3.0, 3.0, 3.0)
GOLDEN = (3.0 + math.sqrt(5.0)) / 2.0


def _letter_by_letter(gens, word):
    """The SL(2) product of a word over the letters' entries gens, (a, b, c, d) each, from the identity, in floats."""
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for ch in word:
        e, f, g, h = gens[ch]
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return np.array([[a, b], [c, d]])


def _inverse(g):
    """The inverse (d, -b, -c, a) of a determinant-one matrix's entries (a, b, c, d)."""
    a, b, c, d = g
    return d, -b, -c, a


def _side_columns(group):
    """The group's tile side normals as the columns of a (3, 4) array."""
    return np.array(group.tile_sides()).T


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
    axes = [group.axis(mc.word).normal]
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


def _sl2(group: PuncturedTorusGroup, word: str) -> np.ndarray:
    """The word's SL(2) product, the group's entries (a, b, c, d), as a 2x2 array."""
    a, b, c, d = group.entries(word)
    return np.array(((a, b), (c, d)))


def test_word_images_are_memoised_read_only():
    group = build_punctured_torus(TeichPoint.from_xy(4.0, 5.0))
    for word in ("A", "b", "AB", "aBBA", "ABab"):
        image = group.lorentz(word)
        assert image.tobytes() == sl2_to_so12(_sl2(group, word)).tobytes() == np.array(group.rows(word)).tobytes()
        assert group.rows(word) is group.rows(word)
        assert group.entries(word) is group.entries(word)
        with pytest.raises(ValueError):
            image[0, 0] = 0.0
    for word in ("A", "AB", "AAB"):
        axis = group.axis(word)
        assert np.array_equal(axis.normal, axis_of_sl2(_sl2(group, word)).normal)
        assert group.axis(word) is axis
    other = build_punctured_torus(TeichPoint.from_xy(4.0, 5.0))
    assert other.rows("AB") is not group.rows("AB")


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
    # A start where a curve's model overflows (A B^300 has a trace of about 1e125 here) is refused
    # before any step.
    with pytest.raises(NoConvergenceError) as info:
        kerckhoff_point(WeightedMulticurve.single("A" + "B" * 300), WeightedMulticurve.single("B"), SYMMETRIC)
    assert info.value.steps == 0 and "after 0 steps" in str(info.value)
    # A pair with no minimum fails from every start.
    for start in (TeichPoint.from_xy(4.0, 5.0), TeichPoint.from_xy(6.0, 3.5)):
        with pytest.raises(NoConvergenceError) as info:
            kerckhoff_point(WeightedMulticurve.single("A"), WeightedMulticurve.single("A"), start)
        assert info.value.gradient_norm > 1e-7 and 0 < info.value.steps <= 50


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, 0.0])
def test_kerckhoff_point_refuses_a_gradient_tolerance_that_is_not_finite_and_positive(tol):
    lam, mu = WeightedMulticurve.single("A"), WeightedMulticurve.single("B")
    with pytest.raises(GeometryError, match=r"gradient tolerance must be finite and positive; got"):
        kerckhoff_point(lam, mu, SYMMETRIC, gradient_tol=tol)


def test_adjoint_representation_is_a_lorentz_homomorphism():
    rng = np.random.default_rng(5)
    group = build_punctured_torus(SYMMETRIC)
    for letter in "ABab":
        image = group.lorentz(letter)
        assert np.max(np.abs(image.T @ J3 @ image - J3)) < 1e-11
    for _ in range(10):
        w1, w2 = _random_word(rng, 6), _random_word(rng, 6)
        g1, g2 = _sl2(group, w1), _sl2(group, w2)
        lhs = sl2_to_so12(g1 @ g2)
        rhs = sl2_to_so12(g1) @ sl2_to_so12(g2)
        scale = max(1.0, float(np.max(np.abs(lhs))))
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale
        assert np.allclose(sl2_to_so12(-g1), sl2_to_so12(g1), atol=1e-12)


def test_normal_form_at_symmetric_point():
    group = build_punctured_torus(SYMMETRIC)
    gen_a = _sl2(group, "A")
    assert np.allclose(gen_a, np.diag([GOLDEN, 1.0 / GOLDEN]), atol=1e-12)
    gen_b = _sl2(group, "B")
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
    # At (0, 0) the quotient for the minus root would divide by xy + sqrt(disc) = 0.
    with pytest.raises(BadTracesError, match=r"no trace point over \(0.0, 0.0\)"):
        TeichPoint.from_xy(0.0, 0.0)
    # Finite traces whose trace relation overflows to NaN.
    with pytest.raises(BadTracesError, match="1e"):
        TeichPoint(1e200, 1e200, 1e200)
    point = TeichPoint.from_xy(3.0, 3.0)
    assert point.z == pytest.approx(3.0)
    assert TeichPoint.from_xy(3.0, 3.0, branch="plus").z == pytest.approx(6.0)
    assert abs(fricke_defect(point.x, point.y, point.z)) < 1e-12


# Traces x, y log-uniform in 2.1..1e6 with real roots z of the trace relation.
log_uniform_traces = st.floats(math.log(2.1), math.log(1e6)).map(math.exp)
FRICKE_DIGITS = 50


def _rounded_root(x, y, branch):
    """The root z of x^2 + y^2 + z^2 = xyz on the branch's side, to FRICKE_DIGITS digits, rounded to a float."""
    with mpmath.workdps(FRICKE_DIGITS):
        x, y = mpmath.mpf(x), mpmath.mpf(y)
        root = mpmath.sqrt(x * x * y * y - 4 * (x * x + y * y))
        return float((x * y - root) / 2 if branch == "minus" else (x * y + root) / 2)


def _fricke_gate(x, y, z):
    return max(EPS_FRICKE, EPS_FRICKE_RELATIVE * (x * x + y * y + z * z + abs(x * y * z)))


@given(x=log_uniform_traces, y=log_uniform_traces, branch=st.sampled_from(("minus", "plus")))
def test_trace_points_rounded_onto_the_variety_are_accepted(x, y, branch):
    assume((x * x - 4.0) * (y * y - 4.0) > 16.0)
    z = _rounded_root(x, y, branch)
    assume(z > 2.0)
    assert TeichPoint(x, y, z).z == z


@given(x=log_uniform_traces, y=log_uniform_traces, branch=st.sampled_from(("minus", "plus")))
def test_trace_points_moved_off_the_variety_are_refused(x, y, branch):
    assume((x * x - 4.0) * (y * y - 4.0) > 16.0)
    z = _rounded_root(x, y, branch) * (1.0 + 1e-6)
    assume(z > 2.0)
    if abs(fricke_defect(x, y, z)) > 100.0 * _fricke_gate(x, y, z):
        with pytest.raises(BadTracesError, match="trace relation violated"):
            TeichPoint(x, y, z)


@given(x=log_uniform_traces, y=log_uniform_traces)
def test_from_xy_takes_the_minus_root_to_rounding(x, y):
    # The float discriminant is off by a few u x^2 y^2, which moves z by about u xy / sqrt(disc) relative;
    # the worst of 200,000 draws was 2.02u (1 + xy / sqrt(disc)).  The cancelling form (xy - sqrt(disc)) / 2
    # loses up to 2.7e-5 relative here, past the Fricke gate at most of these draws.
    assume((x * x - 4.0) * (y * y - 4.0) > 16.0)
    z = TeichPoint.from_xy(x, y).z
    with mpmath.workdps(FRICKE_DIGITS):
        x, y = mpmath.mpf(x), mpmath.mpf(y)
        root = mpmath.sqrt(x * x * y * y - 4 * (x * x + y * y))
        exact = (x * y - root) / 2
        assert abs(z - exact) <= 8 * 2.0**-53 * (1 + x * y / root) * exact


def test_fricke_check_is_relative_to_the_terms():
    root = _rounded_root(3.0, 3000.0, "minus")
    assert TeichPoint.from_xy(3.0, 3000.0).z == root
    # One ulp below the rounded root: defect 1.86e-9 on terms of 2.1e7.
    point = TeichPoint(3.0, 3000.0, math.nextafter(root, 0.0))
    assert abs(fricke_defect(point.x, point.y, point.z)) > EPS_FRICKE
    # Below terms of about 5.6e5 the gate is EPS_FRICKE.
    assert _fricke_gate(3.0, 3.0, 3.0) == EPS_FRICKE
    assert EPS_FRICKE_RELATIVE * 5.6e5 < EPS_FRICKE < EPS_FRICKE_RELATIVE * 5.7e5


def test_trace_errors_carry_the_traces():
    with pytest.raises(BadTracesError, match=r"trace coordinates must be finite: \(nan, 3.0, inf\)"):
        TeichPoint(math.nan, 3.0, math.inf)
    with pytest.raises(BadTracesError, match=r"trace coordinates must all exceed 2: \(2.0, 3.0, 3.0\)"):
        TeichPoint(2.0, 3.0, 3.0)
    with pytest.raises(BadTracesError, match=r"generators are reducible; .*: \(3.0, 2.0, 3.0\)"):
        _normal_form_generators(3.0, 2.0, 3.0)


def test_rounding_that_leaves_ps_at_most_1_is_refused_with_it():
    # On the variety ps - 1 = 4 / (x^2 - 4), here 1.8e-9; it computes as -3.4e-5, and the group of
    # q = -r = -sqrt(1 - ps) would have cusp trace 75647.3.
    point = TeichPoint.from_xy(47142.68083613981, 388276.28952950606, "plus")
    with pytest.raises(BadTracesError, match=r"generators are reducible; .*, ps - 1 = -3\.404e-05"):
        build_punctured_torus(point)


def test_cusp_trace_error_carries_the_cusp_trace(monkeypatch):
    for trace, shown in ((-2.0 - 1e-6, r"-2\.000001"), (math.nan, "nan")):
        monkeypatch.setattr(PuncturedTorusGroup, "cusp_trace", lambda self, trace=trace: trace)
        with pytest.raises(BadTracesError, match=rf"fails the cusp trace check: cusp trace {shown}"):
            build_punctured_torus(SYMMETRIC)


def test_the_class_constructor_refuses_the_points_build_punctured_torus_refuses(monkeypatch):
    reducible = TeichPoint.from_xy(47142.68083613981, 388276.28952950606, "plus")
    for build in (PuncturedTorusGroup, build_punctured_torus):
        with pytest.raises(BadTracesError, match=r"generators are reducible; .*, ps - 1 = -3\.404e-05"):
            build(reducible)
        assert build(SYMMETRIC).cusp_trace() == build_punctured_torus(SYMMETRIC).cusp_trace()
    for trace, shown in ((-2.0 - 1e-6, r"-2\.000001"), (math.nan, "nan")):
        monkeypatch.setattr(PuncturedTorusGroup, "cusp_trace", lambda self, trace=trace: trace)
        for build in (PuncturedTorusGroup, build_punctured_torus):
            with pytest.raises(BadTracesError, match=rf"fails the cusp trace check: cusp trace {shown}"):
                build(SYMMETRIC)


def test_cusp_trace_is_held_to_the_fricke_bound():
    # The rounded root at (3, 3000) is on the variety to the last bit.  Its group misses the cusp
    # trace by more than EPS_FRICKE, and by far less than the bound of terms of 2.1e7.
    point = TeichPoint(3.0, 3000.0, _rounded_root(3.0, 3000.0, "minus"))
    miss = abs(build_punctured_torus(point).cusp_trace() + 2.0)
    assert EPS_FRICKE < miss <= _fricke_gate(point.x, point.y, point.z)


# Traces x, y log-uniform in 2.1..1e3: from about 1e4 on the plus branch, ps - 1 = 4 / (x^2 - 4) can
# round to 0 or below and the generators are refused as reducible (ROADMAP item 4, stage 2).
buildable_traces = st.floats(math.log(2.1), math.log(1e3)).map(math.exp)


@given(x=buildable_traces, y=buildable_traces, branch=st.sampled_from(("minus", "plus")))
def test_groups_build_at_from_xy_points(x, y, branch):
    assume((x * x - 4.0) * (y * y - 4.0) > 16.0)
    point = TeichPoint.from_xy(x, y, branch)
    assert abs(build_punctured_torus(point).cusp_trace() + 2.0) <= _fricke_gate(point.x, point.y, point.z)


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
    g = _sl2(group, "AB")
    axis = axis_of_sl2(g)
    assert np.allclose(axis_of_sl2(np.linalg.inv(g)).normal, -axis.normal, atol=1e-10)
    h = _sl2(group, "BBa")
    conjugated = axis_of_sl2(h @ g @ np.linalg.inv(h))
    assert np.allclose(conjugated.normal, sl2_to_so12(h) @ axis.normal, atol=1e-9)
    with pytest.raises(NotHyperbolicError):
        axis_of_sl2(_sl2(group, PuncturedTorusGroup.CUSP_WORD))


def test_translation_lengths():
    assert translation_length_sl2(np.diag([2.0, 0.5])) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
    assert translation_length_sl2(np.array([[1.0, 1.0], [0.0, 1.0]])) == 0.0
    group = build_punctured_torus(SYMMETRIC)
    g = _sl2(group, "AB")
    rng = np.random.default_rng(15)
    for _ in range(20):
        h = _sl2(group, _random_word(rng, 4))
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
    with pytest.raises(BadWordError):
        WeightedMulticurve("")
    mc = WeightedMulticurve("aBA", 0.5)
    assert mc == WeightedMulticurve.single("aBA", 0.5) and (mc.word, mc.weight, mc.root) == ("aBA", 0.5, "B")
    assert WeightedMulticurve("A").weight == 1.0


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
        if abs(float(np.trace(_sl2(group, word)))) < 2.0 + 1e-9:
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


# The homology classes (p, q) of simple closed curves with |p| + |q| <= 6, in all four sign patterns.
SHORT_CLASSES = [(p, q) for p in range(-6, 7) for q in range(-6, 7) if math.gcd(p, q) == 1 and abs(p) + abs(q) <= 6]


@given(
    x=st.floats(3.0, 12.0),
    y=st.floats(3.0, 12.0),
    homology=st.sampled_from(SHORT_CLASSES),
    conjugator=st.lists(st.sampled_from("ABab"), max_size=2).map("".join).map(free_reduce),
    inverted=st.booleans(),
)
def test_trace_jets_match_the_matrix_traces(x, y, homology, conjugator, inverted):
    word = christoffel(*homology)
    if inverted:
        word = invert_word(word)
    letters = free_reduce(conjugator + word + invert_word(conjugator))
    point = TeichPoint.from_xy(x, y)
    p = point.as_array()
    value, grad, hess = _trace_jet(word_homology(letters), p.tolist())
    grad, hess = np.array(grad), np.array(hess)
    expected = float(np.trace(_sl2(build_punctured_torus(point), letters)))
    assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def trace_at(q):
        gen_a, gen_b = _normal_form_generators(*q)
        gens = {"A": gen_a, "B": gen_b, "a": _inverse(gen_a), "b": _inverse(gen_b)}
        return float(np.trace(_letter_by_letter(gens, letters)))

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


def _mp_trace_of_ab_power(traces, n):
    """tr(A B^n) in mpmath, from generators in the normal form of _normal_form_generators with traces (x, y, z)."""
    x, y, z = traces
    lam = (x + mpmath.sqrt(x * x - 4)) / 2
    p = (z - y / lam) / (lam - 1 / lam)
    s = y - p
    r = mpmath.sqrt(abs(p * s - 1))
    gen_a = mpmath.matrix([[lam, 0], [0, 1 / lam]])
    gen_b = mpmath.matrix([[p, r if p * s >= 1 else -r], [r, s]])
    product = gen_a * gen_b**n
    return product[0, 0] + product[1, 1]


@pytest.mark.parametrize("n", [80, 100, 150, 200])
@pytest.mark.parametrize("point", [SYMMETRIC, TeichPoint.from_xy(4.0, 5.0)], ids=("(3,3,3)", "xy(4,5)"))
def test_long_curve_trace_jets_keep_their_digits(point, n):
    # The trace polynomial expanded letter by letter cancelled to 4.2e-9
    # relative at n = 80 and to the wrong sign at n = 200; each Farey step
    # subtracts a term far smaller than its product.
    value, grad, _ = _trace_jet((1, n), point.as_array().tolist())
    with mpmath.workdps(50):
        traces = [mpmath.mpf(c) for c in point.as_array().tolist()]
        reference = _mp_trace_of_ab_power(traces, n)
        step = mpmath.mpf("1e-20")
        reference_grad = [
            (_mp_trace_of_ab_power(traces[:i] + [c + step] + traces[i + 1 :], n)
             - _mp_trace_of_ab_power(traces[:i] + [c - step] + traces[i + 1 :], n)) / (2 * step)
            for i, c in enumerate(traces)
        ]
        assert float(abs(value - reference) / abs(reference)) < 1e-12
        size = max(abs(g) for g in reference_grad)
        assert float(max(abs(g - ref) for g, ref in zip(grad, reference_grad)) / size) < 1e-12


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


# ---------------------------------------------------------------------------
# The reference walk: a breadth-first search of the tiles that meet one
# segment, which answered every segment past the atlas before the tree path
# did.  It is kept as it was written, with its own rounding slack and the
# library's MAX_NODES budget, as the reference that the atlas and the tree
# path are compared against.
# ---------------------------------------------------------------------------

# The rounding slack of the test whether a tile meets a segment, relative to
# the terms of its side pairings; those grow as 1 / sqrt(1 - |z|^2) at an
# endpoint z, and a slack of 1e-12 let a search run past its budget for an
# endpoint 2e-12 from the rim.
EPS_CLIP = 1e-14


def _tiles_near_segment(group: PuncturedTorusGroup, x: np.ndarray, y: np.ndarray, radius: float) -> list[str]:
    """The words of the tiles w.Q that meet [x, y] or B(x, radius), or pass near y, the root tile first.

    Searches the tiles breadth first, shell by shell and never stepping
    back, from a tile near x.  A tile is kept when it meets [x, y] (up to a
    rounding slack), lies within distance radius + EPS_ENDPOINT of x or
    within sinh-distance EPS_ENDPOINT of y: exact tests, as a point outside
    an ideal polygon violates one side only.  The kept tiles form a subtree
    of the side-adjacency tree, so the search is complete; MAX_NODES bounds
    the tiles it tests.
    """
    sides = _side_columns(group)
    gens = np.stack([group.lorentz(ch) for ch in GENERATOR_LETTERS])
    duals = disk_lift(np.stack([x, y])) @ J3
    size = EPS_CLIP * np.abs(duals)
    reach = np.array([[-math.sinh(radius + EPS_ENDPOINT)], [-math.sinh(EPS_ENDPOINT)]])

    def meets(mats: np.ndarray) -> np.ndarray:
        # The half-planes beyond the sides are disjoint, so a segment misses
        # a tile exactly when both ends lie beyond one side.
        normals = mats @ sides
        at = duals @ normals
        missed = (at + size @ np.abs(normals) < 0.0).all(axis=1).any(axis=1)
        return ~missed | (at >= reach).all(axis=2).any(axis=1)

    def budget_error(nodes: int, depth: int) -> EnumerationBudgetError:
        cosh_len = max(1.0, float(-(duals[0] @ J3 @ duals[1])))
        region = f"atlas radius {radius}" if radius else f"segment length {math.acosh(cosh_len):.3f}"
        return EnumerationBudgetError(nodes, depth, region)

    # The root: from Q, cross the side x violates most until x is within
    # reach of the tile, which then passes ``meets``.
    word, mat, nodes = "", np.eye(3), 0
    while True:
        nodes += 1
        if nodes > fuchsian.MAX_NODES:
            raise budget_error(nodes, 0)
        at_x = (duals @ (mat @ sides))[0]
        j = int(np.argmin(at_x))
        if at_x[j] >= reach[0, 0]:
            break
        word = _join(word, GENERATOR_LETTERS[j])
        mat = mat @ gens[j]
    # backtrack[j]: the letter that generator j cancels (A and a, B and b).
    backtrack = ((np.arange(4) + 2) % 4)[:, np.newaxis]
    tiles = words = [word]
    mats, last, depth = mat[np.newaxis], np.array([-1]), 0
    while words:
        allowed = last != backtrack
        last, parent = np.nonzero(allowed)
        depth += 1
        nodes += len(last)
        # Checked before the shell's product, so a search over budget never
        # forms or tests the shell that crosses it.
        if nodes > fuchsian.MAX_NODES:
            raise budget_error(nodes, depth)
        mats = (mats[np.newaxis] @ gens[:, np.newaxis])[allowed]
        kept = np.nonzero(meets(mats))[0]
        words = [_join(words[i], GENERATOR_LETTERS[j]) for i, j in zip(parent[kept].tolist(), last[kept].tolist())]
        tiles = tiles + words
        mats, last = mats[kept], last[kept]
    return tiles


def _walk_segment(group: PuncturedTorusGroup, mc: WeightedMulticurve, x: np.ndarray, y: np.ndarray) -> Leaves:
    """The leaves through the tiles that meet [x, y] or pass near an endpoint, found by a search of their own."""
    return _tile_leaves(group, mc.root, _tiles_near_segment(group, x, y, 0.0))


def _crossings_of(leaves: Leaves, x: np.ndarray, y: np.ndarray):
    """The library's sign test of the segment (x, y) among the leaves, its ends checked as a query checks them."""
    return _crossings(leaves, disk_point(x), disk_point(y))


def _record_leaf_queries(monkeypatch) -> tuple[list, list]:
    """Lists that fill, as the library runs, with the radius of each tile search and the leaves of each sign test."""
    searches, answered = [], []
    search, crossings = fuchsian._tiles_within, fuchsian._crossings
    monkeypatch.setattr(fuchsian, "_tiles_within", lambda g, x, radius: searches.append(radius) or search(g, x, radius))
    monkeypatch.setattr(fuchsian, "_crossings", lambda leaves, x, y: answered.append(leaves) or crossings(leaves, x, y))
    return searches, answered


def _assert_walk_agrees(group, mc, x, y):
    """The answer for [x, y], from the atlas or the tree path, is that of the reference walk."""
    normals, sides, parameters, words = segment_crossings(group, mc, x, y)
    searched = _crossings_of(_walk_segment(group, mc, x, y), x, y)
    assert words == searched[3]
    assert np.array_equal(normals, searched[0])
    assert np.array_equal(sides, searched[1])
    assert parameters == searched[2]


@pytest.mark.parametrize("name", sorted(ATLAS_POINTS))
def test_atlas_matches_the_reference_walk(name):
    rng = np.random.default_rng(sorted(ATLAS_POINTS).index(name))
    for mc in ATLAS_MULTICURVES:
        group = build_punctured_torus(ATLAS_POINTS[name])
        # Every end lies within Klein radius 0.97, inside the atlas ball.
        radii = [0.97, 0.97] + list(0.97 * np.sqrt(rng.uniform(size=10)))
        points = [_disk_point(rng, r) for r in radii]
        for x, y in zip(points[::2], points[1::2]):
            _assert_walk_agrees(group, mc, x, y)


def test_atlas_is_built_once_at_its_radius_and_the_tree_path_answers_past_it(monkeypatch):
    # The first segment inside B(o, ATLAS_RADIUS) builds the atlas by one
    # search about the centre, later ones inside it read the same leaves,
    # and a segment reaching past it takes the tree path.  At this point the
    # atlas used to run out of its word-walk budget at radius 2.0.
    group = build_punctured_torus(ATLAS_POINTS["xy(3,40)"])
    mc = WeightedMulticurve.single("ABB")
    searches, answered = _record_leaf_queries(monkeypatch)
    rng = np.random.default_rng(3)
    near = (_disk_point(rng, 0.8), _disk_point(rng, 0.9))
    far = (_disk_point(rng, 0.95), _disk_point(rng, 0.6))
    edge = (_disk_point(rng, 0.985), _disk_point(rng, 0.4))
    rim = (_disk_point(rng, 0.995), _disk_point(rng, 0.5))
    _assert_walk_agrees(group, mc, *near)
    assert searches == [ATLAS_RADIUS]
    for ends in (far, edge):
        _assert_walk_agrees(group, mc, *ends)
    atlas = group.atlas(mc.root)
    assert len(answered) == 3 and all(leaves is atlas for leaves in answered) and searches == [ATLAS_RADIUS]
    _assert_walk_agrees(group, mc, *rim)
    assert answered[-1] is not atlas and searches == [ATLAS_RADIUS, 0.0, 0.0]
    _assert_walk_agrees(group, mc, *near)
    assert answered[-1] is atlas and len(searches) == 3


def test_every_weight_and_conjugate_word_of_a_curve_shares_one_atlas(monkeypatch):
    # 1 A, 0.5 A and 1 bAB have the root A: one ball search serves all
    # three, where an atlas per multicurve searched the ball three times.
    group = build_punctured_torus(SYMMETRIC)
    searches, answered = _record_leaf_queries(monkeypatch)
    x, y = np.array([0.8, 0.513]), np.array([-0.832, -0.459])
    curves = (WeightedMulticurve("A"), WeightedMulticurve("A", 0.5), WeightedMulticurve("bAB"))
    found = [segment_crossings(group, mc, x, y) for mc in curves]
    assert searches == [ATLAS_RADIUS]
    assert len(answered) == 3 and all(leaves is group.atlas("A") for leaves in answered)
    normals, sides, parameters, words = found[0]
    assert words == ["B", "", "b"]
    for other in found[1:]:
        assert other[3] == words and parameters == other[2]
        assert np.array_equal(other[0], normals) and np.array_equal(other[1], sides)


@pytest.mark.parametrize(
    "name, mc",
    [("xy(20,3)", WeightedMulticurve.single("AAB", 0.5)), ("xy(3,40)", WeightedMulticurve.single("ABB"))],
    ids=("0.5AAB@xy(20,3)", "ABB@xy(3,40)"),
)
def test_atlas_builds_and_answers_where_the_old_word_walk_ran_out_of_budget(monkeypatch, name, mc):
    # Of the test grid, these points need the most tiles for the atlas ball
    # (about a hundred tested), and the old word walk ran out of budget there.
    group = build_punctured_torus(ATLAS_POINTS[name])
    _, answered = _record_leaf_queries(monkeypatch)
    rng = np.random.default_rng(4)
    _assert_walk_agrees(group, mc, _disk_point(rng, 0.97), _disk_point(rng, 0.3))
    atlas = group.atlas(mc.root)
    for _ in range(4):
        x, y = (_disk_point(rng, 0.97 * math.sqrt(rng.uniform())) for _ in range(2))
        _assert_walk_agrees(group, mc, x, y)
    assert len(answered) == 5 and all(leaves is atlas for leaves in answered)


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
    region = "atlas radius 2.0"
    monkeypatch.setattr(fuchsian, "MAX_NODES", 3)
    with pytest.raises(EnumerationBudgetError) as info:
        _tiles_within(group, disk_point(np.zeros(2)), 2.0)
    err = info.value
    assert err.nodes > 3 and err.depth >= 1 and err.region == region
    assert f"after {err.nodes} nodes at depth {err.depth} ({region})" in str(err)


@pytest.mark.filterwarnings("error")
def test_side_pairings_that_are_not_finite_are_refused_at_once():
    # 1.1e-16 from the rim, the tiles about the point overflow a few hundred
    # tiles into the descent.  Searched with the segment, the walk kept no
    # tile there and found no crossing, where 1e-15 from the rim it finds three.
    group = build_punctured_torus(SYMMETRIC)
    mc = WeightedMulticurve.single("A")
    rim, inside = np.array([0.9999999999999999, 0.0]), np.array([0.1, 0.2])
    named = r"side pairings of the disk point \(0.9999999999999999, 0.0\) are not finite after \d+ nodes at depth 0"
    for ends in ((rim, inside), (inside, rim)):
        with pytest.raises(GeometryError, match=named) as info:
            segment_crossings(group, mc, *ends)
        assert type(info.value) is GeometryError
    assert len(segment_crossings(group, mc, np.array([1.0 - 1e-15, 0.0]), inside)[3]) == 3


def test_leaf_search_over_budget_stops_before_the_shell_that_crosses_it(monkeypatch):
    # A point of the trace_points box where the segment from (0.11, 0.07) to
    # its image under BBaa, 1e-14 from the rim, took the reference walk past
    # MAX_NODES tiles.  The tree path answers it as the holonomy query does.
    group = build_punctured_torus(TeichPoint.from_xy(7.9017, 7.9017))
    mc = WeightedMulticurve.single("A")
    x = np.array([0.11, 0.07])
    y = fuchsian.image_point(group, "BBaa", x)
    found = segment_crossings(group, mc, x, y)
    assert found[3] == ["B", "BB"]
    _assert_same_arrays(found, fuchsian.holonomy_segment_crossings(group, mc, x, "BBaa"))
    with pytest.raises(EnumerationBudgetError):
        _walk_segment(group, mc, x, y)

    # A ball search checks the budget before it forms and tests the shell
    # that would cross it: it forms no more tile matrices than the budget.
    monkeypatch.setattr(fuchsian, "MAX_NODES", 20_000)
    formed, compose = [], fuchsian._compose
    monkeypatch.setattr(fuchsian, "_compose", lambda m, g: formed.append(m) or compose(m, g))
    with pytest.raises(EnumerationBudgetError) as info:
        _tiles_within(group, disk_point(np.zeros(2)), 12.0)
    assert 0 < len(formed) <= 20_000 < info.value.nodes


def test_tile_sides_are_paired_by_the_generators():
    for point in (SYMMETRIC, TeichPoint.from_xy(3.0, 40.0), TeichPoint.from_xy(20.0, 3.0)):
        group = build_punctured_torus(point)
        assert group.tile_sides() is group.tile_sides()
        sides = _side_columns(group)
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
    """(0, parameter) of the leaves w . axis crossing (x, y) with |w| <= length, sorted.

    The curve word is cyclically reduced.  A leaf is kept once, from the
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
    normals = mats @ group.axis(mc.word).normal
    f0, f1 = normals @ u0, normals @ u1
    for i in np.nonzero(f0 * f1 < 0.0)[0]:
        found.setdefault((0, _coset_key(words[i], mc.word)), float(f0[i] / (f0[i] - f1[i])))
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


@given(point=extreme_trace_points, mc=st.sampled_from(ATLAS_MULTICURVES))
def test_atlas_builds_within_a_tenth_of_the_tile_budget(point, mc):
    # The atlas ball is searched at its one radius whatever the query, so
    # that radius stands only while the search keeps far from MAX_NODES.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fuchsian, "MAX_NODES", fuchsian.MAX_NODES // 10)
        normals, words = build_punctured_torus(point).atlas(mc.root)
    assert len(normals) == len(words) and all(len(row) == 3 for row in normals)


def test_the_largest_atlas_ball_is_searched_within_a_tenth_of_the_tile_budget(monkeypatch):
    # from_xy(2.000001, 4000.0015) has the shortest curve A for which the
    # group still builds, and the largest atlas ball found: 3,189 tiles, of
    # up to 1,594 letters, hold its one leaf.  Naming the leaves once walked
    # the powers of the root one join at a time and took seconds; it takes
    # about 0.1 s, as long as the search.
    group = build_punctured_torus(TeichPoint.from_xy(2.000001, 4000.0015))
    monkeypatch.setattr(fuchsian, "MAX_NODES", fuchsian.MAX_NODES // 10)
    tiles = _tiles_within(group, disk_point(np.zeros(2)), ATLAS_RADIUS)
    assert len(tiles) == 3189 and max(map(len, tiles)) == 1594
    assert group.atlas("A")[1] == ("",)


def test_atlas_rows_of_long_words_equal_the_letter_by_letter_products():
    # At from_xy(2.000001, 4000.0015) the atlas of B names 3,189 leaves by
    # words of up to 1,594 letters; sl2 extends the longest memoised prefix
    # of each, which must give the bits of the product from the identity.
    group = build_punctured_torus(TeichPoint.from_xy(2.000001, 4000.0015))
    gens = group._sl2_gens
    rows, words = group.atlas("B")
    assert len(words) == 3189 and max(map(len, words)) == 1594
    normal = axis_of_sl2(_letter_by_letter(gens, "B")).normal
    longest = max(range(len(words)), key=lambda i: len(words[i]))
    for i in np.random.default_rng(37).choice(len(words), size=50, replace=False).tolist() + [longest]:
        # One matrix alone, as each slice of the library's stacked product.
        expected = sl2_to_so12(_letter_by_letter(gens, words[i])) @ normal
        assert np.array(rows[i]).tobytes() == expected.tobytes(), words[i]
        assert _sl2(group, words[i]).tobytes() == _letter_by_letter(gens, words[i]).tobytes()


def test_sl2_products_do_not_depend_on_the_words_asked_before():
    rng = np.random.default_rng(38)
    words = [_random_word(rng, int(n)) for n in rng.integers(1, 40, size=60)]
    words += [w[: len(w) // 2] for w in words[:20]] + [w + "A" for w in words[:10]]
    shared = build_punctured_torus(SYMMETRIC)
    gens = shared._sl2_gens
    for word in words:
        assert _sl2(shared, word).tobytes() == _letter_by_letter(gens, word).tobytes(), word
        assert shared.entries(word) is shared.entries(word)
    assert _sl2(shared, "").tobytes() == np.eye(2).tobytes()
    with pytest.raises(BadWordError):
        shared.entries("AxB")
    assert not any("x" in word for word in shared._sl2)


def _first_word_by_powers(prefix, root):
    """_first_word as it was written: prefix . root^j one join at a time, while the word does not grow."""
    best = prefix
    if prefix[-1:] == root[0].swapcase():
        step = root
    elif prefix[-1:] == root[-1]:
        step = invert_word(root)
    else:
        return best
    head = prefix
    while True:
        longer = _join(head, step)
        if len(longer) > len(head):
            return best
        head = longer
        if fuchsian._walk_order(head) < fuchsian._walk_order(best):
            best = head


@given(
    root=any_reduced_words.map(_cyclic_reduce).filter(bool),
    u=any_reduced_words,
    copies=st.integers(0, 5),
    part=st.integers(0, 12),
    inverted=st.booleans(),
)
def test_first_word_equals_the_walk_over_the_powers_of_the_root(root, u, copies, part, inverted):
    # Prefixes that end in whole and partial copies of root or of its
    # inverse, which the next powers cancel.
    step = invert_word(root) if inverted else root
    tail = (invert_word(step) * (copies + 1))[: copies * len(step) + min(part, len(step))]
    prefix = free_reduce(u + tail)
    assert fuchsian._first_word(prefix, root) == _first_word_by_powers(prefix, root)


def _adjoint_in_floats(g):
    """The adjoint image of g, entry by entry in Python floats, as isometry.adjoint_rows writes it."""
    (a, b), (c, d) = g.tolist()
    return np.array(
        [
            [(a * a + b * b + c * c + d * d) / 2.0, a * b + c * d, (b * b + d * d - a * a - c * c) / 2.0],
            [a * c + b * d, a * d + b * c, b * d - a * c],
            [(c * c + d * d - a * a - b * b) / 2.0, c * d - a * b, (a * a + d * d - b * b - c * c) / 2.0],
        ]
    )


@given(point=extreme_trace_points, word=reduced_words)
def test_stacked_letter_images_equal_each_letters_adjoint_bit_for_bit(point, word):
    group = build_punctured_torus(point)
    images = sl2_to_so12(np.stack([_sl2(group, letter) for letter in "ABab"]))
    assert images.shape == (4, 3, 3)
    for image, letter in zip(images, "ABab"):
        g = _sl2(group, letter)
        assert image.tobytes() == sl2_to_so12(g).tobytes() == _adjoint_in_floats(g).tobytes(), letter
        assert group.lorentz(letter).tobytes() == image.tobytes(), letter
    g = _sl2(group, word)
    assert sl2_to_so12(g).tobytes() == _adjoint_in_floats(g).tobytes() == group.lorentz(word).tobytes()


@given(u=any_reduced_words, cancelled=st.integers(0, 12), w=any_reduced_words)
def test_join_of_reduced_words_is_their_free_reduction(u, cancelled, w):
    # v starts by cancelling up to ``cancelled`` letters of u.
    v = free_reduce(invert_word(u[max(0, len(u) - cancelled) :]) + w)
    assert fuchsian._join(u, v) == free_reduce(u + v)
    assert fuchsian._join(v, u) == free_reduce(v + u)


@given(point=extreme_trace_points, u=reduced_words, v=reduced_words)
def test_lorentz_images_are_a_homomorphism_into_the_lorentz_group_at_random_points(point, u, v):
    # Each image is the adjoint of a rounded SL(2) product, whose condition is |L|:
    # residuals are measured in ulps of the sizes of the factors.  Over 20,000
    # random draws of the same kind the largest were 20 ulps of |L(u)| |L(v)|
    # and 6 ulps of |L|^2 (18 and 5 with numpy's products).
    group = build_punctured_torus(point)
    lu, lv = group.lorentz(u), group.lorentz(v)
    size = lambda m: float(np.max(np.abs(m)))
    assert size(group.lorentz(u + v) - lu @ lv) <= 32 * math.ulp(size(lu) * size(lv))
    for image in (lu, lv, group.lorentz(free_reduce(u + v))):
        assert size(image.T @ J3 @ image - J3) <= 12 * math.ulp(size(image) ** 2)


def _mp_adjoint(g):
    """The adjoint image of an mpmath 2x2 matrix: the coordinates of g e adj(g) for the trace-free basis e."""
    inverse = mpmath.matrix([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]])
    out = mpmath.matrix(3, 3)
    for j, e in enumerate(([[0, -1], [1, 0]], [[1, 0], [0, -1]], [[0, 1], [1, 0]])):
        m = g * mpmath.matrix(e) * inverse
        for i, value in enumerate(((m[1, 0] - m[0, 1]) / 2, m[0, 0], (m[1, 0] + m[0, 1]) / 2)):
            out[i, j] = value
    return out


def test_lorentz_images_are_within_a_few_ulps_of_a_50_digit_reference():
    # The group's float letters are taken as exact.  On these 300 draws the
    # largest error was 7.49 ulps of the largest entry with numpy's 2x2 and
    # adjoint products (6.09 in floats); the median was 1.35 (1.43).
    rng = np.random.default_rng(39)
    errors = []
    with mpmath.workdps(50):
        for _ in range(300):
            x, y = rng.uniform(3.0, 60.0, size=2).tolist()
            group = build_punctured_torus(TeichPoint.from_xy(x, y))
            word = _random_word(rng, int(rng.integers(1, 14)))
            letters = {ch: mpmath.matrix(_sl2(group, ch).tolist()) for ch in "ABab"}
            g = mpmath.eye(2)
            for ch in word:
                g = g * letters[ch]
            reference, found = _mp_adjoint(g), group.lorentz(word).tolist()
            size = max(abs(reference[i, j]) for i in range(3) for j in range(3))
            error = max(abs(mpmath.mpf(found[i][j]) - reference[i, j]) for i in range(3) for j in range(3))
            errors.append(float(error) / math.ulp(float(size)))
    assert max(errors) <= 7.5


@given(point=trace_points, mc=st.sampled_from(ATLAS_MULTICURVES), x=disk_points, y=disk_points)
def test_leaf_search_finds_every_crossing_of_a_brute_force_enumeration(point, mc, x, y):
    group = build_punctured_torus(point)
    try:
        crossings = leaves_crossing(group, mc, x, y)
    except EndpointOnLeafError:
        assume(False)
    expected = _brute_force_crossings(group, mc, x, y, 7)
    _assert_same_crossings([c.parameter for c in crossings], expected)
    _assert_same_crossings(_crossings_of(_walk_segment(group, mc, x, y), x, y)[2], expected)


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


def _numpy_crossings(leaves, x, y):
    """_crossings as it was written, in stacked numpy products, as the reference of the float sign test."""
    rows, words = leaves
    normals = np.array(rows, dtype=float).reshape(-1, 3)
    (x1, x2), (y1, y2) = x.tolist(), y.tolist()
    duals = np.array([[[-1.0, x1, x2]], [[-1.0, y1, y2]]])
    scale0 = 1.0 / math.sqrt(1.0 - (x1 * x1 + x2 * x2))
    scale1 = 1.0 / math.sqrt(1.0 - (y1 * y1 + y2 * y2))
    products = duals * normals
    f0, f1 = products[..., 0] + products[..., 1] + products[..., 2]
    on_leaf = (np.abs(f0) * scale0 < EPS_ENDPOINT) | (np.abs(f1) * scale1 < EPS_ENDPOINT)
    if on_leaf.any():
        raise EndpointOnLeafError("segment endpoint lies on a leaf; nudge the basepoint")
    hit = (f0 * f1 < 0.0).nonzero()[0]
    parameters = f0[hit] / (f0[hit] - f1[hit])
    order = parameters.argsort(kind="stable")
    hit = hit[order]
    return normals[hit], np.copysign(1.0, -f0[hit]), parameters[order], [words[i] for i in hit.tolist()]


def _as_arrays(crossings):
    """The normal rows, sides and parameters of crossings as the arrays that _crossings once returned."""
    rows, sides, parameters, _ = crossings
    return np.array(rows, dtype=float).reshape(-1, 3), np.array(sides, dtype=float), np.array(parameters, dtype=float)


normal_entries = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, math.inf, -math.inf, math.nan]),
)


@given(
    normals=st.lists(st.tuples(normal_entries, normal_entries, normal_entries), max_size=10),
    repeats=st.lists(st.tuples(st.integers(0, 9), st.sampled_from([1.0, 2.0, -0.5])), max_size=4),
    x=disk_points,
    y=disk_points,
)
def test_float_sign_test_equals_its_numpy_form_bit_for_bit(normals, repeats, x, y):
    # Empty leaf sets, leaves repeated at powers of two (equal parameters,
    # kept in leaf order), leaves through an end, and pairings that
    # overflow to inf or NaN, whose parameters numpy sorts last.
    rows = list(normals) + [tuple(factor * c for c in normals[i]) for i, factor in repeats if i < len(normals)]
    leaves = (tuple(rows), tuple(f"w{i}" for i in range(len(rows))))
    with np.errstate(all="ignore"):
        try:
            expected = _numpy_crossings(leaves, x, y)
        except EndpointOnLeafError:
            with pytest.raises(EndpointOnLeafError, match="segment endpoint lies on a leaf"):
                _crossings_of(leaves, x, y)
            return
    found = _crossings_of(leaves, x, y)
    assert found[3] == expected[3]
    for array, want in zip(_as_arrays(found), expected[:3]):
        assert array.shape == want.shape and array.dtype == want.dtype and array.tobytes() == want.tobytes()


def test_endpoint_on_leaf_error_carries_the_endpoint_leaf_and_pairing():
    # The leaf {x1 = 0} of the word "bAB" passes through the second endpoint.
    leaves = (((2.0, 0.0, 1.0), (0.0, 1.0, 0.0)), ("A", "bAB"))
    with pytest.raises(
        EndpointOnLeafError,
        match=r"segment endpoint lies on a leaf; .*endpoint \[0.0, -0.5\] on the leaf of 'bAB', scaled pairing 0.000e\+00",
    ):
        _crossings_of(leaves, np.array([0.3, 0.2]), np.array([0.0, -0.5]))


def test_holonomy_image_off_the_disk_error_carries_the_word_and_its_norm():
    with pytest.raises(OutsideModelError, match=r"\|z\| < 1: 'A{20}' \. x0 has \|z\|\^2 = 1\.0"):
        fuchsian.holonomy_segment_crossings(
            build_punctured_torus(SYMMETRIC), WeightedMulticurve.single("B"), np.array([0.11, 0.07]), "A" * 20
        )


@pytest.mark.parametrize("name", sorted(ATLAS_POINTS))
def test_float_sign_test_on_atlas_leaves_equals_its_numpy_form_bit_for_bit(name):
    # Real leaf sets, with an end pulled onto a leaf for every fifth segment.
    rng = np.random.default_rng(sorted(ATLAS_POINTS).index(name) + 100)
    group = build_punctured_torus(ATLAS_POINTS[name])
    refused = 0
    for mc in ATLAS_MULTICURVES:
        leaves = group.atlas(mc.root)
        for k in range(20):
            x, y = (_disk_point(rng, 0.97 * math.sqrt(rng.uniform())) for _ in range(2))
            if k % 5 == 0 and len(leaves[1]):
                # The point of a leaf nearest the centre lies on it.
                normal = np.array(leaves[0][int(rng.integers(len(leaves[1])))])
                y = normal[0] * normal[1:] / (normal[1:] @ normal[1:])
            try:
                expected = _numpy_crossings(leaves, x, y)
            except EndpointOnLeafError:
                refused += 1
                with pytest.raises(EndpointOnLeafError):
                    _crossings_of(leaves, x, y)
                continue
            found = _crossings_of(leaves, x, y)
            assert found[3] == expected[3]
            for array, want in zip(_as_arrays(found), expected[:3]):
                assert array.tobytes() == want.tobytes()
    assert refused >= 16


def _assert_whole_word_normals(group, mc, crossings):
    """Each crossing's normal is the group's image of its whole conjugator word applied to the root's axis normal."""
    normals, _, _, words = crossings
    axis = group.axis(mc.root).normal
    for normal, word in zip(normals, words):
        assert np.array(normal).tobytes() == (group.lorentz(word) @ axis).tobytes(), word


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
    axis = group.axis(mc.root).normal
    for crossing, side in zip(crossings, sides):
        pushed = side * (group.lorentz(crossing.conjugator_word) @ axis)
        assert np.max(np.abs(crossing.leaf.normal - pushed)) <= 1e-9 * np.max(np.abs(pushed))
        assert float(minkowski_dot(crossing.leaf.normal, disk_lift(x))) < 0.0
    # Both ends lie within Klein radius 0.9, so the atlas answers.
    assert set(words) <= set(group.atlas(mc.root)[1])
    _assert_whole_word_normals(group, mc, found)
    _assert_whole_word_normals(group, mc, _crossings_of(_walk_segment(group, mc, x, y), x, y))
    try:
        along_tree = fuchsian.holonomy_segment_crossings(group, mc, x, word)
    except (EndpointOnLeafError, OutsideModelError):
        return
    _assert_whole_word_normals(group, mc, along_tree)


def _is_simple_curve(word):
    try:
        WeightedMulticurve(word)
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
    far = fuchsian.image_point(group, free_reduce(word), x0)

    def searched():
        u, v = far.tolist()
        if not u * u + v * v < 1.0:
            raise OutsideModelError("g.x0 rounds onto the rim")
        return _crossings_of(_walk_segment(group, mc, x0, far), x0, far)

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
            far = fuchsian.image_point(group, word, x0)
            expected = _crossings_or_error(lambda: _crossings_of(_walk_segment(group, mc, x0, far), x0, far))
            _assert_same_arrays(
                _crossings_or_error(lambda: fuchsian.holonomy_segment_crossings(group, mc, x0, word)), expected
            )


def test_holonomy_crossings_take_the_basepoint_as_any_two_numbers():
    group, mc = build_punctured_torus(SYMMETRIC), WeightedMulticurve.single("A")
    found = [fuchsian.holonomy_segment_crossings(group, mc, x0, "B") for x0 in ((0.11, 0.07), [0.11, 0.07])]
    expected = fuchsian.holonomy_segment_crossings(group, mc, np.array([0.11, 0.07]), "B")
    assert found == [expected, expected] and expected[3] == ["B"]


def test_a_point_from_disk_point_is_taken_as_it_is_and_a_bare_triple_is_refused():
    # The public functions that take a point also take disk_point's DiskPoint, unchecked, with the same
    # result; a plain triple is no checked point, even one off the disk, and is refused.
    group, mc = build_punctured_torus(SYMMETRIC), WeightedMulticurve.single("A")
    x0, y = (0.11, 0.07), (0.5, -0.3)
    assert fuchsian.holonomy_segment_crossings(group, mc, disk_point(x0), "B") == fuchsian.holonomy_segment_crossings(
        group, mc, x0, "B"
    )
    assert fuchsian.segment_crossings(group, mc, disk_point(x0), disk_point(y)) == fuchsian.segment_crossings(
        group, mc, x0, y
    )
    assert fuchsian.image_point(group, "B", disk_point(x0)).tobytes() == fuchsian.image_point(group, "B", x0).tobytes()
    assert group.tiles_near(disk_point(x0)) == group.tiles_near(x0)
    for bare in ((0.11, 0.07, 0.99), (0.9, 0.9, 0.5)):
        for call in (
            lambda: fuchsian.holonomy_segment_crossings(group, mc, bare, "B"),
            lambda: fuchsian.segment_crossings(group, mc, x0, bare),
            lambda: fuchsian.image_point(group, "B", bare),
            lambda: group.tiles_near(bare),
        ):
            with pytest.raises(ValueError):
                call()


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


@pytest.mark.parametrize("n", range(1, 10))
def test_kerckhoff_point_of_a_twisted_pair_lies_on_the_twist_orbit(n):
    # The Dehn twist about B carries (A, B) to (A B, B) and leaves the objective unchanged, so the
    # minimiser of (A B^n, B) is the n-th twist image of (2 sqrt 2, 2 sqrt 2, 4), whose x is s_n,
    # s_{k+1} = 2 sqrt 2 s_k - s_{k-1}.
    orbit = [2.0 * math.sqrt(2.0), 4.0]
    while len(orbit) <= n:
        orbit.append(2.0 * math.sqrt(2.0) * orbit[-1] - orbit[-2])
    result = kerckhoff_point(WeightedMulticurve.single("A" + "B" * n), WeightedMulticurve.single("B"), SYMMETRIC)
    assert result.objective == pytest.approx(4.0 * math.acosh(math.sqrt(2.0)), rel=1e-9)
    # At n = 9 the valley is flat (Hessian condition 3.6e4), and x is 8.1e-5 off relative.
    assert result.point.x == pytest.approx(orbit[n], rel=1e-3)
    assert result.gradient_norm < 1e-7


def test_kerckhoff_point_from_asymmetric_seed_and_scaling():
    lam, mu = WeightedMulticurve.single("A"), WeightedMulticurve.single("B")
    seeded = kerckhoff_point(lam, mu, TeichPoint.from_xy(3.6, 2.9))
    assert seeded.point.x == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)
    scaled = kerckhoff_point(WeightedMulticurve.single("A", 2.5), WeightedMulticurve.single("B", 2.5), SYMMETRIC)
    assert scaled.point.x == pytest.approx(seeded.point.x, abs=1e-6)
    assert scaled.point.y == pytest.approx(seeded.point.y, abs=1e-6)


def test_kerckhoff_minimizer_is_locally_minimal():
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


def _numpy_tangent_basis(p):
    n = _numpy_fricke_gradient(p)
    n = n / np.linalg.norm(n)
    seed = np.eye(3)[np.argmin(np.abs(n))]
    t1 = seed - float(seed @ n) * n
    t1 /= np.linalg.norm(t1)
    return np.column_stack([t1, np.cross(n, t1)])


def _numpy_reduced_model(terms, p):
    if not np.all(p > 2.0):
        return math.inf, None, None, None
    total, grad, hess = 0.0, np.zeros(3), np.zeros((3, 3))
    for weight, homology in terms:
        trace, d_trace, dd_trace = _trace_jet(homology, p.tolist())
        d_trace, dd_trace = np.array(d_trace), np.array(dd_trace)
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
def test_tangent_basis_equals_its_numpy_form_bit_for_bit(p):
    gradient = _fricke_gradient(p)
    assert _same_bits(gradient, _numpy_fricke_gradient(p))
    assert _same_bits(_tangent_basis(gradient, float(gradient @ gradient)), _numpy_tangent_basis(p))


log_uniform_positives = st.floats(math.log(1e-3), math.log(1e6)).map(math.exp)
UNIT = 2.0**-53


@given(p=st.tuples(log_uniform_positives, log_uniform_positives, log_uniform_positives))
def test_variety_projection_lands_on_the_variety_and_stays(p):
    image = _project_to_variety(p)
    # Each image coordinate is S / (a product of the other two) >= 2.  It rounds to about 2 when one
    # coordinate of p is tiny next to the other two, and TeichPoint refuses a trace of 2.
    assert min(image) >= 2.0 - 8.0 * UNIT
    if min(image) > 2.0:
        TeichPoint(*image)
    assert np.all(np.abs(_project_to_variety(image) - image) <= 16.0 * UNIT * image)


@given(x=log_uniform_traces, y=log_uniform_traces, branch=st.sampled_from(("minus", "plus")))
def test_variety_projection_fixes_trace_points(x, y, branch):
    assume((x * x - 4.0) * (y * y - 4.0) > 16.0)
    point = TeichPoint.from_xy(x, y, branch).as_array()
    assert np.all(np.abs(_project_to_variety(point) - point) <= 16.0 * UNIT * point)


def test_variety_projection_returns_a_point_with_a_coordinate_not_above_0_as_it_is():
    for p in ((0.0, 3.0, 3.0), (3.0, -1.0, 4.0), (3.0, math.nan, 3.0)):
        assert _same_bits(_project_to_variety(p), np.array(p))


@given(
    p=trial_points,
    curves=st.tuples(st.sampled_from(SIMPLE_CURVES), st.sampled_from(SIMPLE_CURVES)),
    weights=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
)
def test_kerckhoff_local_model_equals_its_numpy_form_bit_for_bit(p, curves, weights):
    terms = [(weight, word_homology(word)) for weight, word in zip(weights, curves)]
    found, expected = fuchsian._reduced_model(terms, p), _numpy_reduced_model(terms, p)
    assert found[0] == expected[0] or math.isinf(found[0]) and math.isinf(expected[0])
    if math.isfinite(expected[0]):
        assert found[0].hex() == expected[0].hex()
        assert all(_same_bits(a, b) for a, b in zip(found[1:], expected[1:]))


@given(point=extreme_trace_points)
def test_group_set_up_equals_its_numpy_form_bit_for_bit(point):
    group = build_punctured_torus(point)
    cusp = _sl2(group, PuncturedTorusGroup.CUSP_WORD)
    assert group.cusp_trace() == float(np.trace(cusp))
    # tile_sides, with the cusp's fixed vector taken as numpy took it and moved in floats.
    shifted = cusp + np.eye(2)
    u, w = shifted[:, int(np.argmax(np.abs(shifted).sum(axis=0)))].tolist()
    vertices = []
    for word in ("", "a", "ba", "Aba"):
        (a, b), (c, d) = _sl2(group, word).tolist()
        v1, v2 = a * u + b * w, c * u + d * w
        vertices.append(np.array([(v1 * v1 + v2 * v2) / 2.0, v1 * v2, (v2 * v2 - v1 * v1) / 2.0]))
    columns = []
    for j in range(4):
        n = J3 @ np.cross(vertices[j - 1], vertices[j])
        facing = vertices[(j + 1) % 4] + vertices[(j + 2) % 4]
        n0, n1, n2 = n
        p0, p1, p2 = facing
        columns.append(n * math.copysign(1.0 / math.sqrt(n1 * n1 + n2 * n2 - n0 * n0), n1 * p1 + n2 * p2 - n0 * p0))
    assert _same_bits(np.array(group.tile_sides()), np.array(columns))
