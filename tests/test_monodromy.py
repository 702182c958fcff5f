import cmath
import itertools
import random

import numpy as np
import pytest

from reflarr import monodromy
from reflarr.arrangement import Arrangement
from reflarr.catalog import GroupSpec, build
from reflarr.monodromy import (
    MAX_BISECTIONS,
    MAX_STEP_ARG,
    ON_HYPERPLANE_TOL,
    PathTrace,
    braided_reflection_path,
    central_loop,
    concatenate,
    default_basepoint,
    integrate_path,
    loop_around,
    monodromy_matrix,
    monodromy_trace,
    straight_path_to,
)
from reflarr.repfamily import chi

TWO_PI_I = 2j * cmath.pi


@pytest.fixture(scope="module")
def g4():
    return build(GroupSpec.exceptional(4))


@pytest.fixture(scope="module")
def g12():
    return build(GroupSpec.exceptional(12))


def _circle(radius=1.0, steps=40, closed=True):
    ts = np.linspace(0.0, 1.0, steps)
    pts = [np.array([radius * cmath.exp(2j * cmath.pi * t)]) for t in ts]
    return pts if closed else pts[:-1]


def _sorted_spectrum(m):
    ev = np.linalg.eigvals(m)
    return sorted(ev, key=lambda z: (round(z.real, 6), round(z.imag, 6)))


class TestIntegrate:
    def test_unit_circle_winding(self):
        arr = Arrangement.from_covectors([[1]])
        tr = integrate_path(arr, _circle())
        assert abs(tr.integrals[0] - TWO_PI_I) < 1e-8

    def test_coarse_step_refined_automatically(self):
        arr = Arrangement.from_covectors([[1]])
        tr = integrate_path(arr, _circle(steps=5))
        assert abs(tr.integrals[0] - TWO_PI_I) < 1e-8

    def test_sample_on_hyperplane_rejected(self):
        arr = Arrangement.from_covectors([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            integrate_path(arr, [np.array([1, 1]), np.array([0, 1])])

    def test_crossing_segment_rejected(self):
        arr = Arrangement.from_covectors([[1]])
        # endpoints on opposite sides of the hyperplane along the reals
        with pytest.raises(ValueError):
            integrate_path(arr, [np.array([1.0]), np.array([-1.0])])

    def test_concatenation_additivity(self):
        arr = Arrangement.from_covectors([[1]])
        pts = _circle(steps=81)
        first = integrate_path(arr, pts[:41])
        second = integrate_path(arr, pts[40:])
        joined = concatenate(arr, first, second)
        full = integrate_path(arr, pts)
        assert abs(joined.integrals[0] - full.integrals[0]) < 1e-9

    def test_two_sample_minimum(self):
        arr = Arrangement.from_covectors([[1]])
        with pytest.raises(ValueError):
            integrate_path(arr, [np.array([1.0])])


def _reference_integrals(a, samples):
    """Sample-by-sample integration: one matvec and one logarithm per
    step, each coarse step bisected depth-first; (points, integrals)."""
    alphas = monodromy._unit_alphas(a)

    def regular(p):
        vals = alphas @ p
        if np.min(np.abs(vals)) <= ON_HYPERPLANE_TOL:
            raise ValueError("sample point lies on a hyperplane")
        return vals

    pts = [np.asarray(p, dtype=complex) for p in samples]
    out, vals_prev = [pts[0]], regular(pts[0])
    total = np.zeros(len(alphas), dtype=complex)
    for target in pts[1:]:
        stack = [(out[-1], target, 0)]
        while stack:
            lo, hi, depth = stack.pop()
            vals_hi = regular(hi)
            steps = np.log(vals_hi / vals_prev)
            if np.max(np.abs(steps.imag)) < MAX_STEP_ARG:
                total, vals_prev = total + steps, vals_hi
                out.append(hi)
                continue
            assert depth < MAX_BISECTIONS
            mid = (lo + hi) / 2
            stack += [(mid, hi, depth + 1), (lo, mid, depth + 1)]
    return np.array(out), total


class TestArrayIntegrator:
    """integrate_path against the step-by-step reference, on the paths
    the builders hand it."""

    @pytest.fixture()
    def captured(self, monkeypatch):
        calls = []
        real = monodromy.integrate_path

        def spy(a, samples, *args, **kwargs):
            tr = real(a, samples, *args, **kwargs)
            calls.append((a, np.array(samples), tr))
            return tr

        monkeypatch.setattr(monodromy, "integrate_path", spy)
        return calls

    def _agree(self, calls):
        assert calls
        for a, samples, tr in calls:
            pts, total = _reference_integrals(a, samples)
            assert tr.samples.shape == pts.shape
            assert np.allclose(tr.samples, pts, rtol=0, atol=1e-12)
            assert np.allclose(tr.integrals, total, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("fixture", ["g4", "g12"])
    def test_loops_and_braided_paths(self, fixture, captured, request):
        arr = request.getfixturevalue(fixture).arrangement
        for seed in (0, 3):
            z = default_basepoint(arr, seed=seed)
            for k in range(len(arr)):
                loop_around(arr, k, z)
                braided_reflection_path(arr, k, z)
        self._agree(captured)

    @pytest.mark.parametrize("fixture", ["g4", "g12"])
    def test_straight_paths(self, fixture, captured, request):
        built = request.getfixturevalue(fixture)
        z = default_basepoint(built.arrangement, seed=5)
        for wi in range(built.group.order):
            straight_path_to(built.arrangement, wi, z, seed=5)
        self._agree(captured)

    def test_coarse_circle_is_bisected(self):
        arr = Arrangement.from_covectors([[1]])
        samples = _circle(steps=5)
        tr = integrate_path(arr, samples)
        pts, total = _reference_integrals(arr, samples)
        assert len(pts) > len(samples)
        assert np.allclose(tr.samples, pts, rtol=0, atol=1e-12)
        assert abs(tr.integrals[0] - total[0]) < 1e-12


class TestErrorPrecedence:
    """The first fault met walking the path in order is the one raised."""

    def test_coarse_step_before_sample_on_hyperplane(self):
        arr = Arrangement.from_covectors([[1]])
        samples = [np.array([1.0]), np.array([1j]), np.array([0.0])]
        with pytest.raises(ValueError, match="lies on a hyperplane"):
            integrate_path(arr, samples)

    def test_sample_on_hyperplane_before_coarse_step(self):
        arr = Arrangement.from_covectors([[1]])
        samples = [np.array([1.0]), np.array([0.0]), np.array([1j]), np.array([-1.0])]
        with pytest.raises(ValueError, match="lies on a hyperplane"):
            integrate_path(arr, samples)

    def test_first_sample_on_hyperplane(self):
        arr = Arrangement.from_covectors([[1]])
        with pytest.raises(ValueError, match="lies on a hyperplane"):
            integrate_path(arr, [np.array([0.0]), np.array([1j])])

    def test_crossing_cannot_be_refined(self):
        # no bisection point of this long real segment comes within the
        # on-hyperplane tolerance of 0 before the budget runs out
        arr = Arrangement.from_covectors([[1]])
        samples = [np.array([1.0]), np.array([3e8]), np.array([-7e8]), np.array([0.0])]
        with pytest.raises(ValueError, match="cannot be refined"):
            integrate_path(arr, samples)


class TestWaypoint:
    @pytest.mark.parametrize(
        "spec",
        [GroupSpec.exceptional(4), GroupSpec.exceptional(12), GroupSpec.coxeter("B", 2),
         GroupSpec.imprimitive(3, 1, 2)],
        ids=["G4", "G12", "B2", "G(3,1,2)"],
    )
    def test_root_split_is_the_orthogonal_projection(self, spec):
        # the reference: z- = e (e|z)/(e|e) under the invariant form F
        built = build(spec)
        arr = built.arrangement
        f = np.array(built.group.invariant_hermitian_form.embed(), dtype=complex)
        for seed in (0, 1, 2):
            z = default_basepoint(arr, seed=seed)
            for k, h in enumerate(arr.hyperplanes):
                e = np.array([x.embed() for x in h.root], dtype=complex)
                z_minus = e * ((e.conj() @ f @ z) / (e.conj() @ f @ e))
                z_plus, z0_minus = monodromy._waypoint(arr, k, z)
                assert np.allclose(z_plus, z - z_minus, rtol=0, atol=1e-12)
                unit = z_minus / np.linalg.norm(z_minus)
                assert np.allclose(z0_minus / np.linalg.norm(z0_minus), unit, rtol=0, atol=1e-12)


class TestWordProduct:
    @pytest.mark.parametrize("fixture", ["g4", "g12"])
    def test_matches_exact_matrix(self, fixture, request):
        built = request.getfixturevalue(fixture)
        g, arr = built.group, built.arrangement
        for i in range(g.order):
            exact = np.array(g.matrix(i).embed(), dtype=complex)
            assert np.allclose(monodromy._element_matrix(arr, i), exact, rtol=0, atol=1e-12)


class TestLoops:
    def test_loop_around_one_hyperplane(self, g4):
        arr = g4.arrangement
        z = default_basepoint(arr, seed=0)
        tr = loop_around(arr, 0, z)
        winding = tr.integrals / TWO_PI_I
        assert abs(winding[0] - 1) < 1e-6
        assert all(abs(w) < 1e-6 for w in winding[1:])

    def test_closed_loops_quantized(self, g12):
        arr = g12.arrangement
        z = default_basepoint(arr, seed=2)
        for k in (0, 3, 7):
            tr = loop_around(arr, k, z)
            for v in tr.integrals / TWO_PI_I:
                assert abs(v - round(v.real)) < 1e-6

    def test_central_loop_constant_integrals(self, g4):
        arr = g4.arrangement
        z = default_basepoint(arr, seed=0)
        tr = central_loop(arr, z, cmath.pi)
        assert np.allclose(tr.integrals, 1j * cmath.pi, atol=1e-8)

    def test_g4_central_minus_identity(self, g4):
        g, arr = g4.group, g4.arrangement
        z = default_basepoint(arr, seed=0)
        minus = next(i for i in g.center if i != g.identity_index)
        tr = central_loop(arr, z, cmath.pi, endpoint_element=minus)
        m = monodromy_matrix(arr, tr, 1.0)
        assert np.allclose(m, -np.eye(4), atol=1e-6)


class TestBraidedReflection:
    def test_b2_coordinate_hyperplane(self):
        b2 = build(GroupSpec.imprimitive(2, 1, 2))
        arr = b2.arrangement
        coord = [
            i
            for i, h in enumerate(arr.hyperplanes)
            if sum(1 for x in h.alpha if not x.is_zero()) == 1
        ]
        z = default_basepoint(arr, seed=0)
        tr = braided_reflection_path(arr, coord[0], z)
        assert abs(tr.integrals[coord[0]] - 1j * cmath.pi) < 1e-6  # d_H = 2
        # the other coordinate hyperplane has an orthogonal root
        assert abs(tr.integrals[coord[1]]) < 1e-6

    def test_g4_local_eigenvalue(self, g4):
        arr = g4.arrangement
        z = default_basepoint(arr, seed=1)
        tr = braided_reflection_path(arr, 0, z)
        assert abs(tr.integrals[0] - TWO_PI_I / 3) < 1e-6  # d_H = 3
        m = monodromy_matrix(arr, tr, 1.0)
        assert abs(m[0, 0] - cmath.exp(TWO_PI_I / 3)) < 1e-6

    def test_g4_period_spectrum(self, g4):
        # at h = kappa = 6 the braided reflection matches the h = 0 image
        arr = g4.arrangement
        z = default_basepoint(arr, seed=1)
        tr = braided_reflection_path(arr, 0, z)
        m6 = monodromy_matrix(arr, tr, 6.0)
        m0 = monodromy_matrix(arr, tr, 0.0)
        for a, b in zip(_sorted_spectrum(m6), _sorted_spectrum(m0)):
            assert abs(a - b) < 1e-5

    def test_h0_is_permutation_matrix(self, g4):
        arr = g4.arrangement
        z = default_basepoint(arr, seed=1)
        m = monodromy_matrix(arr, braided_reflection_path(arr, 0, z), 0.0)
        assert np.allclose(np.abs(m[m != 0]), 1.0)
        assert np.allclose(m @ m.conj().T, np.eye(len(arr)), atol=1e-12)


class TestEigenvalueLemma:
    def test_integral_in_theta_class(self, g4):
        # path z -> w.z with w e_H = exp(i theta) e_H gives
        # integral in i theta + 2 pi i Z
        from reflarr.linalg import proportionality

        g, arr = g4.group, g4.arrangement
        z = default_basepoint(arr, seed=4)
        rng = random.Random(11)
        for _ in range(8):
            wi = rng.randrange(g.order)
            tr = straight_path_to(arr, wi, z)
            w = g.elements[wi]
            for k, h in enumerate(arr.hyperplanes):
                c = proportionality(w.matvec(h.root), h.root)
                if c is None:
                    continue
                theta = cmath.phase(c.embed())
                frac = (tr.integrals[k] - 1j * theta) / TWO_PI_I
                assert abs(frac - round(frac.real)) < 1e-6


class TestTraceAgreement:
    @pytest.mark.parametrize(
        "spec",
        [
            GroupSpec.exceptional(4),
            GroupSpec.exceptional(12),
            GroupSpec.imprimitive(1, 4, 2),
        ],
    )
    def test_traces_match_chi(self, spec):
        built = build(spec)
        g, arr = built.group, built.arrangement
        z = default_basepoint(arr, seed=3)
        rng = random.Random(7)
        chis = {h: chi(g, arr, h) for h in (0, 1, 2)}
        for _ in range(20):
            wi = rng.randrange(g.order)
            tr = straight_path_to(arr, wi, z)
            for h in (0, 1, 2):
                t = np.trace(monodromy_matrix(arr, tr, h))
                assert abs(t - chis[h].at(wi).embed()) < 1e-5

    @pytest.mark.parametrize(
        "spec", [GroupSpec.exceptional(4), GroupSpec.exceptional(12)], ids=["G4", "G12"]
    )
    def test_trace_without_the_matrix(self, spec):
        arr = build(spec).arrangement
        z = default_basepoint(arr, seed=3)
        for wi in random.Random(7).sample(range(arr.group.order), 10):
            tr = straight_path_to(arr, wi, z)
            for h in (0, 1, 2, 0.5j):
                t = np.trace(monodromy_matrix(arr, tr, h))
                assert abs(monodromy_trace(arr, tr, h) - t) < 1e-12
        with pytest.raises(ValueError):
            monodromy_trace(arr, central_loop(arr, z, 0.5), 1.0)


class TestBasepoint:
    def test_deterministic(self, g4):
        arr = g4.arrangement
        assert np.array_equal(
            default_basepoint(arr, seed=5), default_basepoint(arr, seed=5)
        )

    def test_regular(self, g12):
        arr = g12.arrangement
        from reflarr.monodromy import _unit_alphas

        z = default_basepoint(arr, seed=0)
        assert np.min(np.abs(_unit_alphas(arr) @ z)) > 1e-3

    # on these seeds the best candidate was a complex multiple of a real
    # vector, where every alpha ratio of a real arrangement is real
    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("seed", [10, 25, 32, 59, 101, 138, 145, 186])
    def test_real_direction_refused(self, n, seed):
        from reflarr import cli

        built = build(GroupSpec.coxeter("I2", n))
        z = default_basepoint(built.arrangement, seed=seed)
        assert np.linalg.matrix_rank(np.array([z.real, z.imag])) == 2
        checks = cli._run_checks(built, ("monodromy",), seed)
        assert [c["pass"] for c in checks] == [True]

    @pytest.mark.parametrize("d", [2, 3])
    def test_rank_one_keeps_its_real_directions(self, d):
        # in rank 1 every point is a complex multiple of a real one
        from reflarr import cli

        built = build(GroupSpec.imprimitive(d, 1, 1))
        checks = cli._run_checks(built, ("monodromy",), 0)
        assert [c["pass"] for c in checks] == [True]

    @staticmethod
    def _one_at_a_time(arr, seed):
        """The pool scored candidate by candidate, in rank >= 2: strict
        improvement keeps the first of equal margins.  (In rank 1 every
        unit candidate's margin is 1 up to rounding.)"""
        from reflarr.monodromy import _unit_alphas

        rng, best, best_margin = random.Random(seed), None, -1.0
        for _ in range(64):
            ab = [(rng.randrange(-21, 22), rng.randrange(-21, 22)) for _ in range(arr.dim)]
            if all(a * d == b * c for (a, b), (c, d) in itertools.combinations(ab, 2)):
                continue  # parallel real and imaginary parts, or zero
            cand = np.array([a / 7 + 1j * b / 13 for a, b in ab])
            cand /= np.linalg.norm(cand)
            margin = np.min(np.abs(_unit_alphas(arr) @ cand))
            if margin > best_margin:
                best, best_margin = cand, margin
        return best

    @pytest.mark.parametrize(
        "spec",
        [GroupSpec.exceptional(4), GroupSpec.exceptional(12), GroupSpec.coxeter("I2", 6),
         GroupSpec.coxeter("B", 3)],
        ids=["G4", "G12", "I2(6)", "B3"],
    )
    def test_one_product_matches_one_at_a_time(self, spec):
        arr = build(spec).arrangement
        for seed in (*range(12), 10, 25):
            z = default_basepoint(arr, seed=seed)
            assert np.allclose(z, self._one_at_a_time(arr, seed), rtol=0, atol=1e-15)

    def test_no_cache_written_onto_the_arrangement(self):
        from reflarr import cli

        built = build(GroupSpec.exceptional(4))
        checks = cli._run_checks(built, ("monodromy",), 7)
        assert [c["pass"] for c in checks] == [True]
        assert "_unit_alphas" not in vars(built.arrangement)

    def test_no_endpoint_rejected(self, g4):
        arr = g4.arrangement
        z = default_basepoint(arr, seed=0)
        tr = central_loop(arr, z, 0.5)
        with pytest.raises(ValueError):
            monodromy_matrix(arr, tr, 1.0)
