"""Numeric monodromy checks along sampled paths in the complement.

The connection only needs integrals of d(alpha)/alpha, which telescope
into principal-branch logarithms of successive alpha ratios once every
step turns by less than pi/4; segments are bisected automatically
until that holds.  Scope is rank <= 2, where full matrices stay tiny
and every formula can be compared against the exact characters.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass, field

import numpy as np

from .arrangement import Arrangement

ON_HYPERPLANE_TOL = 1e-9
MAX_STEP_ARG = cmath.pi / 4
MAX_BISECTIONS = 48


@dataclass
class PathTrace:
    samples: list  # refined points, numpy complex vectors
    integrals: np.ndarray  # per hyperplane, continuous-branch value
    endpoint_element: int | None = None
    basepoint: np.ndarray | None = field(default=None, repr=False)


def _unit_alphas(a: Arrangement) -> np.ndarray:
    """Rows: alpha_H embedded and scaled to unit norm."""
    rows = np.array(
        [[x.embed() for x in h.alpha] for h in a.hyperplanes], dtype=complex
    )
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows


def _check_regular(alphas: np.ndarray, point):
    vals = alphas @ point
    if np.min(np.abs(vals)) <= ON_HYPERPLANE_TOL:
        raise ValueError("sample point lies on a hyperplane")
    return vals


def integrate_path(
    a: Arrangement,
    samples,
    endpoint_element: int | None = None,
    refine: bool = True,
) -> PathTrace:
    """Per-hyperplane integral of d(alpha)/alpha along the polyline.

    Each step contributes log(alpha(next)/alpha(prev)) on the
    principal branch; steps whose argument change reaches pi/4 are
    bisected (linear interpolation) when refine is on, rejected
    otherwise.  A step that cannot be refined within the bisection
    budget crosses a hyperplane.
    """
    pts = [np.asarray(s, dtype=complex) for s in samples]
    if len(pts) < 2:
        raise ValueError("a path needs at least two samples")
    alphas = _unit_alphas(a)
    out_pts = [pts[0]]
    vals_prev = _check_regular(alphas, pts[0])
    n_h = len(a.hyperplanes)
    total = np.zeros(n_h, dtype=complex)
    for target in pts[1:]:
        stack = [(out_pts[-1], target, 0)]
        while stack:
            lo, hi, depth = stack.pop()
            vals_hi = _check_regular(alphas, hi)
            steps = np.log(vals_hi / vals_prev)
            if np.max(np.abs(steps.imag)) < MAX_STEP_ARG:
                total += steps
                vals_prev = vals_hi
                out_pts.append(hi)
                continue
            if not refine:
                raise ValueError(
                    "step too coarse: argument change >= pi/4; refine the path"
                )
            if depth >= MAX_BISECTIONS:
                raise ValueError(
                    "segment cannot be refined; it crosses a hyperplane"
                )
            mid = (lo + hi) / 2
            stack.append((mid, hi, depth + 1))
            stack.append((lo, mid, depth + 1))
    return PathTrace(
        samples=out_pts,
        integrals=total,
        endpoint_element=endpoint_element,
        basepoint=pts[0],
    )


def concatenate(a: Arrangement, first: PathTrace, second: PathTrace) -> PathTrace:
    if not np.allclose(first.samples[-1], second.samples[0]):
        raise ValueError("paths do not concatenate")
    return PathTrace(
        samples=first.samples + second.samples[1:],
        integrals=first.integrals + second.integrals,
        endpoint_element=None,
        basepoint=first.basepoint,
    )


def monodromy_matrix(a: Arrangement, trace: PathTrace, h: complex) -> np.ndarray:
    """Permutation part of the endpoint element times the diagonal of
    exponentiated integrals: M[w(H), H] = exp(h * integral_H)."""
    if trace.endpoint_element is None:
        raise ValueError("trace has no endpoint group element")
    perm = a.root_action.perms[trace.endpoint_element]
    n_h = len(a.hyperplanes)
    m = np.zeros((n_h, n_h), dtype=complex)
    for i, j in enumerate(perm):
        m[j, i] = cmath.exp(h * trace.integrals[i])
    return m


def default_basepoint(a: Arrangement, seed: int = 0) -> np.ndarray:
    """A reproducible rational-coordinate regular point, chosen as the
    best margin among a small pseudo-random pool."""
    alphas = _unit_alphas(a)
    rng = random.Random(seed)
    best, best_margin = None, -1.0
    for _ in range(64):
        cand = np.array(
            [
                rng.randrange(-21, 22) / 7 + 1j * rng.randrange(-21, 22) / 13
                for _ in range(a.dim)
            ],
            dtype=complex,
        )
        norm = np.linalg.norm(cand)
        if norm < 1e-6:
            continue
        cand /= norm
        margin = float(np.min(np.abs(alphas @ cand)))
        if margin > best_margin:
            best, best_margin = cand, margin
    if best is None or best_margin <= 1e-3:
        raise ValueError("no regular basepoint found")
    return best


def _hermitian_geometry(a: Arrangement, hyp_index: int):
    fm = np.array(a.form.embed(), dtype=complex)
    e = np.array(
        [x.embed() for x in a.hyperplanes[hyp_index].root], dtype=complex
    )

    def pairing(u, v):
        return np.conj(u) @ fm @ v

    return e, pairing


def _waypoint(a: Arrangement, hyp_index: int, basepoint):
    """Decompose the basepoint across H and pick z0 = z0+ + eps z0-,
    with eps half the distance from z0+ to the nearest other
    hyperplane."""
    z = np.asarray(basepoint, dtype=complex)
    e, pairing = _hermitian_geometry(a, hyp_index)
    z_minus = e * (pairing(e, z) / pairing(e, e))
    z_plus = z - z_minus
    others = np.abs(_unit_alphas(a) @ z_plus)
    others = np.delete(others, hyp_index)
    dist = float(np.min(others)) if others.size else 1.0
    if dist <= ON_HYPERPLANE_TOL * 10:
        raise ValueError(
            "projection of the basepoint meets another hyperplane; "
            "no regular waypoint near this one"
        )
    nm = np.linalg.norm(z_minus)
    if nm <= ON_HYPERPLANE_TOL:
        raise ValueError("basepoint lies on the hyperplane")
    z0_minus = z_minus / nm * (dist / 2)
    return z_plus, z0_minus


def braided_reflection_path(
    a: Arrangement, hyp_index: int, basepoint, steps: int = 48
) -> PathTrace:
    """The local generator around H: go to a point near H, wind by
    2 pi / d_H in the normal line, come back through the image of the
    approach under the distinguished reflection."""
    h = a.hyperplanes[hyp_index]
    if h.distinguished_reflection is None:
        raise ValueError("hyperplane carries no distinguished reflection")
    z = np.asarray(basepoint, dtype=complex)
    z_plus, z0_minus = _waypoint(a, hyp_index, z)
    z0 = z_plus + z0_minus
    gamma0 = [z + (z0 - z) * t for t in np.linspace(0.0, 1.0, steps)]
    gamma1 = [
        z_plus + z0_minus * cmath.exp(2j * cmath.pi * t / h.d)
        for t in np.linspace(0.0, 1.0, steps)
    ]
    s = np.array(a.group.matrix(h.distinguished_reflection).embed(), dtype=complex)
    gamma2 = [s @ p for p in reversed(gamma0)]
    samples = gamma0 + gamma1[1:] + gamma2[1:]
    return integrate_path(
        a, samples, endpoint_element=h.distinguished_reflection
    )


def loop_around(
    a: Arrangement, hyp_index: int, basepoint, steps: int = 96
) -> PathTrace:
    """A closed loop winding once around H and around nothing else."""
    z = np.asarray(basepoint, dtype=complex)
    z_plus, z0_minus = _waypoint(a, hyp_index, z)
    z0 = z_plus + z0_minus
    gamma0 = [z + (z0 - z) * t for t in np.linspace(0.0, 1.0, steps)]
    circle = [
        z_plus + z0_minus * cmath.exp(2j * cmath.pi * t)
        for t in np.linspace(0.0, 1.0, steps)
    ]
    samples = gamma0 + circle[1:] + list(reversed(gamma0))[1:]
    identity = a.group.identity_index if a.group is not None else None
    return integrate_path(a, samples, endpoint_element=identity)


def central_loop(
    a: Arrangement, basepoint, theta: float, endpoint_element=None, steps: int = 96
) -> PathTrace:
    """The path t -> exp(i theta t) z; every integral equals i theta."""
    z = np.asarray(basepoint, dtype=complex)
    samples = [z * cmath.exp(1j * theta * t) for t in np.linspace(0.0, 1.0, steps)]
    return integrate_path(a, samples, endpoint_element=endpoint_element)


def straight_path_to(
    a: Arrangement, element_index: int, basepoint, steps: int = 48, seed: int = 0
) -> PathTrace:
    """Polyline from z to w.z: straight when regular, otherwise bent
    through a random regular midpoint (the straight segment to a
    central image can run through the origin)."""
    z = np.asarray(basepoint, dtype=complex)
    w = np.array(a.group.matrix(element_index).embed(), dtype=complex)
    target = w @ z
    alphas = _unit_alphas(a)
    line = [z + (target - z) * t for t in np.linspace(0.0, 1.0, steps)]
    try:
        return integrate_path(a, line, endpoint_element=element_index)
    except ValueError:
        pass
    rng = random.Random(seed ^ element_index)
    for _ in range(24):
        mid = np.array(
            [
                rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
                for _ in range(a.dim)
            ],
            dtype=complex,
        )
        if np.min(np.abs(alphas @ mid)) < 1e-3:
            continue
        samples = [z + (mid - z) * t for t in np.linspace(0.0, 1.0, steps)]
        samples += [mid + (target - mid) * t for t in np.linspace(0.0, 1.0, steps)][1:]
        try:
            return integrate_path(a, samples, endpoint_element=element_index)
        except ValueError:
            continue
    raise ValueError("no regular path to the image point found")
