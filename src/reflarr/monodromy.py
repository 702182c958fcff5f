"""Numeric monodromy checks along sampled paths in the complement.

The connection only needs integrals of d(alpha)/alpha, which telescope
into principal-branch logarithms of successive alpha ratios once every
step turns by less than pi/4.  A path is an (N, dim) array of samples;
:func:`integrate_path` evaluates every unit alpha at every sample in one
matrix product and takes the turns of all N - 1 steps at once (the real
parts telescope), and only the steps whose turn reaches pi/4 are
bisected, one at a time.  Errors keep path order: the first sample on a
hyperplane or unrefinable step met while walking the path raises, as
"sample point lies on a hyperplane" or "segment cannot be refined" (a
coarse step that still turns by pi/4 after MAX_BISECTIONS halvings).

The unit alphas and the group's generators are embedded once per
arrangement (:func:`_embedded`, held weakly, so an arrangement carries
no cache and nothing is kept alive); an element's matrix is the product
of the embedded generators along its word.  A waypoint near H splits
the basepoint along H's root, the reflection's eigenline, so no
invariant hermitian form is built.  Scope is rank <= 2, where full
matrices stay tiny and every formula can be compared against the exact
characters.
"""

from __future__ import annotations

import cmath
import random
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .arrangement import Arrangement

ON_HYPERPLANE_TOL = 1e-9
MAX_STEP_ARG = cmath.pi / 4
MAX_BISECTIONS = 48

_ON_HYPERPLANE = "sample point lies on a hyperplane"
_CROSSING = "segment cannot be refined; it crosses a hyperplane"


@dataclass
class PathTrace:
    samples: np.ndarray  # (N, dim) refined points, complex
    integrals: np.ndarray  # per hyperplane, continuous-branch value
    endpoint_element: int | None = None


class _Embedded(NamedTuple):
    """One arrangement's exact data in complex doubles, read-only."""

    alphas: np.ndarray  # rows: alpha_H scaled to unit norm
    generators: tuple  # the group's generators, () without a group


_EMBEDDED = weakref.WeakKeyDictionary()


def _frozen(rows) -> np.ndarray:
    out = np.array(rows, dtype=complex)
    out.flags.writeable = False
    return out


def _embedded(a: Arrangement) -> _Embedded:
    """The embedding of a, made on first use and held only as long as
    a lives (nothing is written onto the arrangement)."""
    emb = _EMBEDDED.get(a)
    if emb is None:
        alphas = np.array(
            [[x.embed() for x in h.alpha] for h in a.hyperplanes], dtype=complex
        )
        alphas /= np.linalg.norm(alphas, axis=1, keepdims=True)
        gens = a.group.generators if a.group is not None else ()
        emb = _EMBEDDED[a] = _Embedded(
            _frozen(alphas),
            tuple(_frozen(s.embed()) for s in gens),
        )
    return emb


def _unit_alphas(a: Arrangement) -> np.ndarray:
    """Rows: alpha_H embedded and scaled to unit norm (read-only)."""
    return _embedded(a).alphas


def _element_matrix(a: Arrangement, i: int) -> np.ndarray:
    """elements[i] embedded, as the product of the embedded generators
    along its word (within a few ulps of ``g.matrix(i).embed()``)."""
    gens = _embedded(a).generators
    m = np.eye(a.dim, dtype=complex)
    for s in a.group.word(i):
        m = m @ gens[s]
    return m


def _check_regular(alphas: np.ndarray, point):
    vals = alphas @ point
    if np.min(np.abs(vals)) <= ON_HYPERPLANE_TOL:
        raise ValueError(_ON_HYPERPLANE)
    return vals


def _bisect(alphas: np.ndarray, lo, hi, vals_lo):
    """Refine one coarse step lo -> hi by bisection (linear
    interpolation) until every sub-step turns by less than pi/4: the
    points after lo up to hi, and the summed sub-step turns."""
    pts, total = [], np.zeros(len(alphas))
    vals_prev = vals_lo
    stack = [(lo, hi, 0)]
    while stack:
        lo, hi, depth = stack.pop()
        vals_hi = _check_regular(alphas, hi)
        turns = np.angle(vals_hi / vals_prev)
        if np.max(np.abs(turns)) < MAX_STEP_ARG:
            total += turns
            vals_prev = vals_hi
            pts.append(hi)
            continue
        if depth >= MAX_BISECTIONS:
            raise ValueError(_CROSSING)
        mid = (lo + hi) / 2
        stack.append((mid, hi, depth + 1))
        stack.append((lo, mid, depth + 1))
    return pts, total


def integrate_path(
    a: Arrangement, samples, endpoint_element: int | None = None
) -> PathTrace:
    """Per-hyperplane integral of d(alpha)/alpha along the polyline.

    Each step contributes log(alpha(next)/alpha(prev)) on the principal
    branch.  The real parts telescope to log|alpha(end)/alpha(start)|;
    the turns (imaginary parts) of all steps are taken in one array
    pass.  Steps that turn by pi/4 or more are bisected; one that cannot
    be refined within the bisection budget crosses a hyperplane.  The
    first fault in path order raises.
    """
    pts = np.asarray(samples, dtype=complex)
    if len(pts) < 2:
        raise ValueError("a path needs at least two samples")
    alphas = _unit_alphas(a)
    vals = pts @ alphas.T
    bad = np.flatnonzero(np.min(np.abs(vals), axis=1) <= ON_HYPERPLANE_TOL)
    # steps 0 .. stop-1 end at regular samples; step stop ends at the first bad one
    stop = bad[0] - 1 if bad.size else len(pts) - 1
    if stop < 0:
        raise ValueError(_ON_HYPERPLANE)
    turns = np.angle(vals[1 : stop + 1] / vals[:stop])
    coarse = np.flatnonzero(np.max(np.abs(turns), axis=1) >= MAX_STEP_ARG)
    turns[coarse] = 0
    total = turns.sum(axis=0)
    pieces, done = [], 0
    for k in coarse:
        sub, sub_total = _bisect(alphas, pts[k], pts[k + 1], vals[k])
        total += sub_total
        pieces += [pts[done : k + 1], np.reshape(sub, (-1, pts.shape[1]))]
        done = k + 2
    if stop < len(pts) - 1:
        raise ValueError(_ON_HYPERPLANE)
    if pieces:
        pts = np.concatenate([*pieces, pts[done:]])
    return PathTrace(
        samples=pts,
        integrals=np.log(np.abs(vals[-1] / vals[0])) + 1j * total,
        endpoint_element=endpoint_element,
    )


def concatenate(a: Arrangement, first: PathTrace, second: PathTrace) -> PathTrace:
    if not np.allclose(first.samples[-1], second.samples[0]):
        raise ValueError("paths do not concatenate")
    return PathTrace(
        samples=np.concatenate([first.samples, second.samples[1:]]),
        integrals=first.integrals + second.integrals,
        endpoint_element=None,
    )


def monodromy_matrix(a: Arrangement, trace: PathTrace, h: complex) -> np.ndarray:
    """Permutation part of the endpoint element times the diagonal of
    exponentiated integrals: M[w(H), H] = exp(h * integral_H)."""
    if trace.endpoint_element is None:
        raise ValueError("trace has no endpoint group element")
    perm = a.row(trace.endpoint_element)[0]
    n_h = len(a.hyperplanes)
    m = np.zeros((n_h, n_h), dtype=complex)
    for i, j in enumerate(perm):
        m[j, i] = cmath.exp(h * trace.integrals[i])
    return m


def monodromy_trace(a: Arrangement, trace: PathTrace, h: complex) -> complex:
    """The trace of :func:`monodromy_matrix`, without the matrix: the sum
    of exp(h * integral_H) over the H that the endpoint element fixes,
    in hyperplane order."""
    if trace.endpoint_element is None:
        raise ValueError("trace has no endpoint group element")
    perm = a.row(trace.endpoint_element)[0]
    return sum((cmath.exp(h * trace.integrals[i]) for i, j in enumerate(perm) if i == j), 0j)


def default_basepoint(a: Arrangement, seed: int = 0) -> np.ndarray:
    """A reproducible rational-coordinate regular point, chosen as the
    best margin (the first on a tie) among a small pseudo-random pool.

    Coordinates are a/7 + i b/13 with integers a, b.  The zero vector
    is refused, and in rank >= 2 so is a candidate whose real and
    imaginary parts are parallel (a_i b_j = a_j b_i for all i, j): it is
    a complex multiple of a real vector, so for a real arrangement every
    ratio of two alphas is real on it and a straight path from it can
    meet a hyperplane.
    """
    alphas = _unit_alphas(a)
    rng = random.Random(seed)
    draws = np.array([rng.randrange(-21, 22) for _ in range(64 * 2 * a.dim)])
    re, im = draws.reshape(64, a.dim, 2).transpose(2, 0, 1)
    if a.dim > 1:
        refused = np.all(re[:, :, None] * im[:, None, :] == re[:, None, :] * im[:, :, None], axis=(1, 2))
    else:
        refused = (re[:, 0] == 0) & (im[:, 0] == 0)
    cands = (re / 7 + 1j * im / 13)[~refused]
    if not len(cands):
        raise ValueError("no regular basepoint found")
    cands /= np.linalg.norm(cands, axis=1, keepdims=True)
    margins = np.min(np.abs(cands @ alphas.T), axis=1)
    best = int(np.argmax(margins))
    if margins[best] <= 1e-3:
        raise ValueError("no regular basepoint found")
    return cands[best]


def _waypoint(a: Arrangement, hyp_index: int, basepoint):
    """Split the basepoint as z = z+ + z- with z+ on H and z- on its
    root r (the reflection's eigenline), z- = r alpha(z) / alpha(r), and
    pick z0 = z+ + eps z-/|z-|, with eps half the distance from z+ to
    the nearest other hyperplane."""
    z = np.asarray(basepoint, dtype=complex)
    alphas = _unit_alphas(a)
    r = np.array([x.embed() for x in a.hyperplanes[hyp_index].root], dtype=complex)
    z_minus = r * ((alphas[hyp_index] @ z) / (alphas[hyp_index] @ r))
    z_plus = z - z_minus
    others = np.delete(np.abs(alphas @ z_plus), hyp_index)
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


def _segment(p, q, steps: int) -> np.ndarray:
    """steps evenly spaced samples from p to q, as rows."""
    return p + (q - p) * np.linspace(0.0, 1.0, steps)[:, None]


def _arc(center, radius_vec, turn: float, steps: int) -> np.ndarray:
    """center + radius_vec exp(i turn t), t evenly spaced in [0, 1], as rows."""
    return center + radius_vec * np.exp(1j * turn * np.linspace(0.0, 1.0, steps))[:, None]


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
    gamma0 = _segment(z, z_plus + z0_minus, steps)
    gamma1 = _arc(z_plus, z0_minus, 2 * cmath.pi / h.d, steps)
    s = _element_matrix(a, h.distinguished_reflection)
    gamma2 = gamma0[::-1] @ s.T
    samples = np.concatenate([gamma0, gamma1[1:], gamma2[1:]])
    return integrate_path(
        a, samples, endpoint_element=h.distinguished_reflection
    )


def loop_around(
    a: Arrangement, hyp_index: int, basepoint, steps: int = 96
) -> PathTrace:
    """A closed loop winding once around H and around nothing else."""
    z = np.asarray(basepoint, dtype=complex)
    z_plus, z0_minus = _waypoint(a, hyp_index, z)
    gamma0 = _segment(z, z_plus + z0_minus, steps)
    circle = _arc(z_plus, z0_minus, 2 * cmath.pi, steps)
    samples = np.concatenate([gamma0, circle[1:], gamma0[-2::-1]])
    identity = a.group.identity_index if a.group is not None else None
    return integrate_path(a, samples, endpoint_element=identity)


def central_loop(
    a: Arrangement, basepoint, theta: float, endpoint_element=None, steps: int = 96
) -> PathTrace:
    """The path t -> exp(i theta t) z; every integral equals i theta."""
    z = np.asarray(basepoint, dtype=complex)
    samples = _arc(0, z, theta, steps)
    return integrate_path(a, samples, endpoint_element=endpoint_element)


def straight_path_to(
    a: Arrangement, element_index: int, basepoint, steps: int = 48, seed: int = 0
) -> PathTrace:
    """Polyline from z to w.z: straight when regular, otherwise bent
    through a random regular midpoint (the straight segment to a
    central image can run through the origin)."""
    z = np.asarray(basepoint, dtype=complex)
    target = _element_matrix(a, element_index) @ z
    alphas = _unit_alphas(a)
    try:
        return integrate_path(
            a, _segment(z, target, steps), endpoint_element=element_index
        )
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
        samples = np.concatenate(
            [_segment(z, mid, steps), _segment(mid, target, steps)[1:]]
        )
        try:
            return integrate_path(a, samples, endpoint_element=element_index)
        except ValueError:
            continue
    raise ValueError("no regular path to the image point found")
