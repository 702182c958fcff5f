"""Pure-Python kernels for cyclotomic coefficient arithmetic.

These are the two hot loops of :mod:`reflarr.cyclo` (cyclic
convolution and reduction modulo the m-th cyclotomic polynomial).  They
operate on plain lists of Python ints, so results are exact for
arbitrary magnitudes.
"""

from __future__ import annotations


def conv_mod(a, b, m):
    """Cyclic convolution of integer coefficient vectors modulo x^m - 1."""
    out = [0] * m
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[(i + j) % m] += ai * bj
    return out


def poly_reduce(vec, m, phi):
    """Reduce ``vec`` (length m, exponent basis of zeta_m) modulo Phi_m.

    ``phi`` is the ascending integer coefficient list of the m-th
    cyclotomic polynomial (monic).  The result has support strictly
    below deg Phi_m and is the canonical representative in
    Q[x]/(Phi_m).  Mutates and returns ``vec``.
    """
    deg = len(phi) - 1
    for i in range(m - 1, deg - 1, -1):
        c = vec[i]
        if c:
            vec[i] = 0
            base = i - deg
            for k in range(deg):
                pk = phi[k]
                if pk:
                    vec[base + k] -= c * pk
    return vec


def mul_reduce(a, b, m, phi):
    """Multiply two canonical coefficient vectors and re-canonicalize."""
    return poly_reduce(conv_mod(a, b, m), m, phi)
