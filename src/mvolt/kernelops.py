"""The symmetrized resolvent of the second kind of an atomic kernel, as a flow.

The resolvent R of a kernel K solves K * R + R * K = K - R, where ``*`` is
the time convolution (f * g)(t) = int_0^t f(t-s) g(s) ds.

For an atomic kernel K(t) = sum_j e^{-x_j t} nu_j, R is read off a linear
ODE.  With z_i(t) = int_0^t e^{-x_i (t-s)} R(s) ds and w_j = e^{-x_j t} nu_j,

    z' = (-diag(x) (x) I - 1_k (x) P) z + 1_k (x) sum_j w_j,
    w_j' = -x_j w_j,     R = sum_j w_j - P z,

with P the pairing of :func:`jumps.lift_operator`, so the z block is the lift
operator of the measure with weights -nu.  :func:`atomic_resolvent` reads R
off the exponential of this generator, a matrix of side 2 k d^2.
"""

from __future__ import annotations

import numpy as np

from .jumps import lift_operator
from .measures import AtomicMatrixMeasure


def resolvent_generator(measure: AtomicMatrixMeasure):
    """Generator M, start state s0 and readout C of the resolvent flow of
    the measure's kernel: vec R(t) = C e^{M t} s0 on the row-major state
    (vec z_1, ..., vec z_k, vec w_1, ..., vec w_k), z(0) = 0, w(0) = nu."""
    k, n = measure.k, measure.d * measure.d
    lin, neg_pairing = lift_operator(AtomicMatrixMeasure(measure.nodes, -measure.weights))
    sum_w = np.tile(np.eye(n), (1, k))
    M = np.block([[lin, np.tile(sum_w, (k, 1))],
                  [np.zeros((k * n, k * n)), np.diag(-np.repeat(measure.nodes, n))]])
    start = np.concatenate([np.zeros(k * n), measure.weights.reshape(-1)])
    return M, start, np.hstack([neg_pairing, sum_w])


def atomic_resolvent(measure: AtomicMatrixMeasure, times) -> np.ndarray:
    """The exact resolvent R(t), shape (len(times), d, d), of an atomic kernel."""
    from scipy.linalg import expm  # loaded at first use: slow to import

    M, start, readout = resolvent_generator(measure)
    t = np.asarray(times, dtype=float).reshape(-1)
    return (expm(M * t[:, None, None]) @ start @ readout.T).reshape(-1, measure.d, measure.d)
