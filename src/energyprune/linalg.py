"""SVD and nuclear-norm kernels, all in float64.

Every nuclear norm goes through :func:`nuclear_norms`: each matrix of a
stack is reduced to a = Q R by one numpy QR, and its nuclear norm is
tr(X^T R) for R's polar factor X, which a fixed schedule of six QDWH
steps computes for the whole stack at once (Nakatsukasa, Bai & Gygi
2010; Nakatsukasa & Higham 2013). Each step is one batched QR and one
batched matrix product; singular values under QDWH_L0 * |R|_F are only
partly counted. A whole layer's channels are one stack.

:func:`svd` goes through :func:`_jacobi`, one matrix at a time: a = Q R,
then R^T = Q2 R2 (Drmač & Veselić 2008), and one-sided Jacobi rotates
all n/2 disjoint column pairs of R2^T at once per round-robin round
(Brent & Luk 1985). The pairs sit in the two halves of the working
array's rows, and one fixed row gather (:func:`_ring`) seats the next
round's pairs. One QR completes U's columns for zero or negligible
singular values. SV_CLAMP_REL is ``svd``'s rule only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A matrix has converged after a full sweep in which every normalized
# off-diagonal column product is below this.
JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 60

# svd's singular values below this fraction of the largest are clamped
# to 0.
SV_CLAMP_REL = 1e-12


def _qdwh_schedule(ell: float) -> tuple:
    """The QDWH steps (a, b, c) that take every singular value in
    [ell, 1] to 1 (Nakatsukasa, Bai & Gygi 2010): the dynamically
    weighted Halley map x (a + b x^2) / (1 + c x^2), each step's weights
    chosen for the smallest value ell still has, which the step then
    moves up. Returns (steps, ell after the last step)."""
    steps = []
    while 1.0 - ell > 1e-15:
        ell2 = ell * ell
        g = (4.0 * (1.0 - ell2) / (ell2 * ell2)) ** (1.0 / 3.0)
        a = math.sqrt(1.0 + g) + 0.5 * math.sqrt(
            8.0 - 4.0 * g + 8.0 * (2.0 - ell2) / (ell2 * math.sqrt(1.0 + g)))
        b = (a - 1.0) ** 2 / 4.0
        steps.append((a, b, a + b - 1.0))
        ell = ell * (a + b * ell2) / (1.0 + (a + b - 1.0) * ell2)
    return tuple(steps), ell


# Nuclear norms: singular values at least QDWH_L0 * |R|_F reach 1 in the
# polar factor; smaller ones count in part.
QDWH_L0 = 1e-16
QDWH_STEPS, QDWH_L_END = _qdwh_schedule(QDWH_L0)


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class DomainError(ValueError):
    """Operand values are outside an operation's domain (NaN/inf)."""


class ConvergenceError(ArithmeticError):
    """Jacobi left a matrix unconverged after JACOBI_MAX_SWEEPS sweeps."""


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic RNG stream. PCG64 is counter-based and produces the
    same stream for the same seed on every platform."""
    return np.random.Generator(np.random.PCG64(seed))


def _pow2_scale(big: float) -> float:
    """The power of two that brings a largest magnitude ``big`` into
    [0.5, 1), its exponent clipped to +-1000 so that the scale stays a
    normal float (1 for 0). Scaling by it is exact, so a norm of the
    scaled entries, divided by it, has the unscaled bits wherever the
    unscaled squares neither overflow nor underflow. ``_stack_scales``
    applies the same rule to a whole stack at once."""
    return math.ldexp(1.0, -min(max(math.frexp(big)[1], -1000), 1000))


def _stack_scales(a: np.ndarray) -> np.ndarray:
    """``_pow2_scale`` of each matrix of a (C, m, n) stack."""
    exponent = np.frexp(np.abs(a).max(axis=(1, 2)))[1]
    return np.ldexp(1.0, -np.clip(exponent, -1000, 1000))


@dataclass(frozen=True)
class SvdResult:
    u: np.ndarray  # (m, r), orthonormal columns
    s: np.ndarray  # (r,), non-increasing, >= 0
    v: np.ndarray  # (n, r), orthonormal columns

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s) @ self.v.T


def _check_stack(a: np.ndarray) -> np.ndarray:
    """a as a float64 (C, m, n) stack, each matrix non-empty and finite."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 3:
        raise ShapeError(f"expected a (C, m, n) stack, got ndim={a.ndim}")
    if a.shape[1] < 1 or a.shape[2] < 1:
        raise ShapeError(f"empty matrices {a.shape[1:]}")
    bad = np.flatnonzero(~np.isfinite(a).all(axis=(1, 2)))
    if bad.size:
        raise DomainError(f"matrix {bad[0]} contains non-finite entries")
    return a


def _check_matrix(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={a.ndim}")
    return _check_stack(a[None])[0]


def _ring(n: int) -> np.ndarray:
    """The row gather of a round-robin tournament on n (even) rows
    (circle method): the row in seat k < n/2 meets the row in seat
    k + n/2, and ``x[_ring(n)]`` keeps row 0 and moves every other row
    one seat on around the ring 1 .. n/2 - 1, n - 1 .. n/2. After n - 1
    rounds every two rows have met once and each row is back in its
    seat."""
    ring = np.r_[1:n // 2, n - 1:n // 2 - 1:-1]
    gather = np.arange(n)
    gather[ring] = np.roll(ring, 1)
    return gather


def _jacobi(a: np.ndarray):
    """One-sided Jacobi SVD of a tall (m, n) matrix, m >= n.

    a is scaled by ``_pow2_scale`` and reduced to a = Q R, R^T = Q2 R2
    (both n x n). The columns of R2^T = R Q2 are closer to orthogonal
    than R's, and are rotated until mutually orthogonal in fewer sweeps:
    R2^T V = W. Returns (s, q, u, v) with a = q @ u @ diag(s) @ v.T and
    v = Q2 V, up to the columns of u for s = 0 or under the floor below,
    which are 0: s (n,) holds the singular values, non-increasing, those
    at most SV_CLAMP_REL of the largest set to 0. The sweeps stop once
    one leaves every column pair of W below JACOBI_TOL (or shorter than
    the floor below); the second QR changes how many sweeps that takes,
    not the test.
    """
    n = a.shape[1]
    scale = _pow2_scale(float(np.abs(a).max()))
    # a = Q R and R^T = Q2 R2, so a = Q R2^T Q2^T
    q, r = np.linalg.qr(a * scale)
    q2, r = np.linalg.qr(r.T)
    # A column shorter than SV_CLAMP_REL * |a|_F moves no singular value
    # by more than that. Rotating it only chases rounding noise (R of a
    # matrix with repeated columns is graded down towards underflow), so
    # it is left alone.
    floor = SV_CLAMP_REL ** 2 * np.einsum("ij,ij->", r, r)
    n2 = n + n % 2  # an odd n gets one zero column, which never rotates
    h = n2 // 2
    ring = _ring(n2)
    # column j of W (row j of R2) is a row of ``cols``, V's column j
    # follows it; each round rotates row k < h against row k + h, then
    # the ring gather seats the next round's pairs
    cols = np.zeros((n2, n + n2))
    cols[:n, :n] = r
    cols[:, n:] = np.eye(n2)
    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for _ in range(n2 - 1):
            w = cols[:, :n]  # W's rows; V's follow
            norms = np.einsum("kr,kr->k", w, w)
            app, aqq = norms[:h], norms[h:]
            apq = np.einsum("kr,kr->k", w[:h], w[h:])
            rot = (np.abs(apq) > JACOBI_TOL * np.sqrt(app * aqq)) \
                & (np.minimum(app, aqq) > floor)
            if rot.any():
                rotated = True
                # inner rotation, |angle| <= pi/4; a pair below the
                # tolerance gets t = 0, which is exactly c = 1, s = 0
                zeta = (aqq - app) / (2.0 * np.where(rot, apq, 1.0))
                t = np.where(rot, np.copysign(
                    1.0 / (np.abs(zeta) + np.hypot(1.0, zeta)), zeta), 0.0)
                cs = 1.0 / np.hypot(1.0, t)[:, None]
                sn = t[:, None] * cs
                wp, wq = cols[:h], cols[h:]
                newp = cs * wp - sn * wq
                wq *= cs
                wq += sn * wp
                wp[...] = newp
            cols = cols[ring]
        if not rotated:
            break
    else:
        raise ConvergenceError(
            f"unconverged after {JACOBI_MAX_SWEEPS} Jacobi sweeps")
    w = cols[:n, :n].T
    s = np.sqrt(np.einsum("ij,ij->j", w, w))
    order = np.argsort(-s, kind="stable")
    s = s[order]
    s = np.where(s <= SV_CLAMP_REL * s[0], 0.0, s)
    w = w[:, order]
    v = q2 @ cols[:n, n:2 * n].T[:, order]
    # a column left under the floor was never rotated against the rest,
    # so it is not orthogonal to them: its u column stays 0, for svd to
    # complete
    u = np.divide(w, s, out=np.zeros_like(w), where=s * s > floor)
    return s / scale, q, u, v


def svd(a: np.ndarray) -> SvdResult:
    """Jacobi SVD: a = u @ diag(s) @ v.T with r = min(m, n).

    Wide matrices are transposed internally and u/v swapped back.
    """
    a = _check_matrix(a)
    wide = a.shape[1] > a.shape[0]
    tall = a.T if wide else a
    s, q, u, v = _jacobi(tall)
    good = u.any(axis=0)
    if not good.all():
        # the trailing columns of Q in [u_good | I] = Q R' are an
        # orthonormal completion of u's good columns
        basis = np.linalg.qr(np.hstack([u[:, good], np.eye(len(s))]))[0]
        u[:, ~good] = basis[:, good.sum():]
    u = q @ u
    return SvdResult(u=v, s=s, v=u) if wide else SvdResult(u=u, s=s, v=v)


def singular_values(a: np.ndarray) -> np.ndarray:
    return svd(a).s


def nuclear_norms(stack: np.ndarray) -> np.ndarray:
    """Sum of singular values of each matrix of a (C, m, n) stack.

    Each matrix, transposed if wide and scaled by a power of two to a
    largest entry in [0.5, 1) (as far as the exponent range allows), is
    reduced to a = Q R. The sum is tr(X^T R) = sum_ij X_ij R_ij, where X
    is R's polar factor from the QDWH steps of ``QDWH_STEPS``: each step
    is one QR of [sqrt(c) X; I] = [Q1; Q2] R' and
    X <- (b/c) X + (a - b/c)/sqrt(c) Q1 Q2^T, from X = R / |R|_F. Every
    matrix takes the same steps, so a matrix's score does not depend on
    the other matrices of the stack.
    """
    stack = _check_stack(stack)
    if stack.shape[2] > stack.shape[1]:
        stack = stack.transpose(0, 2, 1)
    n = stack.shape[2]
    scale = _stack_scales(stack)
    # contiguous, so that the sums below run in the same order whatever
    # layout QR hands back for this stack; np.sum, not einsum, whose
    # order for large n depends on C
    r = np.ascontiguousarray(
        np.linalg.qr(stack * scale[:, None, None], mode="r"))
    if n == 1:  # a 1 x 1 polar factor is the sign
        return np.abs(r[:, 0, 0]) / scale
    fro = np.sqrt(np.sum(r * r, axis=(1, 2)))
    x = r / np.where(fro > 0.0, fro, 1.0)[:, None, None]  # 0 stays 0
    eye = np.broadcast_to(np.eye(n), r.shape)
    for a, b, c in QDWH_STEPS:
        q = np.linalg.qr(np.concatenate([math.sqrt(c) * x, eye], axis=1))[0]
        x = (b / c) * x + ((a - b / c) / math.sqrt(c)) \
            * (q[:, :n] @ q[:, n:].transpose(0, 2, 1))
    return np.sum(x * r, axis=(1, 2)) / scale


def nuclear_norm(a: np.ndarray) -> float:
    """Sum of singular values of a."""
    return float(nuclear_norms(_check_matrix(a)[None])[0])


def frobenius_norm(a: np.ndarray) -> float:
    """Square root of the sum of squared entries, summed with the entries
    scaled by ``_pow2_scale`` so that no square overflows or underflows."""
    a = _check_matrix(a)
    scale = _pow2_scale(float(np.abs(a).max()))
    a = a * scale
    return float(np.sqrt(np.sum(a * a))) / scale
