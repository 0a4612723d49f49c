"""SVD and nuclear-norm kernels, all in float64.

Every SVD and nuclear norm goes through one kernel, :func:`_jacobi`: a
stack of tall matrices is reduced to triangular factors by two QR steps
(a = Q R, then R^T = Q2 R2, Drmač & Veselić 2008), and one-sided Jacobi
rotates all n/2 disjoint column pairs of every R2^T at once per
round-robin round (Brent & Luk 1985). The rows of the working array
are laid out so that each round's pairs sit in two halves, rotated in
place, and one row permutation per round moves on to the next round's
pairs. A whole layer's channels are one stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# A matrix has converged after a full sweep in which every normalized
# off-diagonal column product is below this.
JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 60

# Singular values below this fraction of the largest are clamped to 0.
SV_CLAMP_REL = 1e-12


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
    unscaled squares neither overflow nor underflow. ``_jacobi`` applies
    the same rule to a whole stack at once."""
    return math.ldexp(1.0, -min(max(math.frexp(big)[1], -1000), 1000))


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


@lru_cache(maxsize=None)
def _round_robin(n: int) -> tuple:
    """The n - 1 rounds of a round-robin tournament on n (even) columns,
    each as (p, q) index arrays of n/2 disjoint pairs (circle method)."""
    ring = list(range(n))
    rounds = []
    for _ in range(n - 1):
        pairs = sorted(sorted(pr) for pr in zip(ring[:n // 2], ring[::-1]))
        rounds.append((np.array([p for p, _ in pairs]),
                       np.array([q for _, q in pairs])))
        ring = ring[:1] + ring[-1:] + ring[1:-1]
    return tuple(rounds)


@lru_cache(maxsize=None)
def _pair_layout(n: int) -> tuple:
    """Row layouts that put each round-robin round's pairs in two halves.

    Returns (order, perms, inverse): ``order`` is round 0's concat(p, q);
    ``perms[r]`` takes rows laid out in round r's concat(p, q) to round
    r + 1's (the last one back to round 0's), so ``x[:, perms[r]]``
    moves to the next round; ``inverse`` undoes ``order``."""
    orders = [np.concatenate(pq) for pq in _round_robin(n)]
    perms = tuple(np.argsort(a)[b]
                  for a, b in zip(orders, orders[1:] + orders[:1]))
    return orders[0], perms, np.argsort(orders[0])


def _jacobi(a: np.ndarray, want_v: bool):
    """One-sided Jacobi SVD of a (C, m, n) stack of tall (m >= n) matrices.

    Each matrix is scaled by a power of two to a largest entry in
    [0.5, 1) (as far as the exponent range allows) and reduced to
    a = Q R, R^T = Q2 R2 (both n x n). The columns of R2^T = R Q2 are
    closer to orthogonal than R's, and are rotated until mutually
    orthogonal in fewer sweeps: R2^T V = W. Returns (s, q, u, v): s
    (C, n) holds each matrix's singular values, non-increasing, those at
    most SV_CLAMP_REL of the largest set to 0. With ``want_v``,
    a = q @ u @ diag(s) @ v.T with v = Q2 V, up to the columns of u for
    s = 0 or under the floor below, which are 0; else q, u and v are
    None. A matrix has converged, and stops changing, once a sweep leaves
    every column pair of W below JACOBI_TOL (or shorter than the floor
    below); the second QR changes how many sweeps that takes, not the
    test. So a matrix's result does not depend on the other matrices of
    the stack.
    """
    c, _, n = a.shape
    exponent = np.frexp(np.abs(a).max(axis=(1, 2)))[1]
    scale = np.ldexp(1.0, -np.clip(exponent, -1000, 1000))
    a = a * scale[:, None, None]
    # a = Q R and R^T = Q2 R2, so a = Q R2^T Q2^T
    if want_v:
        q, r = np.linalg.qr(a)
        q2, r = np.linalg.qr(r.transpose(0, 2, 1))
    else:
        q = None
        r = np.linalg.qr(np.linalg.qr(a, mode="r").transpose(0, 2, 1),
                         mode="r")
    # A column shorter than SV_CLAMP_REL * |a|_F moves no singular value
    # by more than that. Rotating it only chases rounding noise (R of a
    # matrix with repeated columns is graded down towards underflow), so
    # it is left alone.
    floor = SV_CLAMP_REL ** 2 * np.einsum("cij,cij->c", r, r)[:, None]
    n2 = n + n % 2  # an odd n gets one zero column, which never rotates
    h = n2 // 2
    start, perms, restore = _pair_layout(n2)
    # column j of W (row j of R2) is a row of ``cols``, V's column j
    # follows it; the rows are kept in the current round's concat(p, q),
    # so row k < h is paired with row k + h
    cols = np.zeros((c, n2, n + n2 if want_v else n))
    cols[:, :n, :n] = r
    if want_v:
        cols[:, :, n:] = np.eye(n2)
    cols = cols[:, start]
    done = np.zeros(c, dtype=bool)
    for _ in range(JACOBI_MAX_SWEEPS):
        live = np.flatnonzero(~done)
        x, lo = cols[live], floor[live]
        rotated = np.zeros(live.size, dtype=bool)
        for perm in perms:
            w = x[..., :n]  # W's rows; V's follow
            norms = np.einsum("ckr,ckr->ck", w, w)
            app, aqq = norms[:, :h], norms[:, h:]
            apq = np.einsum("ckr,ckr->ck", w[:, :h], w[:, h:])
            rot = (np.abs(apq) > JACOBI_TOL * np.sqrt(app * aqq)) \
                & (np.minimum(app, aqq) > lo)
            if rot.any():
                rotated |= rot.any(axis=1)
                # inner rotation, |angle| <= pi/4; a pair below the
                # tolerance gets t = 0, which is exactly c = 1, s = 0
                zeta = (aqq - app) / (2.0 * np.where(rot, apq, 1.0))
                t = np.where(rot, np.copysign(
                    1.0 / (np.abs(zeta) + np.hypot(1.0, zeta)), zeta), 0.0)
                cs = 1.0 / np.hypot(1.0, t)[..., None]
                sn = t[..., None] * cs
                wp, wq = x[:, :h], x[:, h:]
                newp = cs * wp - sn * wq
                wq *= cs
                wq += sn * wp
                wp[...] = newp
            x = x[:, perm]
        cols[live] = x
        done[live] = ~rotated
        if done.all():
            break
    else:
        raise ConvergenceError(
            f"{np.count_nonzero(~done)} of {c} matrices unconverged after "
            f"{JACOBI_MAX_SWEEPS} Jacobi sweeps")
    cols = cols[:, restore]
    w = cols[:, :n, :n].transpose(0, 2, 1)
    s = np.sqrt(np.einsum("cij,cij->cj", w, w))
    order = np.argsort(-s, axis=1, kind="stable")
    s = np.take_along_axis(s, order, axis=1)
    s = np.where(s <= SV_CLAMP_REL * s[:, :1], 0.0, s)
    if not want_v:
        return s / scale[:, None], None, None, None
    w = np.take_along_axis(w, order[:, None, :], axis=2)
    v = q2 @ np.take_along_axis(cols[:, :n, n:2 * n].transpose(0, 2, 1),
                                order[:, None, :], axis=2)
    # a column left under the floor was never rotated against the rest,
    # so it is not orthogonal to them: its u column stays 0, for svd to
    # complete
    u = np.divide(w, s[:, None, :], out=np.zeros_like(w),
                  where=(s * s > floor)[:, None, :])
    return s / scale[:, None], q, u, v


def _complete_orthonormal(u: np.ndarray, good: np.ndarray) -> np.ndarray:
    """Fill the columns of u not in ``good`` with a deterministic
    orthonormal completion. Each takes the identity column with the
    largest part outside the columns so far, projected off them twice:
    that part is at least sqrt(1/m) long, so the rounding in the columns
    so far is not magnified, and a second pass leaves it orthogonal to
    working precision."""
    filled = u.copy()
    done = good.copy()
    for j in np.flatnonzero(~good):
        basis = filled[:, done]
        cand = np.eye(u.shape[0])
        for _ in range(2):
            cand -= basis @ (basis.T @ cand)
        best = cand[:, np.argmax(np.einsum("ij,ij->j", cand, cand))]
        filled[:, j] = best / np.linalg.norm(best)
        done[j] = True
    return filled


def svd(a: np.ndarray) -> SvdResult:
    """Jacobi SVD: a = u @ diag(s) @ v.T with r = min(m, n).

    Wide matrices are transposed internally and u/v swapped back.
    """
    a = _check_matrix(a)
    wide = a.shape[1] > a.shape[0]
    tall = a.T if wide else a
    s, q, u, v = (x[0] for x in _jacobi(tall[None], want_v=True))
    good = u.any(axis=0)
    if not good.all():
        u = _complete_orthonormal(u, good)
    u = q @ u
    return SvdResult(u=v, s=s, v=u) if wide else SvdResult(u=u, s=s, v=v)


def singular_values(a: np.ndarray) -> np.ndarray:
    return svd(a).s


def nuclear_norms(stack: np.ndarray) -> np.ndarray:
    """Sum of singular values of each matrix of a (C, m, n) stack."""
    stack = _check_stack(stack)
    if stack.shape[2] > stack.shape[1]:
        stack = stack.transpose(0, 2, 1)
    return _jacobi(stack, want_v=False)[0].sum(axis=1)


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
