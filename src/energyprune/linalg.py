"""SVD and nuclear-norm kernels plus the tensor blob format.

All scoring math runs in float64; float32 appears only at the
serialization boundary (see :func:`write_blob` / :func:`read_blob`).
The SVD is a one-sided Jacobi, accurate and simple at the matrix sizes
this package sees (a few thousand rows at most).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

# Converged when every normalized off-diagonal column product in a full
# sweep is below this.
JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 60

# Singular values below this fraction of the largest are clamped to 0.
SV_CLAMP_REL = 1e-12


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class DomainError(ValueError):
    """Operand values are outside an operation's domain (NaN/inf)."""


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic RNG stream. PCG64 is counter-based and produces the
    same stream for the same seed on every platform."""
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class SvdResult:
    u: np.ndarray  # (m, r), orthonormal columns
    s: np.ndarray  # (r,), non-increasing, >= 0
    v: np.ndarray  # (n, r), orthonormal columns

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s) @ self.v.T


def _check_matrix(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeError(f"empty matrix {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix contains non-finite entries")
    return a


def _jacobi_tall(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-sided Jacobi on a tall (m >= n) matrix; returns (u, s, v)."""
    m, n = a.shape
    # w (rows :m) and v (rows m:) stacked, so one rotation updates both
    wv = np.concatenate([a, np.eye(n)])
    cols = [wv[:, j] for j in range(n)]
    wcols = [col[:m] for col in cols]
    for _ in range(JACOBI_MAX_SWEEPS):
        off = 0.0
        for p in range(n - 1):
            wp = wcols[p]
            for q in range(p + 1, n):
                wq = wcols[q]
                app = float(wp @ wp)
                aqq = float(wq @ wq)
                apq = float(wp @ wq)
                denom = math.sqrt(app * aqq)
                if denom == 0.0 or abs(apq) <= JACOBI_TOL * denom:
                    continue
                off = max(off, abs(apq) / denom)
                theta = 0.5 * np.arctan2(2.0 * apq, app - aqq)
                c = np.cos(theta)
                s = np.sin(theta)
                xp, xq = cols[p], cols[q]
                xp[...], xq[...] = c * xp + s * xq, -s * xp + c * xq
        if off <= JACOBI_TOL:
            break
    w = wv[:m]
    v = wv[m:]
    s = np.sqrt(np.einsum("ij,ij->j", w, w))
    order = np.argsort(-s, kind="stable")
    s = s[order]
    w = w[:, order]
    v = v[:, order]
    smax = s[0] if s.size else 0.0
    s = np.where(s <= SV_CLAMP_REL * smax, 0.0, s)
    u = np.zeros((m, n))
    nonzero = s > 0
    u[:, nonzero] = w[:, nonzero] / s[nonzero]
    if not nonzero.all():
        u = _complete_orthonormal(u, nonzero)
    return u, s, v


def _complete_orthonormal(u: np.ndarray, good: np.ndarray) -> np.ndarray:
    """Fill zero-singular-value columns of u with a deterministic
    orthonormal completion (Gram-Schmidt against identity candidates)."""
    m = u.shape[0]
    basis = [u[:, j] for j in np.nonzero(good)[0]]
    filled = u.copy()
    cand = 0
    for j in np.nonzero(~good)[0]:
        while True:
            vec = np.zeros(m)
            vec[cand % m] = 1.0
            cand += 1
            for b in basis:
                vec = vec - (b @ vec) * b
            norm = np.linalg.norm(vec)
            if norm > 1e-6:
                vec /= norm
                break
        basis.append(vec)
        filled[:, j] = vec
    return filled


def svd(a: np.ndarray) -> SvdResult:
    """One-sided Jacobi SVD: a = u @ diag(s) @ v.T with r = min(m, n).

    Wide matrices are transposed internally and u/v swapped back.
    """
    a = _check_matrix(a)
    m, n = a.shape
    if n > m:
        u, s, v = _jacobi_tall(a.T)
        u, v = v, u
    else:
        u, s, v = _jacobi_tall(a)
    return SvdResult(u=u, s=s, v=v)


def singular_values(a: np.ndarray) -> np.ndarray:
    return svd(a).s


def nuclear_norm(a: np.ndarray) -> float:
    """Sum of singular values of a."""
    return float(np.sum(svd(a).s))


def frobenius_norm(a: np.ndarray) -> float:
    a = _check_matrix(a)
    return float(np.sqrt(np.sum(a * a)))


# --- tensor blob format -------------------------------------------------
#
# Little-endian: u32 rank, u32 extent per axis, then row-major IEEE-754
# float32 payload.

def write_blob(fh, a: np.ndarray) -> None:
    a = np.ascontiguousarray(a, dtype=np.float64)
    fh.write(struct.pack("<I", a.ndim))
    fh.write(struct.pack(f"<{a.ndim}I", *a.shape))
    fh.write(a.astype("<f4").tobytes())


def read_blob(fh) -> np.ndarray:
    (rank,) = struct.unpack("<I", fh.read(4))
    shape = struct.unpack(f"<{rank}I", fh.read(4 * rank))
    count = int(np.prod(shape)) if rank else 1
    data = np.frombuffer(fh.read(4 * count), dtype="<f4", count=count)
    return data.astype(np.float64).reshape(shape)
