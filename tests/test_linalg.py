"""SVD/nuclear-norm kernels against an eigendecomposition oracle, plus
the tensor blob format (written and read by ``modelio``)."""

import ast
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import energyprune
from energyprune import linalg
from energyprune.linalg import (ConvergenceError, DomainError, ShapeError,
                                frobenius_norm, make_rng, nuclear_norm,
                                nuclear_norms, singular_values, svd)
from energyprune.modelio import read_blob, write_blob
from helpers import oracle_nuclear_norm, oracle_singular_values


def _ortho_err(q):
    return np.max(np.abs(q.T @ q - np.eye(q.shape[1])))


class TestSvd:
    @pytest.mark.parametrize("shape", [(1, 1), (5, 3), (3, 5), (8, 8),
                                       (1, 7), (7, 1), (20, 4), (9, 7),
                                       (7, 9), (33, 17)])
    def test_reconstruction_and_factors(self, shape):
        a = make_rng(shape[0] * 100 + shape[1]).normal(size=shape)
        res = svd(a)
        r = min(shape)
        assert res.u.shape == (shape[0], r)
        assert res.s.shape == (r,)
        assert res.v.shape == (shape[1], r)
        assert np.all(np.diff(res.s) <= 0) and np.all(res.s >= 0)
        scale = max(np.linalg.norm(a), 1.0)
        assert np.max(np.abs(res.reconstruct() - a)) / scale < 1e-10
        assert _ortho_err(res.u) < 1e-10
        assert _ortho_err(res.v) < 1e-10

    def test_matches_eigendecomposition_oracle(self):
        rng = make_rng(42)
        for _ in range(50):
            m, n = rng.integers(1, 20, size=2)
            a = rng.normal(size=(m, n)) * rng.choice([1e-3, 1.0, 1e3])
            s = singular_values(a)
            ref = oracle_singular_values(a)
            scale = max(ref[0], 1e-30)
            assert np.max(np.abs(s - ref)) / scale < 1e-10

    def test_rank_deficient(self):
        rng = make_rng(7)
        col = rng.normal(size=(6, 1))
        a = np.hstack([col, 2 * col, -col])  # rank 1
        res = svd(a)
        assert np.sum(res.s > 0) == 1
        assert _ortho_err(res.u) < 1e-10  # completed columns stay orthonormal
        assert np.max(np.abs(res.reconstruct() - a)) < 1e-10

    def test_zero_matrix(self):
        res = svd(np.zeros((4, 3)))
        assert np.all(res.s == 0)
        assert _ortho_err(res.u) < 1e-12
        assert _ortho_err(res.v) < 1e-12

    def test_known_diagonal(self):
        a = np.diag([3.0, 1.0, 2.0])
        assert np.allclose(singular_values(a), [3.0, 2.0, 1.0])
        assert nuclear_norm(a) == pytest.approx(6.0)

    def test_input_validation(self):
        with pytest.raises(ShapeError):
            svd(np.zeros(3))
        with pytest.raises(ShapeError):
            svd(np.zeros((0, 3)))
        with pytest.raises(DomainError):
            svd(np.array([[1.0, np.nan]]))
        with pytest.raises(DomainError):
            frobenius_norm(np.array([[np.inf, 0.0]]))

    @pytest.mark.parametrize("x", [1e200, 1e-170])
    def test_frobenius_norm_at_the_float_limits(self, x):
        # the squares overflow (1e200) or underflow (1e-170); the norm does not
        assert frobenius_norm(np.full((2, 2), x)) == 2 * x


class TestJacobiKernel:
    @pytest.mark.parametrize("n", [2, 4, 6, 16])
    def test_round_robin_pairs_every_column_pair_once(self, n):
        # row k < n/2 meets row k + n/2; the ring gather seats the next
        # round's pairs
        gather = linalg._ring(n)
        seats = np.arange(n)  # the row in each seat
        seen = []
        for _ in range(n - 1):
            seen += [tuple(sorted(pq)) for pq in
                     zip(seats[:n // 2].tolist(), seats[n // 2:].tolist())]
            seats = seats[gather]
        assert sorted(seen) == [(p, q) for p in range(n)
                                for q in range(p + 1, n)]

    @pytest.mark.parametrize("n", [2, 4, 6, 16])
    def test_pair_layout_walks_the_rounds_in_a_cycle(self, n):
        # the gather is a permutation that keeps row 0 in seat 0; after
        # n - 1 rounds, and no fewer, every row is back in its seat
        gather = linalg._ring(n)
        assert sorted(gather.tolist()) == list(range(n))
        assert gather[0] == 0
        seats = np.arange(n)
        for r in range(1, n):
            seats = seats[gather]
            assert np.array_equal(seats, np.arange(n)) == (r == n - 1)

    def test_graded_stack_converges_in_few_sweeps(self, monkeypatch):
        # column scales 1 .. 1e-12: the second QR orders and nearly
        # orthogonalizes the columns, so 4 sweeps do (8 on R's columns)
        stack = make_rng(1).normal(size=(4, 32, 32)) \
            * np.logspace(0, -12, 32)
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 5)
        nuc = nuclear_norms(stack)
        for a, nn in zip(stack, nuc):
            res = svd(a)
            ref = oracle_singular_values(a)
            assert np.max(np.abs(res.s - ref)) / ref[0] < 1e-10
            assert nn == pytest.approx(ref.sum(), rel=1e-10)
            assert np.max(np.abs(res.reconstruct() - a)) \
                / np.linalg.norm(a) < 1e-10
            assert _ortho_err(res.u) < 1e-10 and _ortho_err(res.v) < 1e-10

    @pytest.mark.parametrize("seed", [2, 6, 7])
    def test_u_stays_orthonormal_with_columns_under_the_floor(self, seed):
        # graded down to 1e-14: columns fall under the no-rotation floor
        # (SV_CLAMP_REL * |a|_F), some of them above the clamp
        # (SV_CLAMP_REL * s_max), and U is completed around them
        for shape in [(32, 32), (40, 20), (20, 40), (16, 16)]:
            a = make_rng(seed).normal(size=shape) \
                * np.logspace(0, -14, shape[1])
            res = svd(a)
            assert _ortho_err(res.u) < 1e-10 and _ortho_err(res.v) < 1e-10
            assert np.max(np.abs(res.reconstruct() - a)) \
                / np.linalg.norm(a) < 1e-10

    @pytest.mark.parametrize("shape", [(9, 7), (7, 9), (33, 17), (17, 33)])
    def test_factors_of_graded_shapes(self, shape):
        a = make_rng(shape[0] * 100 + shape[1]).normal(size=shape) \
            * np.logspace(0, -9, shape[1])
        res = svd(a)
        scale = max(np.linalg.norm(a), 1.0)
        assert np.all(np.diff(res.s) <= 0)
        assert np.max(np.abs(res.reconstruct() - a)) / scale < 1e-10
        assert _ortho_err(res.u) < 1e-10
        assert _ortho_err(res.v) < 1e-10

    def test_nonconvergence_is_reported(self, monkeypatch):
        a = make_rng(16).normal(size=(16, 16))
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(ConvergenceError):
            svd(a)

    @pytest.mark.parametrize("shape", [(9, 5), (5, 9), (16, 16), (1, 6)])
    def test_repeated_columns_converge(self, shape):
        # QR of equal columns leaves trailing rows graded towards underflow
        rng = make_rng(shape[0])
        col = rng.normal(size=(shape[0], 1))
        for a in (np.full(shape, 0.37), np.repeat(col, shape[1], axis=1)):
            nn = nuclear_norm(a)
            assert nn == pytest.approx(np.linalg.norm(a), rel=1e-12)
            res = svd(a)
            assert np.sum(res.s > 0) == 1
            assert np.max(np.abs(res.reconstruct() - a)) < 1e-12 * nn
            assert _ortho_err(res.u) < 1e-10 and _ortho_err(res.v) < 1e-10

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e150])
    def test_scale_invariant(self, scale):
        a = make_rng(3).normal(size=(7, 5))
        assert nuclear_norm(scale * a) / scale == pytest.approx(
            nuclear_norm(a), rel=1e-12)

    def test_stack_validation(self):
        with pytest.raises(ShapeError):
            nuclear_norms(np.zeros((3, 3)))
        stack = np.ones((3, 2, 2))
        stack[1, 0, 1] = np.inf
        with pytest.raises(DomainError, match="matrix 1"):
            nuclear_norms(stack)


def _hard_inputs(n: int) -> dict:
    rng = make_rng(n)
    a = rng.normal(size=(n + 8, n))
    repeated = a.copy()
    repeated[:, n // 2:] = repeated[:, :1]
    zero_cols = a.copy()
    zero_cols[:, ::3] = 0.0
    return {
        "repeated columns": repeated,
        "zero columns": zero_cols,
        "rank one": np.outer(rng.normal(size=n + 8), rng.normal(size=n)),
        "scaled by 1e-200": 1e-200 * a,
        "scaled by 1e+200": 1e200 * a,
        "wide": a.T,
        "columns graded to 1e-14": a * np.logspace(0, -14, n),
    }


class TestQdwhKernel:
    def test_schedule_is_fixed_and_no_jacobi_setting_reaches_it(
            self, monkeypatch):
        assert len(linalg.QDWH_STEPS) == 6
        assert abs(1.0 - linalg.QDWH_L_END) <= 1e-15
        a = make_rng(16).normal(size=(16, 16))
        before = nuclear_norm(a)
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
        assert nuclear_norm(a) == before

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("kind", list(_hard_inputs(2)))
    def test_hard_inputs_match_oracle(self, n, kind):
        a = _hard_inputs(n)[kind]
        assert nuclear_norm(a) == pytest.approx(oracle_nuclear_norm(a),
                                                rel=1e-8)

    @pytest.mark.parametrize("n", [64, 128])
    def test_zero_matrix_scores_exactly_zero(self, n):
        stack = make_rng(n).normal(size=(3, n + 8, n))
        stack[1] = 0.0
        assert nuclear_norm(np.zeros((n + 8, n))) == 0.0
        assert nuclear_norms(stack)[1] == 0.0

    def test_stack_matches_one_matrix_at_a_time(self):
        # graded, random, zero and repeated-column matrices, odd n after
        # the transpose: each score has the bits it has alone, and in a
        # stack in the reverse order
        stack = make_rng(4).normal(size=(6, 5, 9))
        stack[0] *= np.logspace(0, -10, 5)[:, None]
        stack[2] = 0.0
        stack[4, :, 1:] = stack[4, :, :1]
        full = nuclear_norms(stack)
        assert full[2] == 0.0
        for i, a in enumerate(stack):
            assert full[i] == nuclear_norms(a[None])[0] == nuclear_norm(a)
        assert np.array_equal(nuclear_norms(stack[::-1])[::-1], full)

    @pytest.mark.parametrize("shape", [(16, 4, 64), (24, 16, 64),
                                       (3, 200, 100)])
    def test_wide_and_large_stacks_match_one_matrix_stacks(self, shape):
        # each score's sums must not depend on the layout QR hands back
        # for the stack, nor on how many matrices it holds
        stack = np.maximum(make_rng(sum(shape)).normal(size=shape), 0.0)
        full = nuclear_norms(stack)
        for i, a in enumerate(stack):
            assert full[i] == nuclear_norms(a[None])[0]


finite_matrices = st.integers(1, 12).flatmap(
    lambda m: st.integers(1, 12).flatmap(
        lambda n: st.lists(
            st.floats(-1e6, 1e6, allow_nan=False),
            min_size=m * n, max_size=m * n,
        ).map(lambda vals: np.array(vals).reshape(m, n))))


class TestNuclearProperties:
    @settings(max_examples=60, deadline=None)
    @given(finite_matrices)
    @example(np.array([[0.0, 0.0, 0.0], [1.0, 1.21875, 183.0],
                       [0.0, 0.0, 0.0]]))
    def test_matches_oracle(self, a):
        assert nuclear_norm(a) == pytest.approx(
            oracle_nuclear_norm(a), rel=1e-8, abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(finite_matrices)
    def test_bounds_and_transpose(self, a):
        nn = nuclear_norm(a)
        fro = frobenius_norm(a)
        r = min(a.shape)
        assert fro - 1e-6 <= nn * (1 + 1e-9)
        assert nn <= np.sqrt(r) * fro * (1 + 1e-9) + 1e-6
        assert nuclear_norm(a.T) == pytest.approx(nn, rel=1e-8, abs=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(finite_matrices, st.floats(-100, 100, allow_nan=False))
    def test_absolute_homogeneity(self, a, c):
        assert nuclear_norm(c * a) == pytest.approx(
            abs(c) * nuclear_norm(a), rel=1e-8, abs=1e-6)


class TestBlob:
    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 3, 4), (1, 1, 1, 5)])
    def test_roundtrip(self, shape):
        a = make_rng(1).normal(size=shape)
        buf = io.BytesIO()
        first = write_blob(buf, np.zeros(2))
        assert write_blob(buf, a) == len(buf.getvalue()) - first
        back = read_blob(buf.getvalue(), first)
        assert back.shape == a.shape
        assert back.dtype == np.float64
        # payload is float32, so the roundtrip is exact at that precision
        assert np.array_equal(back, a.astype(np.float32).astype(np.float64))

    def test_layout_is_little_endian_f32(self):
        buf = io.BytesIO()
        write_blob(buf, np.array([[1.0, 2.0]]))
        raw = buf.getvalue()
        assert raw[:4] == (2).to_bytes(4, "little")
        assert raw[4:8] == (1).to_bytes(4, "little")
        assert raw[8:12] == (2).to_bytes(4, "little")
        assert np.frombuffer(raw[12:], dtype="<f4").tolist() == [1.0, 2.0]

    def test_write_is_deterministic(self):
        a = make_rng(2).normal(size=(4, 5))
        b1, b2 = io.BytesIO(), io.BytesIO()
        write_blob(b1, a)
        write_blob(b2, a)
        assert b1.getvalue() == b2.getvalue()


def test_make_rng_is_stable_stream():
    a = make_rng(123).normal(size=5)
    b = make_rng(123).normal(size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, make_rng(124).normal(size=5))


DECOMPOSITIONS = {"svd", "eig", "eigh", "eigvals", "eigvalsh"}


def _dotted(node) -> str:
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def test_production_code_never_calls_library_decompositions():
    # keeps the Gram-eigvalsh oracle independent of the kernels it checks
    found = []
    for path in sorted(Path(energyprune.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in DECOMPOSITIONS \
                    and _dotted(node.func.value).endswith("linalg"):
                found.append(f"{path.name}:{node.lineno}: {_dotted(node.func)}")
            elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and (node.module or "").endswith("linalg"):
                found += [f"{path.name}:{node.lineno}: import {a.name}"
                          for a in node.names if a.name in DECOMPOSITIONS]
    assert found == []


def test_package_imports_only_at_module_level():
    # an import inside a function hid the engine -> metrics -> engine cycle
    found = set()
    for path in sorted(Path(energyprune.__file__).parent.glob("*.py")):
        for scope in ast.walk(ast.parse(path.read_text())):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                found |= {f"{path.name}:{node.lineno}"
                          for node in ast.walk(scope)
                          if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert sorted(found) == []
