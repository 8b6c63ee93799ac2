import math
import warnings

import numpy as np
import pytest

import qexpand as qx
from qexpand import superop
from qexpand.errors import DenseCapExceeded, DimensionMismatch
from qexpand.linalg import RngSpec
from qexpand.superop import LANCZOS_BASIS, center, dense_cap

from conftest import identity_tuple, random_tuple


class TestApply:
    def test_identity_pair_doubles(self, rng):
        u = identity_tuple(2, 3)
        T = qx.SuperOperator(u, u)
        xi = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(qx.apply(T, xi), 2 * xi)

    def test_pauli_twirl_identity(self, pauli, rng):
        # sum_P P xi P = 4 tr(xi)/2 * I
        T = qx.SuperOperator(pauli, pauli)
        xi = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        want = 4 * qx.normalized_trace(xi) * np.eye(2)
        assert np.allclose(qx.apply(T, xi), want, atol=1e-12)

    def test_matches_dense_materialization(self, rng):
        t1, t2 = random_tuple(3, 4, rng), random_tuple(3, 4, rng)
        for flag in (False, True):
            T = qx.SuperOperator(t1, t2, restrict_h0=flag)
            xi = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            lhs = qx.apply(T, xi).reshape(-1)
            rhs = qx.materialize(T) @ xi.reshape(-1)
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_linearity(self, rng):
        T = qx.SuperOperator(random_tuple(2, 5, rng), random_tuple(2, 5, rng), restrict_h0=True)
        a, b = 0.7 - 0.2j, 1.1 + 0.5j
        xi = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        eta = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        lhs = qx.apply(T, a * xi + b * eta)
        rhs = a * qx.apply(T, xi) + b * qx.apply(T, eta)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_dimension_mismatch(self, rng):
        T = qx.SuperOperator(random_tuple(2, 3, rng), random_tuple(2, 3, rng))
        with pytest.raises(DimensionMismatch):
            qx.apply(T, np.eye(4))


class TestMaterialize:
    def test_single_identity(self):
        T = qx.SuperOperator(identity_tuple(1, 2), identity_tuple(1, 2))
        assert np.allclose(qx.materialize(T), np.eye(4))

    def test_pauli_restricted_is_zero(self, pauli):
        T = qx.SuperOperator(pauli, pauli, restrict_h0=True)
        assert np.abs(qx.materialize(T)).max() < 1e-12

    def test_top_singular_value_matches_norm(self, rng):
        t1, t2 = random_tuple(2, 3, rng), random_tuple(2, 3, rng)
        T = qx.SuperOperator(t1, t2)
        s = np.linalg.svd(qx.materialize(T), compute_uv=False)
        assert qx.operator_norm(T, method="dense").value == pytest.approx(s[0], abs=1e-10)

    def test_cap(self, rng, monkeypatch):
        monkeypatch.setenv("QEX_DENSE_CAP", "8")
        assert dense_cap() == 8
        T = qx.SuperOperator(random_tuple(1, 3, rng), random_tuple(1, 3, rng))
        with pytest.raises(DenseCapExceeded):
            qx.materialize(T)

    def test_cap_env_validation(self, monkeypatch):
        monkeypatch.setenv("QEX_DENSE_CAP", "zero")
        with pytest.raises(ValueError):
            dense_cap()


class TestPairNorms:
    @pytest.mark.parametrize("unitary", [True, False])
    def test_matches_per_pair_dense_svd(self, rng, unitary):
        # one shared left tuple against 40 right tuples, dense at N^2 = 16
        draw = (lambda: qx.haar_tuple(3, 4, rng)) if unitary else (lambda: random_tuple(3, 4, rng))
        u = draw()
        vs = [draw() for _ in range(40)]
        got, applies, converged = superop._norms(
            u.mats[None], np.stack([v.mats for v in vs]), False, [None] * 40, 1e-10
        )
        assert got.shape == (40,) and np.all(applies == 1) and converged.all()
        for val, v in zip(got, vs):
            want = qx.operator_norm(qx.SuperOperator(u, v), method="dense").value
            assert abs(val - want) <= 1e-13 * max(want, 1.0)

    def test_dense_without_witness_matches_svd(self, rng):
        for restrict in (True, False):
            T = qx.SuperOperator(random_tuple(3, 5, rng), random_tuple(3, 5, rng), restrict)
            full = np.linalg.svd(qx.materialize(T), compute_uv=False)[0]
            for witness in (False, True):
                gram = qx.operator_norm(T, method="dense", witness=witness).value
                assert abs(gram - full) <= 1e-13 * full

    def test_lanczos_above_dense_cap(self, rng, monkeypatch):
        # N^2 = 9 is above a cap of 8, so the entry runs Lanczos, not materialize
        u, v = qx.haar_tuple(2, 3, rng), qx.haar_tuple(2, 3, rng)
        monkeypatch.setenv("QEX_DENSE_CAP", "8")
        values, applies, converged = superop._norms(u.mats[None], v.mats[None], False, [5], 1e-10)
        rep = qx.operator_norm(
            qx.SuperOperator(u, v), method="lanczos", tol=1e-10, rng=5, witness=False
        )
        assert values[0] == rep.value and applies[0] == rep.iterations > 1 and converged[0]


class TestOperatorNorm:
    def test_iz_restricted(self, iz_tuple):
        T = qx.SuperOperator.conjugation(iz_tuple)
        rep = qx.operator_norm(T, method="dense")
        assert rep.value == pytest.approx(2.0, abs=1e-10)

    def test_pauli_restricted_zero(self, pauli):
        for method in ("dense", "lanczos"):
            T = qx.SuperOperator.conjugation(pauli)
            assert qx.operator_norm(T, method=method).value < 1e-10

    def test_n1_restricted_is_zero_for_both_methods(self):
        # at N = 1 the trace-zero space is {0}
        T = qx.SuperOperator.conjugation(qx.MatrixTuple(np.ones((1, 1, 1)), unitary=True))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for method in ("dense", "lanczos"):
                assert qx.operator_norm(T, method=method).value == 0.0

    def test_lanczos_matches_dense_haar(self):
        u = qx.haar_tuple(8, 32, RngSpec(21, 0).generator())
        T = qx.SuperOperator.conjugation(u)
        dense = qx.operator_norm(T, method="dense", witness=False).value
        tol = 1e-10
        rep = qx.operator_norm(T, method="lanczos", tol=tol, rng=RngSpec(21, 1).generator())
        assert abs(dense - rep.value) < 1e-9
        assert rep.iterations > LANCZOS_BASIS  # the thick restart ran
        assert rep.residual <= 10 * tol * rep.value**2

    def test_lanczos_warm_start_from_witness(self):
        u = qx.haar_tuple(8, 32, RngSpec(21, 0).generator())
        T = qx.SuperOperator.conjugation(u)
        rep = qx.operator_norm(T, method="lanczos", rng=RngSpec(21, 1).generator())
        warm = qx.operator_norm(T, method="lanczos", start=rep.top_vector)
        assert warm.method == "lanczos"
        assert warm.iterations <= 2
        assert warm.value == pytest.approx(rep.value, abs=1e-12)

    def test_auto_switch_boundary(self, rng):
        # kN^2 = 144 is the last dense size, for square and block operators
        for k, N, method in ((1, 12, "dense"), (1, 13, "lanczos"), (4, 6, "dense"), (2, 9, "lanczos")):
            u = qx.haar_tuple(2, N, rng)
            left = qx.MatrixTuple(np.stack([np.kron(np.eye(k), m) for m in u.mats]))
            T = qx.SuperOperator(left, u, restrict_h0=True)
            assert qx.operator_norm(T, witness=False, rng=rng).method == method

    def test_oracle_equivalence_batch(self):
        gen = np.random.default_rng(77)
        for _ in range(50):
            n = int(gen.integers(1, 5))
            N = int(gen.integers(2, 9))
            t1 = random_tuple(n, N, gen)
            t2 = random_tuple(n, N, gen)
            T = qx.SuperOperator(t1, t2, restrict_h0=bool(gen.integers(2)))
            d = qx.operator_norm(T, method="dense", witness=False).value
            p = qx.operator_norm(T, method="lanczos", tol=1e-12, rng=gen).value
            assert abs(d - p) <= 1e-6 * n

    def test_witness_reproduces_value(self, rng):
        T = qx.SuperOperator(random_tuple(3, 4, rng), random_tuple(3, 4, rng), restrict_h0=True)
        for method in ("dense", "lanczos"):
            rep = qx.operator_norm(T, method=method, tol=1e-12, rng=rng)
            xi = rep.top_vector
            attained = np.linalg.norm(qx.apply(T, xi)) / np.linalg.norm(xi)
            assert attained >= rep.value - rep.residual - 1e-9

    def test_witness_free_lanczos_takes_no_residual_apply(self, rng, monkeypatch):
        T = qx.SuperOperator.conjugation(qx.haar_tuple(3, 13, rng))
        calls = []
        gram_apply = superop._gram_apply

        def counted(*args):
            calls.append(1)
            return gram_apply(*args)

        monkeypatch.setattr(superop, "_gram_apply", counted)
        rep = qx.operator_norm(T, method="lanczos", tol=1e-10, rng=rng, witness=False)
        assert rep.top_vector is None and rep.residual == 0.0
        assert len(calls) == rep.iterations > 1

    def test_unconverged_tag(self, rng):
        T = qx.SuperOperator(random_tuple(2, 6, rng), random_tuple(2, 6, rng))
        rep = qx.operator_norm(T, method="lanczos", tol=1e-16, max_iter=3, rng=rng)
        assert rep.method == "lanczos-unconverged"
        assert rep.value > 0

    def test_bad_method(self, rng):
        T = qx.SuperOperator(random_tuple(1, 2, rng), random_tuple(1, 2, rng))
        with pytest.raises(ValueError):
            qx.operator_norm(T, method="magic")
        with pytest.raises(ValueError):
            qx.operator_norm(T, tol=0.0)


class TestLockstep:
    @staticmethod
    def solo_and_lockstep(ops, tol, shared_left=False):
        """Each operator solved alone by operator_norm, and all of them by one ``_norms`` call."""
        solo = [
            qx.operator_norm(T, tol=tol, witness=False, rng=RngSpec(31, b).generator())
            for b, T in enumerate(ops)
        ]
        left = np.stack([T.left.mats for T in ops[: 1 if shared_left else len(ops)]])
        right = np.stack([T.right.mats for T in ops])
        gens = [RngSpec(31, b).generator() for b in range(len(ops))]
        return solo, superop._norms(left, right, ops[0].restrict_h0, gens, tol)

    def check_three_kinds(self, N, method):
        """Restricted Haar unitary sums, unrestricted Ginibre sums and unitary pairs
        (u, v_b) sharing u: each batch gives every operator exactly its solo report."""
        gen = RngSpec(30, N).generator()
        u = qx.haar_tuple(4, N, gen)
        unitary = [qx.SuperOperator.conjugation(qx.haar_tuple(4, N, gen)) for _ in range(5)]
        ginibre = [qx.SuperOperator(random_tuple(3, N, gen), random_tuple(3, N, gen)) for _ in range(5)]
        pairs = [qx.SuperOperator(u, qx.haar_tuple(4, N, gen)) for _ in range(5)]
        counts = set()
        for ops, shared in ((unitary, False), (ginibre, False), (pairs, True)):
            solo, (values, applies, converged) = self.solo_and_lockstep(ops, 1e-10, shared)
            for rep, value, count, flag in zip(solo, values, applies, converged):
                assert value == rep.value
                assert count == rep.iterations
                assert rep.method == (method if flag else "lanczos-unconverged") == method
            counts.update(applies)
        return counts

    def test_matches_solo_runs(self):
        # Lanczos at kN^2 = 169; the unitary runs stop after 48 or 60 applies,
        # so some left the batch early
        assert len(self.check_three_kinds(13, "lanczos")) > 2

    def test_dense_batch_matches_solo_runs(self):
        assert self.check_three_kinds(6, "dense") == {1}

    def test_breakdown_and_cap_stop_each_run_on_its_own(self, monkeypatch):
        # one batch of n = 1 operators: a single unitary (T*T = I, breakdown at the
        # first apply), x (.) I with x*x = diag(1, 1, 4, 4) (two eigenvalues, a
        # breakdown at apply 2, off the check schedule) and a generic operator that
        # runs into the 9-apply cap at a tolerance it cannot meet
        gen = RngSpec(32, 0).generator()
        eye = qx.MatrixTuple(np.eye(4, dtype=complex)[None])
        ops = [
            qx.SuperOperator(random_tuple(1, 4, gen), random_tuple(1, 4, gen)),
            qx.SuperOperator(qx.haar_tuple(1, 4, gen), qx.haar_tuple(1, 4, gen)),
            qx.SuperOperator(qx.MatrixTuple(np.diag([1.0, 1.0, 2.0, 2.0])[None] + 0j), eye),
        ]
        lanczos = superop._lanczos
        monkeypatch.setattr(superop, "_lanczos", lambda *args: lanczos(*args[:-1], 9))
        monkeypatch.setenv("QEX_DENSE_CAP", "8")  # Lanczos at kN^2 = 16
        solo, (values, applies, converged) = self.solo_and_lockstep(ops, 1e-16)
        assert list(applies) == [rep.iterations for rep in solo] == [9, 1, 2]
        assert [rep.method for rep in solo] == ["lanczos-unconverged", "lanczos", "lanczos"]
        assert list(converged) == [False, True, True]
        assert list(values) == [rep.value for rep in solo]
        assert values[1] == pytest.approx(1.0, abs=1e-12) and values[2] == pytest.approx(2.0, abs=1e-12)


class TestSpectralGap:
    def test_identity_tuple_has_no_gap(self):
        for n in (1, 3, 5):
            rep = qx.spectral_gap(identity_tuple(n, 3))
            assert rep.value == pytest.approx(n, abs=1e-10)

    def test_pauli_is_perfect(self, pauli):
        assert qx.spectral_gap(pauli).value < 1e-10

    def test_requires_unitary_flag(self, rng):
        with pytest.raises(ValueError):
            qx.spectral_gap(random_tuple(2, 3, rng))

    def test_unrestricted_norm_is_n(self, rng):
        # the identity matrix is a fixed vector: unrestricted norm equals n exactly
        for n, N in ((2, 3), (4, 5)):
            u = qx.haar_tuple(n, N, rng)
            T = qx.SuperOperator(u, u, restrict_h0=False)
            assert qx.operator_norm(T, method="dense").value == pytest.approx(n, abs=1e-10)

    def test_conjugation_invariance(self, rng):
        u = qx.haar_tuple(3, 6, rng)
        V = qx.sample_haar_unitary(6, rng)
        conj = u.transform(left=V, right=V.conj().T)
        g1 = qx.spectral_gap(u, method="dense").value
        g2 = qx.spectral_gap(conj, method="dense").value
        assert g1 == pytest.approx(g2, abs=1e-8)

    def test_mixing_contraction(self, rng):
        # ||Phi^k(x) - tr(x)/N I|| <= (gap/n)^k ||x - tr(x)/N I||
        u = qx.haar_tuple(4, 8, rng)
        g = qx.spectral_gap(u, method="dense").value
        rate = g / u.n
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        y = center(x)
        r0 = np.linalg.norm(y) / math.sqrt(8)
        for k in range(1, 51):
            y = np.einsum("jab,jcb->ac", u.mats @ y, u.mats.conj()) / u.n
            assert np.linalg.norm(y) / math.sqrt(8) <= rate**k * r0 + 1e-9


def test_gap_report_json_round_trip(rng):
    T = qx.SuperOperator(random_tuple(2, 3, rng), random_tuple(2, 3, rng))
    rep = qx.operator_norm(T, method="dense")
    obj = rep.to_json()
    assert set(obj) == {"value", "method", "iterations", "residual"}
    assert obj["method"] == "dense"


def test_shape_mismatch_in_constructor(rng):
    with pytest.raises(DimensionMismatch):
        qx.SuperOperator(random_tuple(2, 3, rng), random_tuple(3, 3, rng))
    with pytest.raises(DimensionMismatch):
        qx.SuperOperator(random_tuple(2, 3, rng), random_tuple(2, 4, rng))
