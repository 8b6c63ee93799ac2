import math
import warnings

import numpy as np
import pytest

import qexpand as qx
from qexpand.errors import TupleFormatError
from qexpand.expanders import GroupPresentation, cyclic_group
from qexpand.linalg import RngSpec

from conftest import identity_tuple


def s3_transposition_group():
    """S3 acting on itself, generated by the three transpositions."""
    elements = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    index = {p: i for i, p in enumerate(elements)}

    def compose(a, b):  # (a o b)(x) = a(b(x))
        return tuple(a[b[x]] for x in range(3))

    gens = []
    for t in [(1, 0, 2), (2, 1, 0), (0, 2, 1)]:
        gens.append(tuple(index[compose(t, g)] for g in elements))
    return GroupPresentation(6, tuple(gens), ("(01)", "(02)", "(12)"))


class TestGroupPresentation:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            GroupPresentation(3, ((0, 0, 1),))

    def test_rejects_intransitive(self):
        # two 2-cycles on 4 points fixing the split {0,1} vs {2,3}
        with pytest.raises(ValueError):
            GroupPresentation(4, ((1, 0, 3, 2),))

    def test_json_round_trip(self):
        g = cyclic_group(5)
        back = GroupPresentation.from_json(g.to_json())
        assert back == g

    def test_unknown_keys_rejected(self):
        obj = cyclic_group(3).to_json()
        obj["extra"] = 1
        with pytest.raises(TupleFormatError):
            GroupPresentation.from_json(obj)
        with pytest.raises(TupleFormatError):
            GroupPresentation.from_json(5)

    @pytest.mark.parametrize(
        "key, val",
        [
            ("order", 3.9),
            ("order", "3"),
            ("order", True),
            ("generators", [[1.0, 2.0, 0.0], [2, 0, 1]]),
            ("labels", [1, 2]),
            ("labels", "ab"),
            ("labels", {"a": 1, "b": 2}),
            ("generators", "ab"),
        ],
        ids=["float-order", "string-order", "bool-order", "float-entries", "int-labels",
             "string-labels", "dict-labels", "string-generators"],
    )
    def test_non_integer_fields_rejected(self, key, val):
        # nothing is coerced: order 3.9 is not order 3, and the characters or
        # keys of a string or dict are not a list of labels
        obj = cyclic_group(3).to_json()
        obj[key] = val
        with pytest.raises(TupleFormatError):
            GroupPresentation.from_json(obj)


class TestCayley:
    def test_z5_circulants(self):
        t = qx.cayley_regular_tuple(cyclic_group(5))
        assert t.n == 2 and t.dim == 5 and t.unitary
        # left translation by +1 is the cyclic shift matrix
        shift = np.roll(np.eye(5), 1, axis=0)
        assert np.allclose(t[0], shift)
        assert np.allclose(t[1], shift.T)

    def test_cyclic_classical_gap_character_oracle(self):
        # eigenvalues of the +-1 cycle sum are 2 cos(2 pi k / m)
        for m in (3, 5, 8, 12):
            want = max(abs(2 * math.cos(2 * math.pi * k / m)) for k in range(1, m))
            assert qx.classical_gap(cyclic_group(m)) == pytest.approx(want, abs=1e-9)

    def test_z2_doubled_generator_no_gap(self):
        g = GroupPresentation(2, ((1, 0), (1, 0)))
        assert qx.classical_gap(g) == pytest.approx(2.0, abs=1e-9)

    def test_z3_gap_is_one(self):
        assert qx.classical_gap(cyclic_group(3)) == pytest.approx(1.0, abs=1e-9)

    def test_s3_brute_force_oracle(self):
        g = s3_transposition_group()
        # oracle: eigensolve the 6x6 generator sum, drop the all-ones direction
        a = np.zeros((6, 6))
        for perm in g.generators:
            for src, dst in enumerate(perm):
                a[dst, src] += 1.0
        vals, vecs = np.linalg.eigh(a)
        ones = np.ones(6) / math.sqrt(6)
        keep = [abs(vals[i]) for i in range(6) if abs(vecs[:, i] @ ones) < 0.9]
        assert qx.classical_gap(g) == pytest.approx(max(keep), abs=1e-9)

    def test_classical_gap_at_most_n(self):
        for g in (cyclic_group(7), s3_transposition_group()):
            assert qx.classical_gap(g) <= g.n + 1e-9

    def test_classical_below_quantum_gap(self):
        # the diagonal restriction can only lower the norm
        for g in (cyclic_group(5), cyclic_group(8), s3_transposition_group()):
            t = qx.cayley_regular_tuple(g)
            quantum = qx.spectral_gap(t, method="dense").value
            assert qx.classical_gap(g) <= quantum + 1e-8

    def test_regular_tuple_gap_is_n(self):
        # right translations are fixed vectors, so the tuple-level gap is full
        t = qx.cayley_regular_tuple(cyclic_group(6))
        assert qx.spectral_gap(t, method="dense").value == pytest.approx(2.0, abs=1e-9)


class TestHaarTuple:
    def test_determinism(self):
        a = qx.haar_tuple(3, 5, RngSpec(3, 1).generator())
        b = qx.haar_tuple(3, 5, RngSpec(3, 1).generator())
        assert np.array_equal(a.mats, b.mats)

    def test_unitarity_residual(self, rng):
        t = qx.haar_tuple(4, 10, rng)
        assert t.unitarity_residual() <= 1e-10 * 4 * 10

    def test_cross_overlap_vanishes(self):
        # E tr(u_i u_j*)/N = 0 for i != j; average over samples is ~N(0, scale)
        gen = np.random.default_rng(12)
        N, samples = 32, 100
        vals = []
        for _ in range(samples):
            t = qx.haar_tuple(2, N, gen)
            vals.append(np.trace(t[0] @ t[1].conj().T) / N)
        mean = np.mean(vals)
        # each term has variance 1/N^2 over Haar pairs
        sigma = 1.0 / (N * math.sqrt(samples))
        assert abs(mean) <= 4 * sigma


class TestPauli:
    def test_shape_and_unitarity(self, pauli):
        assert pauli.n == 4 and pauli.dim == 2 and pauli.unitary

    def test_gap_zero(self, pauli):
        assert qx.spectral_gap(pauli).value < 1e-10


class TestCertify:
    def test_pauli_certificate(self, pauli):
        cert = qx.certify(pauli)
        assert cert.epsilon == pytest.approx(1.0, abs=1e-10)
        assert cert.ramanujan_slack == pytest.approx(-2 * math.sqrt(3), abs=1e-9)
        assert cert.is_expander(1.0)
        assert cert.is_ramanujan(0.0)

    def test_identity_tuple_certificate(self):
        cert = qx.certify(identity_tuple(3, 4))
        assert cert.epsilon == pytest.approx(0.0, abs=1e-12)
        assert not cert.is_expander(0.1)

    def test_epsilon_within_formula(self, rng):
        u = qx.haar_tuple(3, 8, rng)
        cert = qx.certify(u, method="dense")
        assert abs(cert.epsilon - (1 - cert.gap.value / 3)) <= 1e-12
        assert 0.0 <= cert.epsilon <= 1.0

    def test_haar_ramanujan_fraction(self):
        # 0.1-Ramanujan: slack <= 0.1 * n; large-N Haar tuples concentrate there
        hits = 0
        for s in range(20):
            u = qx.haar_tuple(8, 32, RngSpec(4242, s).generator())
            cert = qx.certify(u, tol=1e-8, method="lanczos", rng=RngSpec(4242, s).substream(1))
            hits += cert.is_ramanujan(0.1)
        assert hits >= 16

    def test_json(self, pauli):
        obj = qx.certify(pauli).to_json()
        assert obj["n"] == 4 and obj["N"] == 2
        assert "gap" in obj


class TestMixingCurve:
    def test_pauli_kills_in_one_step(self, pauli, rng):
        x0 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        curve = qx.mixing_curve(pauli, x0, 5)
        assert curve[0] > 0
        assert np.all(curve[1:] < 1e-12)

    def test_identity_tuple_is_constant(self, rng):
        u = identity_tuple(3, 4)
        x0 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        curve = qx.mixing_curve(u, x0, 10)
        assert np.allclose(curve, curve[0])

    def test_certified_rate_bounds_curve(self, rng):
        u = qx.haar_tuple(4, 16, rng)
        cert = qx.certify(u, method="dense")
        x0 = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        curve = qx.mixing_curve(u, x0, 50)
        rate = 1 - cert.epsilon
        for k in range(51):
            assert curve[k] <= rate**k * curve[0] + 1e-9

    def test_non_increasing(self, rng):
        u = qx.haar_tuple(2, 6, rng)
        x0 = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        curve = qx.mixing_curve(u, x0, 30)
        assert np.all(np.diff(curve) <= 1e-12)

    def test_huge_entries_do_not_overflow(self, pauli, tmp_path):
        from qexpand.cli import main

        x0 = 1e300 * np.array([[1.0, 0.0], [1.0, 1.0]])
        xpath, tpath = tmp_path / "x0.json", tmp_path / "pauli.json"
        qx.save_tuple(xpath, qx.MatrixTuple(x0[None]))
        qx.save_tuple(tpath, pauli)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = qx.mixing_curve(pauli, x0, 3)
            code = main(["--out", str(tmp_path / "o"), "mix", "-p", f"tuple={tpath}",
                         "-p", f"x0={xpath}", "-p", "steps=3"])
        assert curve[0] == pytest.approx(1e300 * qx.mixing_curve(pauli, x0 / 1e300, 3)[0], rel=1e-12)
        assert curve[0] == pytest.approx(1e300 / math.sqrt(2), rel=1e-12)
        assert code == 0

    @pytest.mark.parametrize("s", [9e307, 1.5e308])
    def test_centring_does_not_overflow_near_the_float_max(self, pauli, s):
        # the block trace of x0 (2s) overflows, its step-0 residual s/sqrt(2) does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = qx.mixing_curve(pauli, s * np.array([[1.0, 0.0], [1.0, 1.0]]), 2)
        assert curve[0] == pytest.approx(s / math.sqrt(2), rel=1e-15)
        assert np.all(curve[1:] == 0.0)

    def test_step_validation(self, pauli):
        with pytest.raises(ValueError):
            qx.mixing_curve(pauli, np.eye(2), 0)
        with pytest.raises(ValueError):
            qx.mixing_curve(pauli, np.eye(3), 5)
