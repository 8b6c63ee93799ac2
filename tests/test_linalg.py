import base64
import json
import math
import os

import numpy as np
import pytest
from scipy import integrate

import qexpand as qx
from qexpand.errors import DimensionMismatch, TupleFormatError, UnitarityError
from qexpand.linalg import RngSpec, as_square_matrix


def sample_haar_unitary_qr(N, gen):
    """Haar unitary via QR with the R-diagonal phase fix.

    Independent construction kept as a cross-check oracle for the polar route.
    """
    x = (gen.standard_normal((N, N)) + 1j * gen.standard_normal((N, N))) / math.sqrt(2)
    q, r = np.linalg.qr(x)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


class TestNormalizedTrace:
    def test_identity(self):
        for N in (1, 3, 7):
            assert qx.normalized_trace(np.eye(N)) == pytest.approx(1.0)

    def test_pauli_z_traceless(self):
        assert qx.normalized_trace(np.diag([1.0, -1.0])) == pytest.approx(0.0)

    def test_matches_direct_summation(self, rng):
        # independent oracle: sum the diagonal by hand
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        oracle = sum(m[i, i] for i in range(3)) / 3
        assert abs(qx.normalized_trace(m) - oracle) < 1e-14


class TestHsNorm:
    def test_identity_normalized(self):
        for N in (1, 2, 5):
            assert qx.hs_norm(np.eye(N), normalized=True) == pytest.approx(1.0)

    def test_identity_frobenius(self):
        assert qx.hs_norm(np.eye(4), normalized=False) == pytest.approx(2.0)

    def test_single_offdiagonal(self):
        e12 = np.zeros((2, 2))
        e12[0, 1] = 1.0
        assert qx.hs_norm(e12, normalized=True) == pytest.approx(1 / math.sqrt(2))

    def test_two_sided_unitary_invariance(self, rng):
        x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        u = qx.sample_haar_unitary(5, rng)
        v = qx.sample_haar_unitary(5, rng)
        assert qx.hs_norm(u @ x @ v) == pytest.approx(qx.hs_norm(x), abs=1e-12)


class TestSvdPolar:
    def test_identity_singular_values(self):
        _, s, _ = qx.svd(np.eye(4))
        assert np.allclose(s, 1.0)

    def test_moduli_of_diagonal(self):
        _, s, _ = qx.svd(np.diag([3.0, -4.0]))
        assert np.allclose(s, [4.0, 3.0])

    def test_reconstruction(self, rng):
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        u, s, vh = qx.svd(m)
        assert np.linalg.norm(u @ np.diag(s) @ vh - m) <= 1e-10 * np.linalg.norm(m)
        assert np.linalg.norm(u @ u.conj().T - np.eye(5)) <= 1e-10
        assert np.linalg.norm(vh @ vh.conj().T - np.eye(5)) <= 1e-10
        assert np.all(np.diff(s) <= 0)

    def test_polar_of_unitary_is_itself(self, rng):
        u = qx.sample_haar_unitary(4, rng)
        assert np.linalg.norm(qx.polar_unitary(u) - u) <= 1e-10

    def test_polar_of_scaled_identity(self):
        assert np.linalg.norm(qx.polar_unitary(2 * np.eye(3)) - np.eye(3)) <= 1e-12

    def test_polar_maximizes_trace_overlap(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u = qx.polar_unitary(m)
        attained = np.trace(u.conj().T @ m).real
        assert attained == pytest.approx(qx.trace_norm(m), rel=1e-10)
        for _ in range(1000):
            w = qx.sample_haar_unitary(4, rng)
            assert np.trace(w.conj().T @ m).real <= attained + 1e-9

    def test_polar_unitary_even_for_singular_input(self, rng):
        m = np.zeros((3, 3), dtype=complex)
        m[0, 0] = 2.0  # rank one
        u = qx.polar_unitary(m)
        assert np.linalg.norm(u.conj().T @ u - np.eye(3)) <= 1e-10


class TestTraceNorm:
    def test_identity(self):
        assert qx.trace_norm(np.eye(3)) == pytest.approx(3.0)

    def test_diagonal_product_bound(self):
        w = np.diag([2.0, 0.5])
        winv = np.linalg.inv(w)
        assert qx.trace_norm(w) * qx.trace_norm(winv) == pytest.approx(6.25)
        assert 6.25 >= 2**2

    def test_product_bound_random(self, rng):
        # tr|W| tr|W^-1| >= N^2, via svd: sum(s) * sum(1/s) >= N^2 by AM/HM
        for _ in range(100):
            w = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            prod = qx.trace_norm(w) * qx.trace_norm(np.linalg.inv(w))
            assert prod >= 25 * (1 - 1e-10)

    def test_equality_iff_scaled_unitary(self, rng):
        for _ in range(20):
            c = float(rng.uniform(0.5, 2.0))
            w = c * qx.sample_haar_unitary(4, rng)
            prod = qx.trace_norm(w) * qx.trace_norm(np.linalg.inv(w))
            assert prod == pytest.approx(16.0, abs=1e-8)


class TestGinibre:
    def test_frobenius_second_moment(self):
        # E tr(Y* Y) = N
        gen = np.random.default_rng(3)
        N, samples = 8, 10_000
        total = 0.0
        for _ in range(samples):
            y = qx.sample_ginibre(N, gen)
            total += np.linalg.norm(y) ** 2
        assert total / samples == pytest.approx(N, rel=0.02)

    def test_mean_singular_value_quarter_circle(self):
        # oracle: numerically integrate the quarter-circle density s*sqrt(4-s^2)/pi
        oracle, err = integrate.quad(lambda s: s * math.sqrt(4 - s * s) / math.pi, 0, 2)
        assert err < 1e-8
        assert oracle == pytest.approx(8 / (3 * math.pi), abs=1e-12)
        est = qx.ginibre_singular_mean(64, 200, RngSpec(11, 0).generator())
        assert est == pytest.approx(oracle, rel=0.03)

    def test_determinism(self):
        a = qx.sample_ginibre(6, RngSpec(99, 1).generator())
        b = qx.sample_ginibre(6, RngSpec(99, 1).generator())
        assert np.array_equal(a, b)
        c = qx.sample_ginibre(6, RngSpec(99, 2).generator())
        assert not np.array_equal(a, c)


class TestHaar:
    def test_unitarity(self, rng):
        u = qx.sample_haar_unitary(9, rng)
        assert np.linalg.norm(u.conj().T @ u - np.eye(9)) <= 1e-10

    def test_trace_moment_against_qr_oracle(self):
        # E |tr U|^2 = 1; cross-check the polar sampler against the QR one
        N, samples = 8, 10_000
        gen1 = np.random.default_rng(5)
        gen2 = np.random.default_rng(6)
        m_polar = np.mean(
            [abs(np.trace(qx.sample_haar_unitary(N, gen1))) ** 2 for _ in range(samples)]
        )
        m_qr = np.mean(
            [abs(np.trace(sample_haar_unitary_qr(N, gen2))) ** 2 for _ in range(samples)]
        )
        assert m_polar == pytest.approx(1.0, rel=0.05)
        assert m_qr == pytest.approx(1.0, rel=0.05)

    def test_mean_real_trace_vanishes(self):
        N, samples = 8, 4000
        gen = np.random.default_rng(7)
        vals = [np.trace(qx.sample_haar_unitary(N, gen)).real for _ in range(samples)]
        # Var(Re tr U) = 1/2
        sigma = math.sqrt(0.5 / samples)
        assert abs(np.mean(vals)) <= 3 * sigma


class TestBatchedSampling:
    @staticmethod
    def ginibre_replay(N, gen):
        """One Ginibre draw as two (N, N) standard-normal calls, real part first."""
        re = gen.standard_normal((N, N))
        im = gen.standard_normal((N, N))
        return (re + 1j * im) / math.sqrt(2 * N)

    @pytest.mark.parametrize("N", [1, 2, 3, 7, 16, 33, 64])
    def test_stacks_match_per_member_replay(self, N):
        gen = RngSpec(40, N).generator()
        stack = np.stack([self.ginibre_replay(N, gen) for _ in range(5)])
        assert np.array_equal(qx.polar_unitary(stack), np.stack([qx.polar_unitary(m) for m in stack]))
        u = qx.haar_tuple(3, N, RngSpec(41, N).generator())
        gen = RngSpec(41, N).generator()
        replay = [qx.polar_unitary(self.ginibre_replay(N, gen)) for _ in range(3)]
        assert np.array_equal(u.mats, np.stack(replay))
        # several batched SVD chunks at every N
        mean = qx.ginibre_singular_mean(N, 70, RngSpec(42, N).generator())
        gen = RngSpec(42, N).generator()
        sv = [np.linalg.svd(self.ginibre_replay(N, gen), compute_uv=False).sum() / N for _ in range(70)]
        assert mean == float(np.mean(sv))

    def test_polar_stack_validation(self):
        with pytest.raises(DimensionMismatch):
            qx.polar_unitary(np.ones((2, 3, 4)))
        with pytest.raises(ValueError):
            qx.polar_unitary(np.full((2, 2, 2), np.nan))


class TestRngSpec:
    def test_identical_spec_identical_stream(self):
        s1 = RngSpec(123, 4).generator().standard_normal(10)
        s2 = RngSpec(123, 4).generator().standard_normal(10)
        assert np.array_equal(s1, s2)

    def test_streams_differ(self):
        s1 = RngSpec(123, 0).generator().standard_normal(10)
        s2 = RngSpec(123, 1).generator().standard_normal(10)
        assert not np.array_equal(s1, s2)

    def test_substream_determinism(self):
        a = RngSpec(8, 2).substream(5, 7).standard_normal(4)
        b = RngSpec(8, 2).substream(5, 7).standard_normal(4)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            RngSpec(-1)
        with pytest.raises(ValueError):
            RngSpec(1, -2)


class TestMatrixTuple:
    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            qx.MatrixTuple(np.zeros((2, 3, 4)))

    def test_finite_validation(self):
        bad = np.zeros((1, 2, 2), dtype=complex)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            qx.MatrixTuple(bad)

    def test_unitary_flag_rechecked(self, rng):
        mats = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
        with pytest.raises(UnitarityError):
            qx.MatrixTuple(mats, unitary=True)

    def test_transform_keeps_unitary_flag(self, rng):
        u = qx.haar_tuple(2, 4, rng)
        a = qx.sample_haar_unitary(4, rng)
        t = u.transform(left=a, right=a.conj().T)
        assert t.unitary
        assert t.unitarity_residual() <= 2 * 4 * 1e-10

    def test_scale_phase_preserves_unitarity(self, rng):
        u = qx.haar_tuple(2, 3, rng)
        assert u.scale(np.exp(0.3j)).unitary
        assert not u.scale(2.0).unitary


class TestTupleFiles:
    def test_round_trip(self, tmp_path, rng):
        t = qx.haar_tuple(3, 4, rng)
        p = tmp_path / "t.json"
        qx.save_tuple(p, t)
        back = qx.load_tuple(p)
        assert back.n == 3 and back.dim == 4 and back.unitary
        assert np.array_equal(back.mats, t.mats)  # full double precision

    # signed zeros, subnormals, the smallest normal and the largest magnitudes
    EDGE = [-0.0, 5e-324, 1e308, -1e308, 0.0, -5e-324, 2.2250738585072014e-308, -1e-310]

    def edge_tuple(self):
        return qx.MatrixTuple(np.array(self.EDGE + self.EDGE[::-1]).view(complex).reshape(2, 2, 2))

    def test_list_form_text_loads_bit_identically(self, tmp_path):
        t = self.edge_tuple()
        p = tmp_path / "t.json"
        p.write_text(json.dumps({
            "n": t.n, "N": t.dim, "unitary": False,
            "matrices": [[[float(z.real), float(z.imag)] for z in m.reshape(-1)] for m in t.mats],
        }))
        assert qx.load_tuple(p).mats.view(np.uint64).tolist() == t.mats.view(np.uint64).tolist()

    def test_save_load_is_bit_identical(self, tmp_path):
        t = self.edge_tuple()
        p = tmp_path / "t.json"
        qx.save_tuple(p, t)
        assert qx.load_tuple(p).mats.view(np.uint64).tolist() == t.mats.view(np.uint64).tolist()

    def test_written_text_is_strict_json(self, tmp_path):
        def no_constants(name):
            raise ValueError(f"non-standard JSON constant {name}")

        t = self.edge_tuple()
        p = tmp_path / "t.json"
        qx.save_tuple(p, t)
        obj = json.loads(p.read_text(), parse_constant=no_constants)
        assert obj["n"] == 2 and obj["N"] == 2 and obj["unitary"] is False
        assert base64.b64decode(obj["matrices_b64"], validate=True) == t.mats.astype("<c16").tobytes()

    def test_pauli_file_shape(self, tmp_path, pauli):
        p = tmp_path / "pauli.json"
        qx.save_tuple(p, pauli)
        back = qx.load_tuple(p)
        assert back.n == 4 and back.dim == 2

    def test_truncated_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"n": 2, "N": 2, "matrices": [[')
        with pytest.raises(TupleFormatError) as exc:
            qx.load_tuple(p)
        assert "line" in str(exc.value)

    def test_non_unitary_flagged_file(self, tmp_path):
        t = qx.MatrixTuple(2 * np.eye(2, dtype=complex)[None])
        p = tmp_path / "t.json"
        qx.save_tuple(p, t)
        text = p.read_text().replace('"unitary": false', '"unitary": true')
        p.write_text(text)
        with pytest.raises(UnitarityError) as exc:
            qx.load_tuple(p)
        assert "member 0" in str(exc.value)
        assert "residual" in str(exc.value)

    def test_wrong_member_count(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text('{"n": 2, "N": 1, "unitary": false, "matrices": [[[1, 0]]]}')
        with pytest.raises(TupleFormatError):
            qx.load_tuple(p)

    def test_unitary_flag_must_be_boolean(self, tmp_path):
        # bool("false") is True: a string flag must not be coerced
        p = tmp_path / "t.json"
        p.write_text('{"n": 1, "N": 1, "unitary": "false", "matrices": [[[1, 0]]]}')
        with pytest.raises(TupleFormatError, match="unitary"):
            qx.load_tuple(p)

    def test_unknown_key_rejected(self, tmp_path):
        # a misspelt flag must not load silently as unitary=False
        p = tmp_path / "t.json"
        p.write_text('{"n": 1, "N": 1, "unitray": true, "matrices": [[[1, 0]]]}')
        with pytest.raises(TupleFormatError, match=r"unknown tuple keys: \['unitray'\]"):
            qx.load_tuple(p)


    @pytest.mark.parametrize("n, N", [(1, 1), (2, 3), (4, 48)])
    def test_saved_bytes_are_json_dumps_bytes(self, tmp_path, n, N):
        # the base64 payload skips json's escape pass, in the same bytes
        t = qx.haar_tuple(n, N, np.random.default_rng(7))
        p = tmp_path / "t.json"
        qx.save_tuple(p, t)
        want = json.dumps(t.to_json(), indent=2, allow_nan=False) + "\n"
        assert p.read_bytes() == want.encode("ascii")


class TestTupleMemo:
    """``load_tuple`` memoizes the parse on the file's exact text."""

    @staticmethod
    def fresh_parse(p):
        return qx.MatrixTuple.from_json(json.loads(p.read_text()))

    def test_same_size_rewrite_with_old_times_loads_new_content(self, tmp_path):
        p = tmp_path / "t.json"
        old, new = (qx.haar_tuple(2, 3, np.random.default_rng(s)) for s in (1, 2))
        qx.save_tuple(p, old)
        st = p.stat()
        assert np.array_equal(qx.load_tuple(p).mats, old.mats)
        qx.save_tuple(p, new)
        os.utime(p, ns=(st.st_atime_ns, st.st_mtime_ns))
        assert p.stat().st_size == st.st_size and p.stat().st_mtime_ns == st.st_mtime_ns
        back = qx.load_tuple(p)  # a cache keyed on path, size and times returns `old` here
        assert np.array_equal(back.mats, new.mats)
        assert back.mats.view(np.uint64).tolist() == self.fresh_parse(p).mats.view(np.uint64).tolist()

    def test_bad_file_fails_every_time_until_fixed(self, tmp_path):
        p = tmp_path / "t.json"
        p.write_text('{"n": 1, "N": 1, "matrices_b64": "AAAAAAAA8D8="}')
        lines = []
        for _ in range(2):
            with pytest.raises(TupleFormatError) as exc:
                qx.load_tuple(p)
            lines.append(str(exc.value))
        assert lines[0] == lines[1] and lines[0].startswith(f"{p}: ")
        assert len(lines[0].splitlines()) == 1
        t = qx.haar_tuple(1, 1, np.random.default_rng(3))
        qx.save_tuple(p, t)
        assert np.array_equal(qx.load_tuple(p).mats, t.mats)

    def test_same_content_under_two_paths(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        t = qx.haar_tuple(3, 4, np.random.default_rng(4))
        qx.save_tuple(a, t)
        b.write_bytes(a.read_bytes())
        bits = [qx.load_tuple(p).mats.view(np.uint64).tolist() for p in (a, b)]
        assert bits[0] == bits[1] == self.fresh_parse(b).mats.view(np.uint64).tolist()
        for p in (a, b):
            p.write_text('{"n": 1, "N": 1, "unitray": true, "matrices": [[[1, 0]]]}')
        for p, other in ((a, b), (b, a)):
            with pytest.raises(TupleFormatError) as exc:
                qx.load_tuple(p)
            assert str(exc.value).startswith(f"{p}: ") and str(other) not in str(exc.value)

    def test_returned_mats_stay_read_only(self, tmp_path):
        p = tmp_path / "t.json"
        qx.save_tuple(p, qx.haar_tuple(2, 2, np.random.default_rng(5)))
        for _ in range(2):
            back = qx.load_tuple(p)
            assert not back.mats.flags.writeable
            with pytest.raises(ValueError):
                back.mats[0, 0, 0] = 0


def test_as_square_matrix_rejects_rectangles():
    with pytest.raises(DimensionMismatch):
        as_square_matrix(np.zeros((2, 3)))
