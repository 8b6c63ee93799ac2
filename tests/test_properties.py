"""Property tests over small random shapes: superoperator algebra and tuple files."""
import base64
import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qexpand as qx
from qexpand import superop
from qexpand.errors import TupleFormatError
from qexpand.linalg import sample_ginibre

SETTINGS = settings(max_examples=40, deadline=None)

# (n, N, block factor k, seed): the operator acts on kN x N matrices
shapes = st.tuples(
    st.integers(1, 3), st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1)
)


def _operator(n, N, k, seed, restrict_h0):
    gen = np.random.default_rng(seed)
    x, y, xi, eta = (
        gen.standard_normal(s) + 1j * gen.standard_normal(s)
        for s in ((n, k * N, k * N), (n, N, N), (k * N, N), (k * N, N))
    )
    return qx.SuperOperator(qx.MatrixTuple(x), qx.MatrixTuple(y), restrict_h0), xi, eta


def _projector(k, N):
    """Explicit kN^2 x kN^2 projector I - I_k (x) vv* onto blockwise trace-zero vec(xi)."""
    v = np.eye(N).reshape(-1) / np.sqrt(N)
    return np.kron(np.eye(k), np.eye(N * N) - np.outer(v, v))


@SETTINGS
@given(shapes, st.booleans())
def test_apply_matches_materialize(shape, restrict_h0):
    T, xi, _ = _operator(*shape, restrict_h0)
    lhs = qx.apply(T, xi).reshape(-1)
    m = qx.materialize(T)
    rhs = m @ xi.reshape(-1)
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())
    # einsum oracle: sum_j kron(x_j, conj(y_j)), then I - I_k (x) vv* on both sides
    kN, N = T.shape
    oracle = np.einsum("jac,jbd->abcd", T.left.mats, T.right.mats.conj()).reshape(kN * N, -1)
    if restrict_h0:
        q = _projector(kN // N, N)
        oracle = q @ oracle @ q
    assert np.linalg.norm(m - oracle) <= 1e-14 * np.linalg.norm(oracle)


@SETTINGS
@given(shapes)
def test_restricted_materialize_is_projected(shape):
    # materialize centres rows and columns of the dense matrix; the oracle
    # multiplies the unrestricted matrix by the explicit projector on both sides
    T, _, _ = _operator(*shape, True)
    kN, N = T.shape
    m = qx.materialize(T)
    q = _projector(kN // N, N)
    oracle = q @ qx.materialize(qx.SuperOperator(T.left, T.right)) @ q
    assert np.abs(m - oracle).max() <= 1e-13 * np.abs(m).max()


@SETTINGS
@given(shapes, st.booleans())
def test_adjoint_identity(shape, restrict_h0):
    # <T xi, eta> = <xi, T* eta> in the Hilbert-Schmidt inner product
    T, xi, eta = _operator(*shape, restrict_h0)
    lhs = np.vdot(eta, qx.apply(T, xi))
    rhs = np.vdot(qx.apply(T.adjoint(), eta), xi)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@SETTINGS
@given(
    st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 40)),
    st.sampled_from([np.complex64, np.complex128]),
    st.integers(0, 2**32 - 1),
)
def test_center_in_place_matches_the_trace_form(shape, dtype, seed):
    # the block traces come from the diagonal views themselves; np.trace runs
    # the same reduction on the same strides, so the bits agree
    B, k, N = shape
    gen = np.random.default_rng(seed)
    dims = (B, k * N, N)
    xi = (gen.standard_normal(dims) + 1j * gen.standard_normal(dims)) * 10.0 ** gen.integers(-8, 9)
    xi = xi.astype(dtype)
    got, want = xi.copy(), xi.copy()
    superop._center_in_place(got)
    diag = want.reshape(-1, N * N)[:, :: N + 1]
    diag -= np.trace(want.reshape(-1, N, N), axis1=1, axis2=2)[:, None] / N
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# (k, N) just above AUTO_DENSE_DIM = 144, where "auto" runs Lanczos and
# the dense oracle is still cheap
switched = st.sampled_from([(1, 13), (1, 14), (1, 15), (1, 16), (2, 9), (2, 10)])


@SETTINGS
@given(switched, st.integers(2, 8), st.booleans(), st.integers(0, 2**32 - 1))
def test_auto_lanczos_matches_dense_above_switch(kN, n, unitary, seed):
    # restricted sums of a_j (x) U_j over Haar U_j, or unrestricted Ginibre sums
    k, N = kN
    gen = np.random.default_rng(seed)
    if unitary:
        u = np.stack([qx.sample_haar_unitary(N, gen) for _ in range(n)])
        a = gen.standard_normal((n, k, k))
        left = np.einsum("jab,jcd->jacbd", a, u).reshape(n, k * N, k * N)
        T = qx.SuperOperator(qx.MatrixTuple(left), qx.MatrixTuple(u, unitary=True), True)
    else:
        x = np.stack([sample_ginibre(k * N, gen) for _ in range(n)])
        y = np.stack([sample_ginibre(N, gen) for _ in range(n)])
        T = qx.SuperOperator(qx.MatrixTuple(x), qx.MatrixTuple(y))
    tol = 1e-10
    rep = qx.operator_norm(T, tol=tol, rng=gen)
    dense = qx.operator_norm(T, method="dense", witness=False).value
    assert rep.method == "lanczos"
    assert dense - 1e-12 * n <= rep.value <= dense + 1e-12
    assert rep.residual <= 10 * tol * rep.value**2


@SETTINGS
@given(
    st.tuples(st.integers(1, 3), st.integers(1, 5), st.sampled_from([1, 2]), st.integers(0, 2**32 - 1)),
    st.booleans(),
    st.sampled_from([1e-6, 1e-7]),
)
# missed breakdown on the trace-zero space
@example(shape=(3, 2, 2, 2), restrict_h0=True, tol=1e-7)
# a Ritz value above the norm if _gram_apply leaves T*(image) uncentred
@example(shape=(1, 2, 2, 43), restrict_h0=True, tol=1e-7)
def test_lanczos_is_a_lower_bound_at_loose_tol(shape, restrict_h0, tol):
    # at tol 1e-6 the Krylov cycles run in complex64 and a complex128 run
    # certifies their Ritz vector; at 1e-7 the solve is complex128 throughout.
    # Either way the value is a complex128 Rayleigh-Ritz lower bound.
    T, _, _ = _operator(*shape, restrict_h0)
    n = shape[0]
    rep = qx.operator_norm(T, method="lanczos", tol=tol, rng=shape[-1])
    dense = qx.operator_norm(T, method="dense", witness=False).value
    assert rep.method == "lanczos"
    assert dense - 1e-9 * n <= rep.value <= dense * (1 + 1e-13)


@SETTINGS
@given(
    shapes,
    st.booleans(),
    st.sampled_from([("dense", 1e-10), ("lanczos", 1e-10), ("lanczos", 1e-6)]),
    st.integers(-900, 900),
)
@example(shape=(3, 4, 3, 1), restrict_h0=True, solve=("lanczos", 1e-6), k=900)
@example(shape=(2, 3, 2, 2), restrict_h0=False, solve=("dense", 1e-10), k=-900)
def test_norm_scales_by_powers_of_two_bit_for_bit(shape, restrict_h0, solve, k):
    # _solve scales each operator's members to unit max-abs by powers of two,
    # so 2^k on the left members moves the value and the top image by exactly
    # 2^k and leaves the applies, the label and the witness vector as they are
    T, _, _ = _operator(*shape, restrict_h0)
    method, tol = solve
    base, scaled = (
        qx.operator_norm(qx.SuperOperator(left, T.right, restrict_h0), method, tol, rng=shape[-1])
        for left in (T.left, T.left.scale(2.0**k))
    )
    assert scaled.value == math.ldexp(base.value, k)
    assert (scaled.iterations, scaled.single_applies, scaled.method) == (
        base.iterations, base.single_applies, base.method
    )
    if base.top_vector is None:  # restricted N = 1: the domain is {0}
        assert scaled.top_vector is None and scaled.top_image is None
        return
    assert scaled.top_vector.tobytes() == base.top_vector.tobytes()
    for part in ("real", "imag"):
        got = np.ldexp(getattr(scaled.top_image, part), -k)
        assert got.tobytes() == getattr(base.top_image, part).tobytes()


@SETTINGS
@given(
    st.integers(1, 3),
    st.sampled_from([(1, 3), (2, 2), (1, 13), (2, 9)]),
    st.booleans(),
    st.sampled_from([1e-10, 1e-6]),
    st.integers(0, 2**32 - 1),
)
def test_norms_batch_scales_each_row_on_its_own(n, kN, restrict_h0, tol, seed):
    # rows scaled by 2^-600, 1 and 2^600 in one batch (dense up to kN^2 = 144,
    # lockstep Lanczos above), all from one start: each row gets its own
    # exponent, its solo value and 2^e times the unscaled row's value
    k, N = kN
    T, _, _ = _operator(n, N, k, seed, restrict_h0)
    lefts = [T.left.scale(2.0**e) for e in (-600, 0, 600)]
    solo = [
        qx.operator_norm(qx.SuperOperator(left, T.right, restrict_h0), tol=tol,
                         rng=np.random.default_rng(seed), witness=False)
        for left in lefts
    ]
    values, applies, _, converged, *_ = superop._solve(
        np.stack([left.mats for left in lefts]), np.stack([T.right.mats] * 3), restrict_h0,
        [np.random.default_rng(seed) for _ in lefts], tol,
    )
    assert list(values) == [rep.value for rep in solo]
    assert list(applies) == [rep.iterations for rep in solo]
    assert [rep.method != "lanczos-unconverged" for rep in solo] == list(converged)
    assert values[0] == math.ldexp(values[1], -600) and values[2] == math.ldexp(values[1], 600)


@SETTINGS
@given(st.integers(1, 4), st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_separation_is_bi_unitarily_invariant(n, N, seed):
    # sum_j (c u_j e) (x) conj(a v_j b) = (c (x) conj(a)) [sum_j u_j (x) conj(v_j)] (e (x) conj(b))
    gen = np.random.default_rng(seed)
    u, v = qx.haar_tuple(n, N, gen), qx.haar_tuple(n, N, gen)
    a, b, c, e = (qx.sample_haar_unitary(N, gen) for _ in range(4))
    moved = qx.separation(u.transform(left=c, right=e), v.transform(left=a, right=b), method="dense")
    assert abs(moved.norm_value - qx.separation(u, v, method="dense").norm_value) <= 1e-12


@SETTINGS
@given(st.integers(2, 4), st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_orbit_distance_is_bi_unitarily_invariant(n, N, seed):
    # d'(c u e, a v b) = d'(u, v). The ascent is local: at 8 restarts 2 of 300
    # such instances ended on different local maxima (differences 0.12 and
    # 0.013); at 20 restarts none of 1300 did.
    gen = np.random.default_rng(seed)
    u, v = qx.haar_tuple(n, N, gen), qx.haar_tuple(n, N, gen)
    a, b, c, e = (qx.sample_haar_unitary(N, gen) for _ in range(4))
    moved = qx.orbit_distance(
        u.transform(left=c, right=e), v.transform(left=a, right=b), restarts=20, rng=seed
    )
    assert abs(moved.upper - qx.orbit_distance(u, v, restarts=20, rng=seed).upper) <= 1e-8


@SETTINGS
@given(st.integers(1, 5), st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_certified_orbit_distance_is_near_zero_on_the_orbit(n, N, seed):
    # F <= n on every pair, so a restart with F >= n (1 - 1e-12) leaves at
    # most sqrt(2 n 1e-12) for all the others to gain; d'(u, a u b) = 0
    gen = np.random.default_rng(seed)
    u = qx.haar_tuple(n, N, gen)
    a, b = qx.sample_haar_unitary(N, gen), qx.sample_haar_unitary(N, gen)
    rep = qx.orbit_distance(u, u.transform(left=a, right=b), restarts=3, rng=gen)
    assert rep.certified == (rep.f_best >= n * (1 - 1e-12))
    if rep.certified:
        assert rep.f_values[-1] == rep.f_best
        assert rep.upper <= 1e-5 * math.sqrt(n)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def tuples(draw):
    n, N = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    parts = draw(st.lists(finite, min_size=2 * n * N * N, max_size=2 * n * N * N))
    return qx.MatrixTuple(np.array(parts).view(complex).reshape(n, N, N))


@SETTINGS
@given(tuples())
@example(  # signed zeros and subnormals
    qx.MatrixTuple(np.array([-0.0, 5e-324, 1e-310, -0.0, 0.0, -5e-324, 1.0, -1e-320])
                   .view(complex).reshape(1, 2, 2))
)
def test_json_round_trip_is_bit_exact(t):
    back = qx.MatrixTuple.from_json(json.loads(json.dumps(t.to_json())))
    assert back.mats.shape == t.mats.shape
    assert back.mats.view(np.uint64).tobytes() == t.mats.view(np.uint64).tobytes()


# float64 bit patterns whose exponent field is not all ones: every finite value
finite_bits = st.integers(0, 2**64 - 1).filter(lambda b: (b >> 52) & 0x7FF != 0x7FF)


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_any_finite_bit_pattern_round_trips_in_both_forms(n, N, data):
    bits = data.draw(st.lists(finite_bits, min_size=2 * n * N * N, max_size=2 * n * N * N))
    t = qx.MatrixTuple(np.array(bits, dtype=np.uint64).view(complex).reshape(n, N, N))
    listed = {"n": n, "N": N, "matrices": t.mats.reshape(n, -1).view(float).reshape(n, -1, 2).tolist()}
    for obj in (t.to_json(), listed):
        back = qx.MatrixTuple.from_json(json.loads(json.dumps(obj, allow_nan=False)))
        assert back.mats.view(np.uint64).tolist() == t.mats.view(np.uint64).tolist()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=20,
)
b64_values = st.binary(max_size=48).map(lambda b: base64.b64encode(b).decode()) | json_values
entries = st.floats() | st.integers(-(2**70), 2**70) | st.text(max_size=2) | st.none() | st.booleans()
near_valid = st.fixed_dictionaries(
    {
        "n": st.integers(-1, 2) | json_values,
        "N": st.integers(-1, 2) | json_values,
    },
    # a file must hold exactly one of the two matrix forms: draw neither, one or both
    optional={
        "matrices": st.lists(st.lists(st.lists(entries, max_size=3), max_size=4), max_size=3)
        | json_values,
        "matrices_b64": b64_values,
        "unitary": st.booleans() | json_values,
    },
)


@SETTINGS
@given(near_valid | st.dictionaries(
    st.sampled_from(["n", "N", "matrices", "matrices_b64", "unitary"]), json_values))
def test_fuzzed_tuple_objects_raise_only_format_errors(obj):
    try:
        t = qx.MatrixTuple.from_json(obj)
    except TupleFormatError:
        return
    assert t.mats.shape == (obj["n"], obj["N"], obj["N"])
