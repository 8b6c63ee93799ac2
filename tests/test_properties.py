"""Property tests over small random shapes: superoperator algebra and tuple files."""
import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qexpand as qx
from qexpand.errors import TupleFormatError

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


@SETTINGS
@given(shapes, st.booleans())
def test_apply_matches_materialize(shape, restrict_h0):
    T, xi, _ = _operator(*shape, restrict_h0)
    lhs = qx.apply(T, xi).reshape(-1)
    rhs = qx.materialize(T) @ xi.reshape(-1)
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


@SETTINGS
@given(shapes, st.booleans())
def test_adjoint_identity(shape, restrict_h0):
    # <T xi, eta> = <xi, T* eta> in the Hilbert-Schmidt inner product
    T, xi, eta = _operator(*shape, restrict_h0)
    lhs = np.vdot(eta, qx.apply(T, xi))
    rhs = np.vdot(qx.apply(T.adjoint(), eta), xi)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


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


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=20,
)
entries = st.floats() | st.integers(-(2**70), 2**70) | st.text(max_size=2) | st.none() | st.booleans()
near_valid = st.fixed_dictionaries(
    {
        "n": st.integers(-1, 2) | json_values,
        "N": st.integers(-1, 2) | json_values,
        "matrices": st.lists(st.lists(st.lists(entries, max_size=3), max_size=4), max_size=3)
        | json_values,
    },
    optional={"unitary": st.booleans() | json_values},
)


@SETTINGS
@given(near_valid | st.dictionaries(st.sampled_from(["n", "N", "matrices", "unitary"]), json_values))
def test_fuzzed_tuple_objects_raise_only_format_errors(obj):
    try:
        t = qx.MatrixTuple.from_json(obj)
    except TupleFormatError:
        return
    assert t.mats.shape == (obj["n"], obj["N"], obj["N"])
