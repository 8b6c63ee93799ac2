"""Complex dense linear algebra kernel.

Traces, Hilbert-Schmidt norms, decompositions and random-matrix sampling
shared by every other module. Matrices are plain complex ``numpy`` arrays;
``MatrixTuple`` carries an n-tuple of square matrices of a common dimension,
which is the basic object everything else works on.
"""
from __future__ import annotations

import base64
import contextlib
import csv
import functools
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, QexError, TupleFormatError, UnitarityError

__all__ = [
    "UNITARY_TOL",
    "RngSpec",
    "MatrixTuple",
    "as_generator",
    "as_square_matrix",
    "normalized_trace",
    "hs_norm",
    "svd",
    "polar_unitary",
    "trace_norm",
    "spectral_norm",
    "sample_ginibre",
    "sample_haar_unitary",
    "ginibre_singular_mean",
    "load_tuple",
    "save_tuple",
]

# Absolute tolerance on per-member unitarity residuals ||m* m - I||_F.
UNITARY_TOL = 1e-10


def as_square_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and return ``m`` as a square complex array with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] < 1:
        raise DimensionMismatch(f"{name} must be at least 1x1")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def normalized_trace(m) -> complex:
    """Trace divided by the dimension, so the identity has trace one."""
    a = as_square_matrix(m)
    return complex(np.trace(a)) / a.shape[0]


def hs_norm(m, normalized: bool = True) -> float:
    """Hilbert-Schmidt norm; the normalized variant gives the identity norm 1."""
    a = as_square_matrix(m)
    f = float(np.linalg.norm(a))
    return f / math.sqrt(a.shape[0]) if normalized else f


def svd(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular value decomposition ``m = u @ diag(s) @ vh`` with s descending.

    LAPACK's iteration cap is the convergence authority here; a failure
    surfaces as ``numpy.linalg.LinAlgError``.
    """
    return np.linalg.svd(as_square_matrix(m))


def polar_unitary(m) -> np.ndarray:
    """Unitary factor of the polar decomposition of ``m``, or of each matrix of a (..., N, N) stack.

    Computed as ``u @ vh`` from the SVD, which is defined (though not unique)
    also for singular inputs. It maximizes Re tr(W* m) over unitary W with
    optimum tr|m|, which is all the optimizers in this package need. A stack
    takes one batched SVD and matmul, bit-identical to a loop over members.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise DimensionMismatch(f"polar_unitary needs square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    u, _, vh = np.linalg.svd(a)
    return u @ vh


def trace_norm(m) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(as_square_matrix(m), compute_uv=False).sum())


def spectral_norm(m) -> float:
    """Largest singular value (operator norm on column vectors)."""
    return float(np.linalg.svd(as_square_matrix(m), compute_uv=False)[0])


# ---------------------------------------------------------------------------
# Seeding and sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RngSpec:
    """Deterministic random stream: (seed, stream_id) -> bit-identical samples.

    Per-sample substreams (``substream``) and separate ``stream_id`` values
    keep draws independent, so no mutable RNG state is ever shared.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if int(self.stream_id) < 0:
            raise ValueError(f"stream_id must be non-negative, got {self.stream_id}")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        )

    def stream(self, stream_id: int) -> "RngSpec":
        return RngSpec(self.seed, stream_id)

    def substream(self, *key: int) -> np.random.Generator:
        """Generator for a nested deterministic stream, e.g. per sample index."""
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(self.stream_id, *key))
        )

    def to_json(self) -> dict:
        return {"seed": int(self.seed), "stream_id": int(self.stream_id)}

    @classmethod
    def from_json(cls, obj: dict) -> "RngSpec":
        unknown = set(obj) - {"seed", "stream_id"}
        if unknown:
            raise TupleFormatError(f"unknown RngSpec keys: {sorted(unknown)}")
        seed, stream_id = obj["seed"], obj.get("stream_id", 0)
        for key, val in (("seed", seed), ("stream_id", stream_id)):
            if not isinstance(val, int) or isinstance(val, bool):
                raise TupleFormatError(f"field '{key}' must be an integer, got {val!r}")
        return cls(seed, stream_id)


def as_generator(rng) -> np.random.Generator:
    """Accept an RngSpec, Generator, int seed, or None (fixed default stream)."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngSpec):
        return rng.generator()
    if rng is None:
        return np.random.default_rng(0)
    return np.random.default_rng(rng)


# Bytes of Ginibre matrices per batched decomposition in ``ginibre_singular_mean``
# and in ``packing.subgaussian_tail_check`` (2 samples of 8 matrices at
# N = 16). Batching saves the per-call overhead of small SVDs. With one BLAS
# thread, subgaussian_tail_check(8, 16, 100) took 75-87 ms at budgets from
# one sample to 4 samples per batch (126 ms one matrix at a time); at
# 4 samples the batch raised the peak RSS of a process by 0.6 MB, at 2 by
# nothing measurable.
_BATCH_BYTES = 1 << 16


def _ginibre_stack(N: int, count: int, g: np.random.Generator) -> np.ndarray:
    """``count`` Ginibre matrices drawn from g in the order of ``count`` calls of ``sample_ginibre``."""
    z = g.standard_normal((count, 2, N, N))
    return (z[:, 0] + 1j * z[:, 1]) / math.sqrt(2 * N)


def _haar_stack(N: int, count: int, g: np.random.Generator) -> np.ndarray:
    """``count`` Haar unitaries from g, bit-identical to ``count`` calls of ``sample_haar_unitary``.

    The Ginibre draws keep their order; one batched polar factors them all.
    """
    return polar_unitary(_ginibre_stack(N, count, g))


def sample_ginibre(N: int, rng=None) -> np.ndarray:
    """Ginibre matrix: i.i.d. complex Gaussian entries with variance 1/N.

    Real and imaginary parts are independent N(0, 1/(2N)), so E tr(Y* Y) = N.
    """
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    return _ginibre_stack(N, 1, as_generator(rng))[0]


def sample_haar_unitary(N: int, rng=None) -> np.ndarray:
    """Haar-distributed unitary: the polar factor of a Ginibre matrix."""
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    return _haar_stack(N, 1, as_generator(rng))[0]


def ginibre_singular_mean(N: int, samples: int, rng=None) -> float:
    """Monte Carlo estimate of E[N^-1 tr|Y|] for the Ginibre ensemble.

    Converges to the quarter-circle mean 8/(3*pi) as N grows. The singular
    values come from batched SVDs of _BATCH_BYTES of draws at a time.
    """
    if N < 1:
        raise ValueError(f"N must be positive, got {N}")
    if samples < 1:
        raise ValueError("samples must be positive")
    g = as_generator(rng)
    chunk = max(1, _BATCH_BYTES // (16 * N * N))
    vals = np.empty(samples)
    for lo in range(0, samples, chunk):
        y = _ginibre_stack(N, min(chunk, samples - lo), g)
        vals[lo : lo + len(y)] = np.linalg.svd(y, compute_uv=False).sum(axis=-1) / N
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# Matrix tuples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixTuple:
    """An n-tuple of N x N complex matrices, stored stacked as shape (n, N, N).

    ``unitary`` is a validated cache: constructing with ``unitary=True``
    re-checks every member against the residual tolerance n*N*1e-10.
    """

    mats: np.ndarray
    unitary: bool = False

    def __post_init__(self):
        a = np.asarray(self.mats, dtype=complex)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise DimensionMismatch(
                f"matrix tuple must have shape (n, N, N), got {a.shape}"
            )
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise DimensionMismatch(f"empty tuple of shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix tuple contains non-finite entries")
        a = np.ascontiguousarray(a)
        a.setflags(write=False)
        object.__setattr__(self, "mats", a)
        if self.unitary:
            residuals = self.member_residuals()
            worst = int(np.argmax(residuals))
            tol = self.n * self.dim * UNITARY_TOL
            if residuals[worst] > tol:
                raise UnitarityError(
                    f"member {worst} fails unitarity: residual "
                    f"{residuals[worst]:.3e} > {tol:.3e}"
                )

    @property
    def n(self) -> int:
        return self.mats.shape[0]

    @property
    def dim(self) -> int:
        return self.mats.shape[1]

    def __getitem__(self, j: int) -> np.ndarray:
        return self.mats[j]

    def __iter__(self):
        return iter(self.mats)

    def member_residuals(self) -> np.ndarray:
        """Per-member unitarity residuals ||m* m - I||_F."""
        prods = self.mats.conj().transpose(0, 2, 1) @ self.mats
        return np.linalg.norm(prods - np.eye(self.dim), axis=(1, 2))

    def unitarity_residual(self) -> float:
        """Max over members of ||m* m - I||_F."""
        return float(self.member_residuals().max())

    def require_unitary(self):
        if not self.unitary:
            raise ValueError("operation requires a unitary tuple (unitary flag unset)")

    def transform(self, left=None, right=None) -> "MatrixTuple":
        """Two-sided multiplication m_j -> left @ m_j @ right."""
        out = self.mats
        if left is not None:
            left = as_square_matrix(left, "left")
            out = left @ out
        if right is not None:
            right = as_square_matrix(right, "right")
            out = out @ right
        flag = self.unitary
        for f in (left, right):
            if f is not None:
                flag = flag and np.linalg.norm(f.conj().T @ f - np.eye(self.dim)) <= self.dim * UNITARY_TOL
        return MatrixTuple(out, unitary=flag)

    def scale(self, c: complex) -> "MatrixTuple":
        flag = self.unitary and abs(abs(c) - 1.0) <= UNITARY_TOL
        return MatrixTuple(self.mats * c, unitary=flag)

    def adjoint(self) -> "MatrixTuple":
        """Member-wise conjugate transpose."""
        return MatrixTuple(self.mats.conj().transpose(0, 2, 1), unitary=self.unitary)

    # -- file format ---------------------------------------------------------

    def to_json(self) -> dict:
        """File form; ``matrices_b64`` is the standard padded base64 of the
        entries as little-endian float64 [re, im] pairs, members in order and
        each row-major, so every bit (-0.0, subnormals) reloads exactly."""
        return {
            "n": self.n,
            "N": self.dim,
            "unitary": bool(self.unitary),
            "matrices_b64": base64.b64encode(self.mats.astype("<c16", copy=False).tobytes()).decode("ascii"),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MatrixTuple":
        """Validate a file form: ``matrices_b64`` as ``to_json`` writes it, or the
        list form ``matrices`` of (n, N*N, 2) [re, im] pairs; exactly one of them."""
        if not isinstance(obj, dict):
            raise TupleFormatError("top level must be a JSON object")
        unknown = set(obj) - {"n", "N", "unitary", "matrices", "matrices_b64"}
        if unknown:
            raise TupleFormatError(f"unknown tuple keys: {sorted(unknown)}")
        for key in ("n", "N"):
            if key not in obj:
                raise TupleFormatError(f"tuple file missing field '{key}'")
        forms = [key for key in ("matrices", "matrices_b64") if key in obj]
        if not forms:
            raise TupleFormatError("tuple file missing field 'matrices' (or 'matrices_b64')")
        if len(forms) > 1:
            raise TupleFormatError("tuple file holds both 'matrices' and 'matrices_b64'; expected one")
        field = forms[0]
        n, N, unitary = obj["n"], obj["N"], obj.get("unitary", False)
        for key, val in (("n", n), ("N", N)):
            if not isinstance(val, int) or isinstance(val, bool) or val < 1:
                raise TupleFormatError(f"field '{key}' must be a positive integer, got {val!r}")
        if not isinstance(unitary, bool):
            raise TupleFormatError(f"field 'unitary' must be true or false, got {unitary!r}")
        if field == "matrices_b64":
            raw = _decode_entries(obj[field], n, N)
        else:
            try:
                raw = np.array(obj[field])
            except (TypeError, ValueError, OverflowError) as exc:
                raise TupleFormatError(f"field 'matrices' is not a numeric array: {exc}") from exc
        if raw.shape != (n, N * N, 2):
            raise TupleFormatError(
                f"field '{field}' has shape {raw.shape}, "
                f"expected (n, N*N, 2) = {(n, N * N, 2)} of [re, im] pairs"
            )
        if raw.dtype.kind not in "iuf":
            raise TupleFormatError(f"field '{field}' has non-numeric entries ({raw.dtype})")
        # the view keeps every bit of each [re, im] pair, -0.0 included
        mats = np.ascontiguousarray(raw, dtype=float).view(complex).reshape(n, N, N)
        if not np.all(np.isfinite(mats)):
            raise TupleFormatError(f"field '{field}' has NaN or infinite entries")
        return cls(mats, unitary=unitary)


def _decode_entries(text, n: int, N: int) -> np.ndarray:
    """The (n, N*N, 2) float64 [re, im] pairs held by a ``matrices_b64`` string."""
    if not isinstance(text, str):
        raise TupleFormatError(f"field 'matrices_b64' must be a base64 string, got {type(text).__name__}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a str with non-ASCII characters
        raise TupleFormatError(f"field 'matrices_b64' is not valid base64: {exc}") from exc
    if len(raw) != 16 * n * N * N:
        raise TupleFormatError(
            f"field 'matrices_b64' holds {len(raw)} bytes, expected 16*n*N^2 = {16 * n * N * N}"
        )
    # astype copies the read-only buffer into native-endian floats
    return np.frombuffer(raw, "<f8").astype(float).reshape(n, N * N, 2)


def _write_file(path, content, verbatim: str | None = None) -> None:
    """Write content to path through a temp file in the same directory, then
    moved into place, so a reader never sees a half-written file.

    A ``MatrixTuple`` goes through ``save_tuple``; a ``.csv`` name takes rows
    for ``csv.writer`` (CRLF line ends, kept by ``newline=""``); anything else
    is strict JSON, indent 2: a non-finite float raises ValueError instead of
    becoming a bare NaN or Infinity token. ``verbatim`` names a top-level key
    of a JSON object whose value is base64 text, which JSON's escape pass
    leaves as it is: the text goes into the file without that pass, in the
    same bytes. A file that cannot be written is one ``QexError`` line that
    starts with the path.
    """
    if isinstance(content, MatrixTuple):
        save_tuple(path, content)
        return
    path = Path(path)
    if path.suffix == ".csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(content)
        text = buf.getvalue()
    elif verbatim is None:
        text = json.dumps(content, indent=2, allow_nan=False) + "\n"
    else:
        # a top-level item is the only line that starts with two spaces and a
        # quote (strings hold no raw newline), and keys are unique, so the
        # empty slot occurs exactly once
        text = json.dumps({**content, verbatim: ""}, indent=2, allow_nan=False) + "\n"
        slot = f'\n  {json.dumps(verbatim)}: ""'
        text = text.replace(slot, f'{slot[:-1]}{content[verbatim]}"', 1)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="")
        os.replace(tmp, path)
    except OSError as exc:
        raise QexError(f"{path}: cannot write file: {exc.strerror or exc}") from exc
    finally:
        with contextlib.suppress(OSError):  # gone after the rename, or not ours to remove
            tmp.unlink()


def _load_json(path, parse, error):
    """``parse`` of the text of the file at path.

    ``parse`` maps the text to the object, through ``json.loads``. A file
    that cannot be read, is not UTF-8 or is not JSON (nesting too deep
    included) raises one ``error`` line that starts with the path; a
    ``QexError`` from ``parse`` is re-raised as its own type with the path
    in front.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise error(f"{path}: cannot read file: {reason}") from exc
    try:
        return parse(text)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:  # how json's decoder reports nesting too deep
        raise error(f"{path}: invalid JSON: nested too deeply") from exc
    except QexError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def save_tuple(path, t: MatrixTuple) -> None:
    """Write ``t.to_json()`` as a strict JSON file, through ``_write_file``'s
    temp file and rename.

    The entries travel as base64 bytes, so every one reloads bit-exactly, in
    about half the size of the decimal list form.
    """
    _write_file(path, t.to_json(), verbatim="matrices_b64")


# Tuple files parsed in this process, keyed by their exact text, so that a
# load of unchanged content costs a read and a str hash instead of a parse.
# Two entries is the most tuple files one command reads; they keep every
# repeat read of the perfbench ``pipeline`` chain (4 hits per round).
@functools.lru_cache(maxsize=2)
def _parse_tuple(text: str) -> MatrixTuple:
    return MatrixTuple.from_json(json.loads(text))


def load_tuple(path) -> MatrixTuple:
    """Read and validate a tuple file, with the path on any failure.

    Reads the base64 form ``save_tuple`` writes and the list form of
    per-entry [re, im] numbers; both go through ``MatrixTuple.from_json``.
    The parse is memoized on the file's exact text (never on its path or
    times, and never for a file that fails), so repeated loads of the same
    content may return the same object; it is frozen and its ``mats`` are
    read-only, so sharing it is safe.
    """
    return _load_json(path, _parse_tuple, TupleFormatError)
