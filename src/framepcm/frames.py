"""Unit-norm frames on the sphere: constructions and diagnostics.

Three families cover the experiments: the 2-D harmonic frame (exactly
tight and equidistributed), i.i.d. uniform points on S^{d-1} (tight in
expectation, O(sqrt(d/N)) defect), and the spherical Fibonacci lattice on
S^2 (low-discrepancy, defect O(1/N) empirically).  Tightness is measured
by the Frobenius defect ||(d/N) sum e_j e_j^T - I||_F and equidistribution
by comparing empirical monomial moments against the exact sphere moments.
Every frame is read in blocks of rows (:class:`UnitNormFrame`).

Row norms are one fused pass (:func:`row_norms`), shared by the uniform
sphere sampler, the unit-norm check of every block (which also rejects
non-finite vectors) and the Monte Carlo route of ``limit_error``.
The moment diagnostic walks the exponent compositions depth-first, one
vector product per monomial.
"""

from __future__ import annotations

import csv
import math

import numpy as np

__all__ = [
    "UnitNormFrame",
    "harmonic_frame_2d",
    "random_sphere_frame",
    "fibonacci_sphere_frame",
    "equidistribution_diagnostic",
    "sphere_moment",
    "frame_to_csv",
    "frame_from_csv",
]

_NORM_TOL = 1e-12
_BLOCK_ELEMENTS = 1 << 17  # the coordinates of one block of frame rows


def _block_rows(d: int) -> int:
    return max(1, _BLOCK_ELEMENTS // d)


class UnitNormFrame:
    """N unit vectors in R^d, the rows of an N x d frame, read block by block.

    :meth:`blocks` yields the rows in blocks of at most _BLOCK_ELEMENTS =
    2^17 coordinates, which bounds what a pass over a generated frame holds
    at any N.  A frame built from an array (:func:`frame_from_csv`), or
    generated and no larger than one block, holds its rows as the array
    ``vectors``, and its blocks are row views of it.  Each family defines
    its rows once, block by block, as ``source``: a callable that returns a
    fresh iterator over them.  A larger generated frame holds only that
    recipe, generated anew on each pass, so quantizing it, taking its
    tightness defect or saving it holds one block at a time.  Its N x d
    array exists only once ``vectors`` is read, as the moment diagnostic
    does; it is filled from the blocks then and kept, so the next
    diagnostic does not generate it again.  A small frame is held from
    construction, so that the diagnostic allocates no copy of its rows
    beside its own transposed one.

    Every generated block, and every block of the first full pass, is
    checked for unit norm.  ``tightness_defect`` is the Frobenius norm of
    (d/N) sum e e^T - I, the Gram matrix summed block by block on the
    first full pass, whichever consumer makes it; a held frame makes that
    pass on construction.
    """

    def __init__(self, dim: int, count: int, *, vectors=None, source=None):
        if count < 1:
            raise ValueError("a frame needs at least one vector")
        self.dim, self.count = dim, count
        self._vectors, self._source, self._defect = vectors, source, None
        if vectors is not None:
            self.tightness_defect  # the first pass: checks the rows, sums the Gram matrix

    def blocks(self):
        """The rows in order, block by block."""
        held = self._vectors
        gram = None if self._defect is not None else np.zeros((self.dim, self.dim))
        step = _block_rows(self.dim)
        start = 0
        for block in (self._source() if held is None else
                      (held[i:i + step] for i in range(0, self.count, step))):
            if held is None or gram is not None:
                _check_unit_norm(block, start)
            if gram is not None:
                gram += block.T @ block
            start += len(block)
            yield block
        if gram is not None:
            self._defect = _defect(gram, self.dim, self.count)

    @property
    def vectors(self) -> np.ndarray:
        if self._vectors is None:
            vectors = np.empty((self.count, self.dim))
            start = 0
            for block in self.blocks():
                vectors[start:start + len(block)] = block
                start += len(block)
            self._vectors = vectors
        return self._vectors

    @property
    def tightness_defect(self) -> float:
        if self._defect is None:
            for _ in self.blocks():  # the pass sums the Gram matrix
                pass
        return self._defect


def _check_unit_norm(vectors: np.ndarray, start: int) -> None:
    """``ValueError`` unless every row is unit norm to 1e-12; row i is frame
    vector start + i."""
    # written so that a NaN norm fails too
    if not np.max(np.abs(row_norms(vectors) - 1.0)) <= _NORM_TOL:
        finite = np.isfinite(vectors).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(f"frame vector {start + i} is not finite: {vectors[i]}")
        raise ValueError("frame vectors must be unit norm to 1e-12")


def _defect(gram: np.ndarray, d: int, N: int) -> float:
    return float(np.linalg.norm(gram * (d / N) - np.eye(d)))


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``v``, in one pass with no N x d temporary."""
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def uniform_sphere_points(rng, out: np.ndarray) -> np.ndarray:
    """Fill the m x d array ``out`` with m i.i.d. uniform points on S^{d-1}:
    ``rng``'s standard normals, rows normalized.  Returns ``out``.  The
    normal stream is the same however it is split, so successive fills
    draw what one fill of all their rows would."""
    rng.standard_normal(out=out)
    out /= row_norms(out)[:, None]
    return out


def _build(vectors: np.ndarray) -> UnitNormFrame:
    vectors = np.ascontiguousarray(vectors, dtype=float)
    N, d = vectors.shape
    return UnitNormFrame(d, N, vectors=vectors)


def _spans(d: int, N: int):
    """(start, stop) of each block of an N-row frame in R^d."""
    step = _block_rows(d)
    return ((start, min(start + step, N)) for start in range(0, N, step))


def _generated(d: int, N: int, source) -> UnitNormFrame:
    """The frame of N rows in R^d that ``source()`` yields block by block."""
    if N <= _block_rows(d):
        return _build(next(source()))
    return UnitNormFrame(d, N, source=source)


def harmonic_frame_2d(N: int) -> UnitNormFrame:
    """N equally spaced directions on the circle; exactly tight for N >= 3."""
    if N < 3:
        raise ValueError("need N >= 3")

    def source():
        for start, stop in _spans(2, N):
            ang = 2.0 * math.pi * np.arange(start, stop) / N
            yield np.column_stack([np.cos(ang), np.sin(ang)])
    return _generated(2, N, source)


def random_sphere_frame(d: int, N: int, seed: int) -> UnitNormFrame:
    """N i.i.d. uniform unit vectors (normalized Gaussians), reproducible per seed."""
    if d < 2:
        raise ValueError("need d >= 2")
    if N < d:
        raise ValueError("need N >= d")

    def source():
        rng = np.random.default_rng(seed)
        for start, stop in _spans(d, N):
            yield uniform_sphere_points(rng, np.empty((stop - start, d)))
    return _generated(d, N, source)


def fibonacci_sphere_frame(N: int) -> UnitNormFrame:
    """Spherical Fibonacci lattice on S^2: near-uniform golden-angle spiral.

    z is equally spaced with 1/2 offset and the azimuth advances by the
    golden angle pi(3 - sqrt 5); empirically the tightness defect decays
    like 1/N.
    """
    if N < 3:
        raise ValueError("need N >= 3")

    def source():
        for start, stop in _spans(3, N):
            i = np.arange(start, stop, dtype=float)
            z = 1.0 - 2.0 * (i + 0.5) / N
            phi = i * math.pi * (3.0 - math.sqrt(5.0))
            s = np.sqrt(1.0 - z * z)
            yield np.column_stack([s * np.cos(phi), s * np.sin(phi), z])
    return _generated(3, N, source)


def sphere_moment(d: int, beta) -> float:
    """Exact moment int_{S^{d-1}} prod_i z_i^{beta_i} dnu (normalized measure).

    Zero when any exponent is odd; otherwise the double-factorial form
    prod_i (beta_i - 1)!! / (d (d+2) ... (d + |beta| - 2)), both products
    exact integers and one correctly rounded division, so it holds at any d
    (the Gamma-function form overflows from d = 344 on).
    """
    # equidistribution_diagnostic calls this once per monomial, whose nonzero
    # exponents are at most its degree: only scans that run in C touch all d
    beta = tuple(beta)
    nonzero = tuple(map(int, filter(None, beta)))
    if (len(beta) != d or len(nonzero) + beta.count(0) != d
            or min(nonzero, default=0) < 0):
        raise ValueError("beta must be d nonnegative integers")
    if any(b % 2 for b in nonzero):
        return 0.0
    num = math.prod(math.prod(range(b - 1, 0, -2)) for b in nonzero)
    return num / math.prod(range(d, d + sum(nonzero) - 1, 2))


def equidistribution_diagnostic(frame: UnitNormFrame, max_degree: int) -> float:
    """Worst monomial-moment discrepancy up to the given total degree.

    Returns max over 1 <= |beta| <= max_degree of
    |(1/N) sum_j e_j^beta - sphere_moment(d, beta)|.

    Walks the exponent vectors beta depth-first, each one once: a child
    raises one exponent j at or after its parent's last raised one, and its
    monomial column is the parent's times column j of one transposed copy
    of the vectors.  That is C(d + max_degree, d) - 1 products of length N
    and as many ``sphere_moment`` calls; memory is the frame, its transposed
    copy and max_degree - 1 columns of partial products.  The one consumer
    that reads ``frame.vectors``: the walk holds N x d numbers anyway.
    """
    if max_degree < 1:
        raise ValueError("need max_degree >= 1")
    cols = np.ascontiguousarray(frame.vectors.T)
    partial = np.empty((max_degree - 1, frame.count))  # products at depth 1..deg-1
    return _moment_walk(cols, partial, [0] * frame.dim, None, 0, 0)


def _moment_walk(cols, partial, beta, parent, depth, first) -> float:
    """Worst moment discrepancy over the children of ``beta`` (whose monomial
    column is ``parent``) and their subtrees.  A module-level function, not a
    closure: a recursive closure is a reference cycle that would keep
    ``cols`` and ``partial`` alive until the garbage collector runs."""
    d = len(beta)
    worst = 0.0
    for j in range(first, d):
        beta[j] += 1
        mono = cols[j] if parent is None else np.multiply(parent, cols[j],
                                                          out=partial[depth - 1])
        worst = max(worst, abs(float(np.mean(mono)) - sphere_moment(d, beta)))
        if depth < len(partial):
            worst = max(worst, _moment_walk(cols, partial, beta, mono, depth + 1, j))
        beta[j] -= 1
    return worst


# CSV layout: one unit vector per row, columns c0..c{d-1} in coordinate order.

def frame_to_csv(frame: UnitNormFrame, path) -> None:
    """Write the frame block by block: a generated frame is not materialized."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"c{i}" for i in range(frame.dim)])
        for block in frame.blocks():
            for row in block:
                writer.writerow([repr(float(x)) for x in row])


def frame_from_csv(path) -> UnitNormFrame:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])  # an empty file reads as malformed below
        rows = [[float(x) for x in row] for row in reader]
    vectors = np.asarray(rows, dtype=float)
    if vectors.ndim != 2 or vectors.shape[1] != len(header):
        raise ValueError("malformed frame CSV")
    return _build(vectors)
