import gc
import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from numpy.testing import assert_allclose

from framepcm import frames
from framepcm import (
    equidistribution_diagnostic,
    fibonacci_sphere_frame,
    frame_from_csv,
    frame_to_csv,
    harmonic_frame_2d,
    random_sphere_frame,
    sphere_moment,
)


def test_harmonic_n4_vectors():
    f = harmonic_frame_2d(4)
    assert_allclose(f.vectors, [[1, 0], [0, 1], [-1, 0], [0, -1]], atol=1e-15)
    assert f.tightness_defect < 1e-12


@pytest.mark.parametrize("N", list(range(3, 41)))
def test_harmonic_exact_tightness(N):
    f = harmonic_frame_2d(N)
    assert f.tightness_defect < 1e-12
    assert np.linalg.norm(f.vectors.sum(axis=0)) < 1e-12  # roots-of-unity sum


def test_harmonic_rejects_small_N():
    with pytest.raises(ValueError):
        harmonic_frame_2d(2)


def test_perfect_reconstruction_tight_frame():
    f = harmonic_frame_2d(11)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(2) * 4.0
        rec = (f.dim / f.count) * ((f.vectors @ x) @ f.vectors)
        assert np.linalg.norm(rec - x) < 1e-10


def test_random_frame_norms_and_determinism():
    a = random_sphere_frame(2, 10, seed=5)
    b = random_sphere_frame(2, 10, seed=5)
    assert np.array_equal(a.vectors, b.vectors)  # bit-for-bit per seed
    assert np.max(np.abs(np.linalg.norm(a.vectors, axis=1) - 1.0)) < 1e-12
    c = random_sphere_frame(2, 10, seed=6)
    assert not np.array_equal(a.vectors, c.vectors)


def test_random_frame_concentration():
    f = random_sphere_frame(3, 10 ** 5, seed=1)
    assert f.tightness_defect < 0.05


def test_random_frame_moment_3sigma():
    # (1/N) sum (e_j . u)^2 -> 1/d within 3 standard errors
    d, N = 4, 20000
    f = random_sphere_frame(d, N, seed=11)
    u = np.zeros(d)
    u[0] = 1.0
    vals = (f.vectors @ u) ** 2
    se = vals.std(ddof=1) / math.sqrt(N)
    assert abs(vals.mean() - 1.0 / d) < 3 * se


def test_fibonacci_frame_diagnostics():
    f = fibonacci_sphere_frame(1000)
    assert f.dim == 3 and f.count == 1000
    assert np.max(np.abs(np.linalg.norm(f.vectors, axis=1) - 1.0)) < 1e-12
    assert f.tightness_defect < 0.01
    assert np.linalg.norm(f.vectors.mean(axis=0)) < 0.01


def test_fibonacci_defect_shrinks():
    d1 = fibonacci_sphere_frame(500).tightness_defect
    d2 = fibonacci_sphere_frame(5000).tightness_defect
    assert d2 < d1


def test_sphere_moments():
    assert sphere_moment(2, (0, 0)) == pytest.approx(1.0)
    assert sphere_moment(2, (2, 0)) == pytest.approx(0.5)
    assert sphere_moment(3, (2, 0, 0)) == pytest.approx(1.0 / 3.0)
    assert sphere_moment(3, (1, 0, 0)) == 0.0
    assert sphere_moment(4, (2, 2, 0, 0)) == pytest.approx(1.0 / 24.0)


def test_equidistribution_harmonic_low_degrees():
    for N in (5, 8, 13):
        assert equidistribution_diagnostic(harmonic_frame_2d(N), 3) < 1e-12


def test_equidistribution_random_improves_with_N():
    med = []
    for N in (10 ** 3, 10 ** 4):
        vals = [
            equidistribution_diagnostic(random_sphere_frame(3, N, seed=s), 3)
            for s in (0, 1, 2)
        ]
        med.append(sorted(vals)[1])
    assert med[1] < med[0]


def _unblocked_vectors(kind, d, N, seed):
    # each family's N x d array as it was built in one piece, before frames
    # were generated block by block
    if kind == "harmonic":
        ang = 2.0 * math.pi * np.arange(N) / N
        return np.column_stack([np.cos(ang), np.sin(ang)])
    if kind == "fibonacci":
        i = np.arange(N, dtype=float)
        z = 1.0 - 2.0 * (i + 0.5) / N
        phi = i * math.pi * (3.0 - math.sqrt(5.0))
        s = np.sqrt(1.0 - z * z)
        return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])
    v = np.random.default_rng(seed).standard_normal((N, d))
    v /= np.sqrt(np.einsum("ij,ij->i", v, v))[:, None]
    return v


_BUILD = {"harmonic": lambda d, N, seed: harmonic_frame_2d(N),
          "fibonacci": lambda d, N, seed: fibonacci_sphere_frame(N),
          "random": random_sphere_frame}


@pytest.mark.parametrize("kind, d", [("harmonic", 2), ("fibonacci", 3), ("random", 3),
                                     ("random", 8)])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_blocks_equal_the_unblocked_vectors(kind, d, extra):
    rows = frames._BLOCK_ELEMENTS // d
    N = rows + extra
    frame = _BUILD[kind](d, N, 4)
    ref = _unblocked_vectors(kind, d, N, 4)
    blocks = list(frame.blocks())
    assert [len(b) for b in blocks] == ([N] if N <= rows else [rows, N - rows])
    assert np.array_equal(np.concatenate(blocks), ref)  # bit for bit
    # a second pass generates the same rows; vectors is filled from them
    assert np.array_equal(np.concatenate(list(frame.blocks())), ref)
    assert np.array_equal(frame.vectors, ref)


@pytest.mark.parametrize("kind, d, N", [("harmonic", 2, 70_000), ("fibonacci", 3, 50_000),
                                        ("random", 8, 40_000)])
def test_generated_frame_reads_as_its_materialized_copy(kind, d, N):
    # a frame larger than one block is held as its recipe; the defect of its
    # first pass and its reconstruction equal those of the same rows held as
    # an array, bit for bit, and reading vectors changes neither
    from framepcm import QuantScheme, quantize_and_reconstruct

    frame = _BUILD[kind](d, N, 7)
    held = frames._build(_unblocked_vectors(kind, d, N, 7))
    x, scheme = np.linspace(1.0, 2.0, d), QuantScheme(0.37)
    rec, err = quantize_and_reconstruct(x, frame, scheme)
    assert frame.tightness_defect == held.tightness_defect
    held_rec, held_err = quantize_and_reconstruct(x, held, scheme)
    assert np.array_equal(rec, held_rec) and err == held_err
    assert np.array_equal(frame.vectors, held.vectors)
    assert quantize_and_reconstruct(x, frame, scheme)[1] == err


def test_frame_csv_roundtrip(tmp_path):
    f = random_sphere_frame(3, 50, seed=2)
    path = tmp_path / "frame.csv"
    frame_to_csv(f, path)
    g = frame_from_csv(path)
    assert g.dim == f.dim and g.count == f.count
    assert np.array_equal(f.vectors, g.vectors)  # repr round-trip is exact


def test_frame_csv_of_a_generated_frame_writes_its_rows_in_order(tmp_path):
    f = harmonic_frame_2d(frames._BLOCK_ELEMENTS // 2 + 3)
    path = tmp_path / "frame.csv"
    frame_to_csv(f, path)
    lines = path.read_text().splitlines()
    ref = _unblocked_vectors("harmonic", 2, f.count, 0)
    assert lines[0] == "c0,c1" and len(lines) == f.count + 1
    assert np.array_equal(frame_from_csv(path).vectors, ref)


@pytest.mark.parametrize("row", ["nan,nan", "inf,0.0", "0.6,-inf"])
def test_frame_csv_rejects_non_finite_vectors(tmp_path, row):
    path = tmp_path / "frame.csv"
    path.write_text(f"c0,c1\n1.0,0.0\n{row}\n0.0,nan\n")
    with pytest.raises(ValueError, match="frame vector 1 is not finite"):
        frame_from_csv(path)


def test_a_frame_of_no_vectors_is_rejected():
    with pytest.raises(ValueError, match="at least one vector"):
        frames.UnitNormFrame(3, 0, vectors=np.empty((0, 3)))


def test_frame_csv_rejects_an_empty_file(tmp_path):
    path = tmp_path / "frame.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="malformed frame CSV"):
        frame_from_csv(path)


def test_frame_rejects_non_unit_vectors_to_1e_12():
    v = np.array([[1.0, 0.0], [0.0, 1.0 + 2e-12]])
    with pytest.raises(ValueError, match="unit norm to 1e-12"):
        frames._build(v)
    frames._build(np.array([[1.0, 0.0], [0.0, 1.0 + 5e-13]]))


def _gamma_form(d, beta):
    # the closed form sphere_moment used before: ~2 + 2 len(beta) gamma
    # values and as many products, each rounded
    if any(b % 2 for b in beta):
        return 0.0
    out = math.gamma(d / 2.0) / math.gamma((d + sum(beta)) / 2.0)
    for b in beta:
        out *= math.gamma((b + 1) / 2.0) / math.gamma(0.5)
    return out


def _exact_moment(d, beta):
    # the Gamma form in exact rationals: Gamma(d/2)/Gamma((d+|beta|)/2) is
    # 1/prod_k (d/2 + k), Gamma((b+1)/2)/Gamma(1/2) is prod_j (j + 1/2)
    if any(b % 2 for b in beta):
        return Fraction(0)
    out = Fraction(1)
    for k in range(sum(beta) // 2):
        out /= Fraction(d, 2) + k
    for b in beta:
        for j in range(b // 2):
            out *= Fraction(2 * j + 1, 2)
    return out


def _partitions(n, most):
    """The partitions of n into parts of at most ``most``, largest first."""
    if n == 0:
        yield ()
    for k in range(min(n, most), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


# the nonzero exponents of every beta with 1 <= |beta| <= 6, up to order
_EXPONENT_SETS = [p for n in range(1, 7) for p in _partitions(n, n)]


def test_sphere_moment_is_the_correctly_rounded_rational():
    for d in range(2, 41):
        for exps in _EXPONENT_SETS:
            if len(exps) > d:
                continue
            for beta in (exps + (0,) * (d - len(exps)), (0,) * (d - len(exps)) + exps):
                m = sphere_moment(d, beta)
                assert m == float(_exact_moment(d, beta))
                ref = _gamma_form(d, beta)
                assert abs(m - ref) <= 16 * math.ulp(ref)  # the Gamma form's own rounding


def test_sphere_moment_past_gamma_overflow():
    assert sphere_moment(400, (2,) + (0,) * 399) == 1 / 400
    assert sphere_moment(400, (2, 2) + (0,) * 398) == 1 / (400 * 402)
    assert sphere_moment(2000, (4,) + (0,) * 1999) == 3 / (2000 * 2002)


def _tuple_enumeration(frame, max_degree):
    # the diagnostic as it was: every exponent tuple in [0, max_degree]^d,
    # filtered by total degree, each monomial rebuilt from strided columns
    d, v = frame.dim, frame.vectors
    worst = 0.0
    for beta in product(range(max_degree + 1), repeat=d):
        total = sum(beta)
        if total == 0 or total > max_degree:
            continue
        emp = np.ones(frame.count)
        for i, b in enumerate(beta):
            if b:
                emp = emp * v[:, i] ** b
        worst = max(worst, abs(float(np.mean(emp)) - sphere_moment(d, beta)))
    return worst


_WALK_FRAMES = ([harmonic_frame_2d(N) for N in (5, 12, 301)]
                + [fibonacci_sphere_frame(N) for N in (50, 1001)]
                + [random_sphere_frame(d, 600, seed=d) for d in range(2, 7)])


@pytest.mark.parametrize("degree", range(1, 6))
@pytest.mark.parametrize("frame", _WALK_FRAMES, ids=lambda f: f"d{f.dim}-N{f.count}")
def test_moment_walk_equals_tuple_enumeration(frame, degree):
    assert abs(equidistribution_diagnostic(frame, degree)
               - _tuple_enumeration(frame, degree)) <= 1e-15


@pytest.mark.parametrize("d, degree", [(2, 1), (2, 5), (3, 4), (5, 3), (6, 5), (8, 4)])
def test_moment_walk_visits_each_composition_once(monkeypatch, d, degree):
    seen = []

    def recording_moment(dim, beta):
        seen.append(tuple(beta))
        return 0.0

    monkeypatch.setattr(frames, "sphere_moment", recording_moment)
    equidistribution_diagnostic(random_sphere_frame(d, 2 * d, seed=0), degree)
    assert len(seen) == math.comb(d + degree, d) - 1
    assert len(set(seen)) == len(seen)
    assert all(len(b) == d and 1 <= sum(b) <= degree for b in seen)


def test_moment_walk_memory_and_release():
    # the frame's transposed copy and degree - 1 partial products at most,
    # all freed on return without the cycle collector
    frame = random_sphere_frame(6, 20000, seed=1)
    column = frame.count * 8
    gc.disable()
    tracemalloc.start()
    try:
        equidistribution_diagnostic(frame, 4)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak <= (frame.dim + 3) * column + 65536
    assert current < column


def test_moment_walk_rejects_degree_zero():
    with pytest.raises(ValueError):
        equidistribution_diagnostic(harmonic_frame_2d(5), 0)
