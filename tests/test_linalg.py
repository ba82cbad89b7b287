import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundbench import linalg
from boundbench.linalg import (
    OperatorNormBracket,
    ShapeMismatchError,
    WeightStack,
    descent_sweep,
    frobenius_norm,
    operator_norm,
    stack_axpy,
    stack_dot,
)
from stack_helpers import product_operator_bound, stack_norms, stack_scale, zero_stack


def random_stack(p, L, rng, scale=1.0):
    return WeightStack(
        hidden=tuple(scale * rng.standard_normal((p, p)) for _ in range(L)),
        outer=scale * rng.standard_normal((1, p)),
    )


# ---------------------------------------------------------------------------
# frobenius_norm


def test_frobenius_zero_stack():
    assert frobenius_norm(zero_stack(p=2, L=1)) == 0.0


def test_frobenius_single_entry():
    hidden = np.zeros((2, 2))
    hidden[0, 1] = 3.0
    stack = WeightStack(hidden=(hidden,), outer=np.zeros((1, 2)))
    assert frobenius_norm(stack) == 3.0


def test_frobenius_matches_scalar_loop_oracle():
    rng = np.random.default_rng(7)
    stack = random_stack(5, 3, rng)
    total = 0.0
    for m in stack.layers():
        for v in m.ravel():
            total += float(v) * float(v)
    expected = math.sqrt(total)
    assert abs(frobenius_norm(stack) - expected) <= 1e-14 * expected


def flat_stack(p, L, rng):
    return linalg._wrap(rng.standard_normal(L * p * p + p), p, L)


@pytest.mark.parametrize("p, L", [(1, 1), (4, 1), (8, 2), (128, 1), (90, 4), (300, 2), (512, 1)])
def test_single_block_reductions_equal_one_einsum(p, L):
    # a stack sum is one einsum over the whole vector and a layer sum one
    # over the layer, at every size: (300, 2) and (512, 1) hold 180,300 and
    # 262,656 entries
    rng = np.random.default_rng(p + L)
    a, b = flat_stack(p, L, rng), flat_stack(p, L, rng)
    assert frobenius_norm(a) == math.sqrt(float(np.einsum("i,i->", a.flat, a.flat)))
    assert stack_dot(a, b) == float(np.einsum("i,i->", a.flat, b.flat))
    per_layer = [math.sqrt(float(np.einsum("i,i->", m.ravel(), m.ravel()))) for m in a.layers()]
    assert list(stack_norms(a).per_layer_frobenius) == per_layer


@pytest.mark.parametrize("p, L", [(4, 1), (300, 2), (512, 0)])
def test_descent_sweep_equals_the_stack_helpers(p, L):
    # (300, 2) has 180,300 entries in three layers; depth 0 is the tail that
    # the descent loop sweeps at L = 1, the outer row alone
    rng = np.random.default_rng(p + L)
    V, grad, anchor = (flat_stack(p, L, rng) for _ in range(3))
    sweep = descent_sweep(V, grad.flat, anchor, 0.05)
    assert math.sqrt(sweep.grad_sq) == frobenius_norm(grad)
    assert sweep.grad_dot == stack_dot(grad, V)
    drift = stack_norms(stack_axpy(V, -1.0, anchor)).per_layer_frobenius
    assert [math.sqrt(s) for s in sweep.layer_drift_sq] == list(drift)
    new = stack_axpy(V, -0.05, grad)
    assert sweep.next_flat.tobytes() == new.flat.tobytes()
    assert math.sqrt(sweep.next_sq) == frobenius_norm(new)


def test_descent_sweep_rejects_a_mismatched_gradient_or_anchor():
    rng = np.random.default_rng(7)
    V = flat_stack(4, 1, rng)
    with pytest.raises(ShapeMismatchError, match="gradient"):
        descent_sweep(V, np.zeros(V.flat.size - 1), V, 0.1)
    # (p, L) = (1, 5) and (2, 1) have flat vectors of the same length
    one, two = flat_stack(1, 5, rng), flat_stack(2, 1, rng)
    with pytest.raises(ShapeMismatchError, match="stack shapes differ"):
        descent_sweep(one, two.flat, two, 0.1)


# ---------------------------------------------------------------------------
# operator_norm


def svd_top(m):
    return float(np.linalg.svd(m, compute_uv=False)[0])


def assert_brackets(result, m, width=1e-11):
    sigma = svd_top(m)
    assert isinstance(result, OperatorNormBracket)
    assert 0.0 <= result.lower <= result.upper
    assert result.lower <= sigma * (1 + 1e-12)
    assert sigma <= result.upper * (1 + 1e-12)
    # the bracket is tight: by default both ends agree with the norm to
    # rounding (the zero matrix's upper end is the square root of the
    # smallest normal)
    assert result.upper - result.lower <= width * sigma + 1e-150


def lanczos_start(k):
    v = np.ones(k) + 1e-3 * np.random.default_rng(0x5EED).standard_normal(k)
    return v / np.linalg.norm(v)


def start_orthogonal_matrix(k=40):
    """Symmetric m whose top singular direction is orthogonal to the
    Lanczos start vector, just above a second direction the start reaches."""
    rng = np.random.default_rng(13)
    basis = rng.standard_normal((k, k))
    basis[:, 0] = lanczos_start(k)
    q, _ = np.linalg.qr(basis)  # q[:, 1:] is orthogonal to the start vector
    lam = np.concatenate([[0.3, 1.0 + 1e-6, 1.0], rng.uniform(0.0, 0.5, k - 3)])
    return (q * np.sqrt(lam)) @ q.T


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """The (shape, finite, symmetric) of each matrix handed to eigvalsh."""
    calls = []
    original = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        calls.append((a.shape, bool(np.isfinite(a).all()), bool((a == a.T).all())))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return calls


@pytest.fixture
def certificate_calls(monkeypatch):
    """The (finite, symmetric, verdict) of each certificate matrix factored."""
    calls = []
    original = linalg._cholesky_in_place

    def spy(a):
        seen = (bool(np.isfinite(a).all()), bool((a == a.T).all()))
        calls.append((*seen, original(a)))
        return calls[-1][-1]

    monkeypatch.setattr(linalg, "_cholesky_in_place", spy)
    return calls


def test_operator_norm_diagonal():
    result = operator_norm(np.diag([3.0, 1.0]))
    assert_brackets(result, np.diag([3.0, 1.0]))
    assert result.upper == pytest.approx(3.0, rel=1e-12)
    assert 1 <= result.iterations <= 2


def test_operator_norm_identity():
    result = operator_norm(np.eye(4))
    assert result.lower == pytest.approx(1.0, rel=1e-15)
    assert 1.0 <= result.upper <= 1.0 + 1e-12


def test_operator_norm_vs_svd_oracle():
    rng = np.random.default_rng(11)
    for m in (rng.standard_normal((8, 8)), rng.standard_normal((120, 120)) / 11.0):
        assert_brackets(operator_norm(m), m)
    for _ in range(300):
        r, c = (int(v) for v in rng.integers(1, 9, size=2))
        m = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal((r, c))
        assert_brackets(operator_norm(m), m)


def test_operator_norm_rectangular_and_zero():
    rng = np.random.default_rng(12)
    for shape in ((5, 12), (12, 5), (1, 6), (6, 1)):
        m = rng.standard_normal(shape)
        assert_brackets(operator_norm(m), m)
    zero = operator_norm(np.zeros((3, 3)))
    assert_brackets(zero, np.zeros((3, 3)))
    # a zero Gram needs a positive shift to pass the Cholesky certificate
    assert zero.lower == 0.0 and zero.upper > 0.0


@pytest.mark.parametrize(
    "m",
    [
        np.outer(np.arange(1.0, 7.0), np.linspace(-1.0, 2.0, 9)),
        np.diag([1.0, 1.0 - 1e-12, 0.5]),
        start_orthogonal_matrix(),
    ],
    ids=["rank_one", "near_degenerate_top", "top_orthogonal_to_start"],
)
def test_operator_norm_special_spectra_bracket_svd(m):
    assert_brackets(operator_norm(m), m)


def test_operator_norm_certificate_needs_no_fallback(eigvalsh_calls):
    rng = np.random.default_rng(19)
    assert operator_norm(rng.standard_normal((64, 64))).ended == "certificate"
    assert eigvalsh_calls == []


def test_operator_norm_failed_certificate_falls_back_to_eigvalsh(eigvalsh_calls):
    m = start_orthogonal_matrix()
    result = operator_norm(m)
    # G formed again: the failed in-place factorisation left NaN behind
    assert eigvalsh_calls == [((40, 40), True, True)]
    assert result.ended == "eigvalsh_estimate"
    assert_brackets(result, m)
    # Lanczos alone reaches only the second value, 1, a relative 5e-7 too low
    assert result.lower == pytest.approx(np.sqrt(1.0 + 1e-6), rel=1e-12)


def test_operator_norm_step_cap_falls_back_to_eigvalsh(monkeypatch, eigvalsh_calls):
    monkeypatch.setattr(linalg, "_LANCZOS_STEP_CAP", 2)
    m = np.random.default_rng(23).standard_normal((10, 10))
    result = operator_norm(m)
    assert result.iterations == 2
    assert eigvalsh_calls == [((10, 10), True, True)]
    assert result.ended == "eigvalsh_estimate"
    assert_brackets(result, m)


def rotated_spectrum(lam, seed):
    """Symmetric m = Q diag(sqrt(lam)) Q^T, so m m^T has eigenvalues lam."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(lam), len(lam))))
    return (q * np.sqrt(lam)) @ q.T


def test_operator_norm_tiny_top_gap_brackets_svd(eigvalsh_calls, certificate_calls):
    # the second eigenvalue sits 1e-9 (relative) below the top. The top Ritz
    # value settles between the two before the second Ritz value reaches
    # them, so theta - theta_2 overstates the gap and r^2 / gap reads
    # rounding level too early; the certificate rejects that shift, and the
    # retry with the Ritz residual r (about 3.8e-8) as the shift proves a
    # bracket about r / 2 wide without eigvalsh
    rng = np.random.default_rng(29)
    lam = np.concatenate([[1.0, 1.0 - 1e-9], rng.uniform(0.0, 0.9, 78)])
    m = rotated_spectrum(lam, seed=31)
    result = operator_norm(m)
    assert_brackets(result, m, width=3e-8)
    assert result.ended == "certificate"
    assert eigvalsh_calls == []
    # the retry factors sI - G formed again, not the NaN the first attempt
    # left (which OpenBLAS would pass)
    assert certificate_calls == [(True, True, False), (True, True, True)]


@pytest.mark.parametrize("p", [256, 512])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_operator_norm_gaussian_layers_need_no_fallback(p, seed, eigvalsh_calls):
    m = np.random.default_rng(seed).normal(0.0, math.sqrt(2.0 / p), size=(p, p))
    sigma = svd_top(m)
    result = operator_norm(m)
    assert eigvalsh_calls == []
    assert result.ended == "certificate"
    assert result.lower <= sigma * (1 + 1e-12)
    assert sigma <= result.upper * (1 + 1e-12)
    # the shift beyond the rounding the upper end must cover (1.5e-11 relative at p=512)
    assert math.sqrt(result.upper**2 - rounding_terms(m, result.lower**2)) - result.lower <= 1e-11 * sigma


def rounding_terms(m, s):
    """What an upper end at shift s must add for rounding, recomputed from m:
    gamma_K ||m||_F^2 for forming the k x k Gram from sums of K products
    (Higham 2002, section 3.5), and Rump's gamma_(k+1) / (1 - gamma_(k+1))
    tr(sI - G) for a Cholesky test of sI - G that runs to completion."""
    k, inner = min(m.shape), max(m.shape)
    u = 2.0**-53

    def gamma(j):
        return j * u / (1 - j * u)

    frob_sq = math.fsum(m.ravel() ** 2)
    return gamma(inner) * frob_sq + gamma(k + 1) / (1 - gamma(k + 1)) * (k * s - frob_sq)


@pytest.mark.parametrize("case", ["gaussian_256", "rank_one", "near_degenerate_top", "wide", "step_cap"])
def test_operator_norm_upper_end_covers_its_rounding(monkeypatch, case):
    rng = np.random.default_rng(29)
    if case == "gaussian_256":
        m = rng.normal(0.0, math.sqrt(2.0 / 256), size=(256, 256))
    elif case == "rank_one":
        m = np.outer(rng.standard_normal(256), rng.standard_normal(256))
    elif case == "near_degenerate_top":
        m = rotated_spectrum(np.r_[np.linspace(0.1, 0.5, 254), 1.0 - 1e-13, 1.0], 31)
    elif case == "wide":
        m = rng.standard_normal((64, 1024))
    else:  # the eigvalsh fallback widens both ends by the same terms
        monkeypatch.setattr(linalg, "_LANCZOS_STEP_CAP", 2)
        m = rng.standard_normal((256, 256))
    result = operator_norm(m)
    assert result.ended == ("eigvalsh_estimate" if case == "step_cap" else "certificate")
    theta = result.lower**2  # at most the certificate's shift, and below the fallback's eigenvalue
    assert result.upper**2 - theta >= rounding_terms(m, theta)
    assert_brackets(result, m)


def _copying_cholesky(a):
    """The verdict of np.linalg.cholesky, which leaves `a` as it is."""
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def gaussian_certificate_matrix(relative):
    """sI - G for a Gaussian G at k = 256, with s = lambda_max (1 + relative)."""
    gram = linalg._gram(np.random.default_rng(43).standard_normal((256, 256)))
    s = float(np.linalg.eigvalsh(gram)[-1]) * (1.0 + relative)
    return s * np.eye(256) - gram


@pytest.mark.parametrize(
    "a, definite",
    [
        (np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 2.0]]), True),
        (np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), False),
        (np.diag(np.full(3, np.finfo(np.float64).tiny)), True),
        (gaussian_certificate_matrix(1e-10), True),
        (gaussian_certificate_matrix(-1e-10), False),
    ],
    ids=["definite", "indefinite", "zero_gram_plus_tiny", "gaussian_above_top", "gaussian_below_top"],
)
def test_in_place_cholesky_gives_numpys_verdict(a, definite):
    assert (a == a.T).all()
    buffer = a.copy()
    assert linalg._cholesky_in_place(buffer) == _copying_cholesky(a) == definite
    if definite:  # the lower factor, stored in the buffer's Fortran view
        np.testing.assert_array_equal(buffer.T, np.linalg.cholesky(a))
    else:
        assert np.isnan(buffer).all()


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (5, 12), (12, 5), (300, 40), (1024, 1024)])
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_gram_is_bitwise_symmetric(shape, layout):
    # the in-place certificate factors G's transpose, which must be G itself
    rng = np.random.default_rng(47)
    if layout == "strided":
        m = rng.standard_normal((2 * shape[0], 3 * shape[1]))[::2, ::3]
    else:
        m = np.asarray(rng.standard_normal(shape), order=layout)
    gram = linalg._gram(m)
    assert gram.flags.c_contiguous
    assert (gram == gram.T).all()


def test_operator_norm_brackets_equal_the_copying_cholesky(monkeypatch):
    # every path (the certificate, its retry after a failed factorisation,
    # eigvalsh after a failed one) gives the bracket that np.linalg.cholesky's
    # verdict gives
    rng = np.random.default_rng(53)
    lam = np.concatenate([[1.0, 1.0 - 1e-9], rng.uniform(0.0, 0.9, 78)])
    matrices = [
        rng.standard_normal((64, 64)),
        rng.standard_normal((7, 30)),
        rotated_spectrum(lam, seed=31),
        start_orthogonal_matrix(),
        np.zeros((3, 3)),
        1e-200 * rng.standard_normal((5, 12)),
    ]
    in_place = [operator_norm(m) for m in matrices]
    monkeypatch.setattr(linalg, "_cholesky_in_place", _copying_cholesky)
    assert in_place == [operator_norm(m) for m in matrices]
    assert [b.ended for b in in_place] == ["certificate"] * 3 + ["eigvalsh_estimate"] + ["certificate"] * 2


def test_operator_norm_allocates_no_factor():
    # a 1024 x 1024 Gaussian: G (8 MB) and the Lanczos basis are the traced
    # arrays; np.linalg.cholesky added an 8 MB factor, a peak of 2.00 x G.
    # LAPACK's own work buffer is allocated with plain malloc, which
    # tracemalloc does not see, so this pins only the factor array left out
    m = np.random.default_rng(59).standard_normal((1024, 1024))
    tracemalloc.start()
    try:
        result = operator_norm(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.ended == "certificate"
    assert peak < 1.5 * m.nbytes


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_operator_norm_extreme_scales_bracket_svd(scale):
    rng = np.random.default_rng(37)
    for shape in ((1, 1), (3, 3), (5, 12), (40, 40)):
        m = scale * rng.standard_normal(shape)
        sigma = svd_top(m)
        result = operator_norm(m)
        assert result.lower <= sigma * (1 + 1e-12)
        assert sigma <= result.upper * (1 + 1e-12)
        assert result.upper - result.lower <= 1e-11 * sigma


def test_operator_norm_gram_overflow_in_one_entry():
    # finite, but m m^T overflows: the norm is 1e200 to rounding
    m = np.array([[1e200, 1.0], [0.0, 1.0]])
    result = operator_norm(m)
    assert result.lower <= 1e200 * (1 + 1e-15) and 1e200 <= result.upper
    assert result.upper - result.lower <= 1e-11 * 1e200


def test_operator_norm_beyond_the_largest_float():
    # every entry is finite but the norm, 2e308, is not: the lower end stops
    # at the largest float and the upper end is infinite
    result = operator_norm(np.full((2, 2), 1e308))
    assert result.lower == np.finfo(np.float64).max and result.upper == math.inf


@pytest.mark.parametrize("e", [700, -700])
def test_operator_norm_rescaling_is_exact(e):
    # entries below 1 in size: the scaled copy is bit for bit the original,
    # so the bracket is the original's times 2^e
    m = np.random.default_rng(41).standard_normal((20, 30))
    m /= 2 * np.abs(m).max()
    plain = operator_norm(m)
    scaled = operator_norm(np.ldexp(m, e))
    assert scaled == (math.ldexp(plain.lower, e), math.ldexp(plain.upper, e), plain.iterations, plain.ended)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_operator_norm_rejects_non_finite_entries(bad):
    m = np.eye(3)
    m[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        operator_norm(m)


def test_operator_norm_rejects_bad_inputs():
    with pytest.raises(ValueError):
        operator_norm(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        operator_norm(np.zeros(3))


# ---------------------------------------------------------------------------
# stack_dot / stack_axpy


def test_stack_dot_unit_entries():
    p, L = 3, 2
    ones = WeightStack(
        hidden=tuple(np.ones((p, p)) for _ in range(L)), outer=np.ones((1, p))
    )
    k = L * p * p + p
    assert stack_dot(ones, ones) == k


def test_stack_dot_disjoint_one_hot():
    a_h = np.zeros((2, 2))
    a_h[0, 0] = 1.0
    b_h = np.zeros((2, 2))
    b_h[1, 1] = 1.0
    a = WeightStack(hidden=(a_h,), outer=np.zeros((1, 2)))
    b = WeightStack(hidden=(b_h,), outer=np.zeros((1, 2)))
    assert stack_dot(a, b) == 0.0


def test_stack_dot_matches_flatten_oracle():
    rng = np.random.default_rng(21)
    a = random_stack(4, 2, rng)
    b = random_stack(4, 2, rng)
    flat_a = np.concatenate([m.ravel() for m in a.layers()])
    flat_b = np.concatenate([m.ravel() for m in b.layers()])
    expected = float(flat_a @ flat_b)
    assert abs(stack_dot(a, b) - expected) <= 1e-14 * abs(expected)


def test_stack_dot_shape_mismatch():
    a = zero_stack(2, 1)
    for b in (zero_stack(3, 1), zero_stack(2, 2)):
        with pytest.raises(ShapeMismatchError, match="stack shapes differ"):
            stack_dot(a, b)


def test_stack_axpy_alpha_zero_copies():
    rng = np.random.default_rng(22)
    y = random_stack(3, 2, rng)
    x = random_stack(3, 2, rng)
    out = stack_axpy(y, 0.0, x)
    for my, mo in zip(y.layers(), out.layers()):
        np.testing.assert_array_equal(my, mo)


def test_stack_axpy_self_cancellation():
    rng = np.random.default_rng(23)
    y = random_stack(3, 1, rng)
    out = stack_axpy(y, -1.0, y)
    assert frobenius_norm(out) == 0.0


def test_stack_axpy_entrywise_oracle_and_purity():
    rng = np.random.default_rng(24)
    y = random_stack(3, 2, rng)
    x = random_stack(3, 2, rng)
    y_before = [m.copy() for m in y.layers()]
    out = stack_axpy(y, 0.7, x)
    for my, mx, mo in zip(y.layers(), x.layers(), out.layers()):
        for idx in np.ndindex(my.shape):
            assert abs(mo[idx] - (my[idx] + 0.7 * mx[idx])) <= 1e-15
    for before, after in zip(y_before, y.layers()):
        np.testing.assert_array_equal(before, after)


# ---------------------------------------------------------------------------
# stack norms and invariants


def test_stack_norms_consistency():
    rng = np.random.default_rng(31)
    stack = random_stack(4, 2, rng)
    norms = stack_norms(stack)
    sq = sum(f * f for f in norms.per_layer_frobenius)
    assert norms.frobenius**2 == pytest.approx(sq, rel=1e-12)
    for op, fro, m in zip(norms.per_layer_operator, norms.per_layer_frobenius, stack.layers()):
        assert op == operator_norm(m)
        assert op.upper <= fro * (1 + 1e-10)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    a = random_stack(3, 2, rng, scale=float(rng.uniform(0.1, 10)))
    b = random_stack(3, 2, rng, scale=float(rng.uniform(0.1, 10)))
    lhs = frobenius_norm(stack_axpy(a, 1.0, b))
    assert lhs <= frobenius_norm(a) + frobenius_norm(b) + 1e-12


def test_product_of_operator_norms_bounded_by_collective_norm():
    # every contiguous run of layers obeys the collective-norm product bound
    for seed in range(60):
        rng = np.random.default_rng(9000 + seed)
        p = int(rng.integers(2, 8))
        L = int(rng.integers(1, 5))
        stack = random_stack(p, L, rng)
        floor = math.sqrt(L + 0.5)
        if frobenius_norm(stack) < floor:
            stack = stack_scale(stack, 1.001 * floor / frobenius_norm(stack))
        bound = product_operator_bound(stack)
        ops = [operator_norm(m).upper for m in stack.layers()]
        for i in range(len(ops)):
            for j in range(i + 1, len(ops) + 1):
                prod = float(np.prod(ops[i:j]))
                assert prod <= bound + 1e-10 * max(bound, 1.0)


# ---------------------------------------------------------------------------
# construction rules


def test_stack_requires_square_hidden_layers():
    with pytest.raises(ShapeMismatchError):
        WeightStack(hidden=(np.zeros((2, 3)),), outer=np.zeros((1, 2)))


def test_stack_requires_hidden_layer():
    with pytest.raises(ValueError):
        WeightStack(hidden=(), outer=np.zeros((1, 2)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: WeightStack(hidden=(np.zeros((2, 2)),), outer=np.zeros(2)), r"outer layer must be 1 x p, got \(2,\)"),
        (lambda: WeightStack(hidden=(np.zeros((2, 2)),), outer=np.zeros((2, 2))), r"outer layer must be 1 x p"),
        (lambda: WeightStack(hidden=(np.zeros((0, 0)),), outer=np.zeros((1, 0))), "width must be at least 1"),
        (lambda: WeightStack.from_layers([np.zeros((1, 2))]), "need at least one hidden layer plus the outer row"),
    ],
    ids=["outer-vector", "outer-square", "zero-width", "from-one-matrix"],
)
def test_stack_construction_names_the_shape_rule_it_breaks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_stack_rejects_non_finite():
    bad = np.zeros((2, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        WeightStack(hidden=(bad,), outer=np.zeros((1, 2)))


def test_stack_arrays_frozen():
    stack = zero_stack(2, 1)
    with pytest.raises(ValueError):
        stack.hidden[0][0, 0] = 1.0
