import dataclasses
import math

import numpy as np
import pytest

from fistalab import CompositeProblem, make_convex_qp, make_nonconvex_qp
from fistalab.core import CountedProblem, as_vector

from conftest import sample_feasible


def quad_problem(dim, f, grad, L, h_value=None, h_prox=None):
    """Tiny problem wrapper with a [-1, 1]^dim box default for h."""
    if h_value is None:
        h_value = lambda y: 0.0 if np.all(np.abs(y) <= 1.0 + 1e-12) else math.inf
    if h_prox is None:
        h_prox = lambda z, t: np.clip(z, -1.0, 1.0)
    return CompositeProblem(dim=dim, smooth_value=f, smooth_grad=grad,
                            h_value=h_value, h_prox=h_prox, lipschitz_L=L)


# --- input coercion ------------------------------------------------------

def test_as_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        as_vector(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        as_vector(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        as_vector(np.zeros(3), dim=2)
    assert as_vector(1.5).shape == (1,)


# --- problems and their counted view -------------------------------------

def half_sq_norm(dim):
    return quad_problem(dim, lambda y: 0.5 * float(y @ y), lambda y: y.copy(), 1.0)


def fused(p, value_grad):
    return dataclasses.replace(p, smooth_value_grad=value_grad)


@pytest.mark.parametrize("maker,kwargs", [
    (make_convex_qp, {}),
    (make_nonconvex_qp, {"negfrac": 0.3}),
])
def test_lipschitz_envelope_on_instances(maker, kwargs, rng):
    p, inst = maker(6, 42, **kwargs)
    pts = sample_feasible(inst, rng, 60)
    for i in range(0, 60, 2):
        u1, u2 = pts[i], pts[i + 1]
        linearized = p.smooth_value(u2) + p.smooth_grad(u2) @ (u1 - u2)
        gap = abs(p.smooth_value(u1) - linearized)
        assert gap <= 0.5 * p.lipschitz_L * float(np.linalg.norm(u1 - u2)) ** 2 + 1e-9


def test_problem_validation():
    f = lambda y: 0.0
    g = lambda y: np.zeros(2)
    h = lambda y: 0.0
    pr = lambda z, t: z
    with pytest.raises(ValueError):
        CompositeProblem(2, f, g, h, pr, lipschitz_L=0.0)
    with pytest.raises(ValueError):
        CompositeProblem(0, f, g, h, pr, lipschitz_L=1.0)


def test_problem_refuses_an_infinite_lipschitz_constant():
    # its steps would be zero, and the run would fail on them without naming L
    with pytest.raises(ValueError, match="lipschitz_L must be finite"):
        CompositeProblem(2, lambda y: 0.0, lambda y: np.zeros(2), lambda y: 0.0,
                         lambda z, t: z, lipschitz_L=math.inf)


def test_counted_problem_counts_and_validates():
    p = half_sq_norm(2)
    cp = CountedProblem(p)
    y = np.array([0.25, 0.0])
    cp.f(y)
    cp.grad(y)
    cp.prox(np.array([2.0, 0.0]), 0.5)
    assert cp.counters.f_evals == 1
    assert cp.counters.grad_evals == 1
    assert cp.counters.prox_evals == 1
    # a value-and-gradient call counts as one of each, fused or not
    for q in (p, fused(p, lambda y: (0.5 * float(y @ y), y.copy()))):
        cq = CountedProblem(q)
        val, g = cq.value_grad(y)
        assert val == 0.03125 and isinstance(val, float)
        np.testing.assert_array_equal(g, y)
        assert (cq.counters.f_evals, cq.counters.grad_evals) == (1, 1)
    # identity projection is free: no oracle, no count
    out = cp.project(y)
    assert out is y
    assert cp.counters.proj_evals == 0

    with pytest.raises(ValueError):
        cp.prox(y, 0.0)


def test_counted_problem_flags_bad_oracles():
    from fistalab import OracleError

    bad = quad_problem(1, lambda y: float("nan"), lambda y: np.array([np.inf]), 1.0)
    cp = CountedProblem(bad)
    with pytest.raises(OracleError):
        cp.f(np.zeros(1))
    with pytest.raises(OracleError):
        cp.grad(np.zeros(1))
    with pytest.raises(OracleError):
        cp.value_grad(np.zeros(1))  # no fused oracle: the separate ones are checked

    good = half_sq_norm(2)
    for value_grad, match in (
            (lambda y: (float("nan"), y.copy()), "smooth_value returned non-finite"),
            (lambda y: (0.0, np.array([np.inf, 0.0])), "smooth_grad returned a malformed"),
            (lambda y: (0.0, np.zeros(3)), "smooth_grad returned a malformed"),
            (lambda y: (0.0, np.zeros((2, 1))), "smooth_grad returned a malformed")):
        with pytest.raises(OracleError, match=match):
            CountedProblem(fused(good, value_grad)).value_grad(np.zeros(2))


def test_prox_value_counts_one_prox_and_checks_like_prox_and_h():
    from fistalab import OracleError

    p = half_sq_norm(2)
    clip = lambda z, t: np.clip(z, -1.0, 1.0)
    z = np.array([2.0, -0.5])
    # with or without a fused oracle: the prox's point, h there, one prox counted
    for q in (p, dataclasses.replace(p, h_prox_value=lambda z, t: (clip(z, t), 0.0))):
        cq = CountedProblem(q)
        y, val = cq.prox_value(z, 0.5)
        assert y.tobytes() == np.array([1.0, -0.5]).tobytes()
        assert val == 0.0 and isinstance(val, float)
        assert (cq.counters.prox_evals, cq.counters.f_evals, cq.counters.grad_evals) == (1, 0, 0)
        with pytest.raises(ValueError):
            cq.prox_value(z, 0.0)
        assert cq.counters.prox_evals == 1
    for prox_value, match in (
            (lambda z, t: (np.array([np.nan, 0.0]), 0.0), "^h_prox returned a malformed point$"),
            (lambda z, t: (np.zeros(3), 0.0), "^h_prox returned a malformed point$"),
            (lambda z, t: (clip(z, t), math.nan), "^h_value returned NaN$")):
        with pytest.raises(OracleError, match=match):
            CountedProblem(dataclasses.replace(p, h_prox_value=prox_value)).prox_value(z, 0.5)
    # +inf is a value of h, left for the caller to read as outside dom h
    outside = dataclasses.replace(p, h_prox_value=lambda z, t: (z, math.inf))
    assert CountedProblem(outside).prox_value(z, 0.5)[1] == math.inf


def laid_out(layout, *entries):
    """`entries` as a contiguous vector or as a stride-2 view of a larger one."""
    base = np.full(2 * len(entries), 7.0)
    base[::2] = entries
    return base[::2] if layout == "strided" else base[::2].copy()


def constant_oracles(out, value=0.0):
    """A 2-D problem whose gradient, prox and projection all return `out`,
    and whose fused oracles return it with `value`."""
    return CompositeProblem(dim=2, smooth_value=lambda y: 0.0, smooth_grad=lambda y: out,
                            h_value=lambda y: 0.0, h_prox=lambda z, t: out,
                            lipschitz_L=1.0, omega_project=lambda x: out,
                            smooth_value_grad=lambda y: (value, out),
                            h_prox_value=lambda z, t: (out, value))


def every_output(cp):
    """The vector each of `cp`'s five vector-returning receivers makes of its oracle's result."""
    return (cp.grad(np.zeros(2)), cp.prox(np.zeros(2), 1.0), cp.project(np.zeros(2)),
            cp.value_grad(np.zeros(2))[1], cp.prox_value(np.zeros(2), 1.0)[0])


@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_finiteness_checks_accept_overflowing_squares(layout):
    # 1e200 is finite, but its square overflows: the checks' one dot product
    # is then not finite, and the exact test behind it must still accept
    big = laid_out(layout, 1e200, -1e200)
    with np.errstate(over="ignore"):
        assert as_vector(big, 2).tobytes() == big.tobytes()
        for out in every_output(CountedProblem(constant_oracles(big))):
            assert out.tobytes() == big.tobytes()


@pytest.mark.parametrize("layout", ["contiguous", "strided"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_finiteness_checks_reject_non_finite(bad, layout):
    from fistalab import OracleError

    out = laid_out(layout, 1.0, bad)
    with pytest.raises(ValueError, match="^vector entries must be finite$"):
        as_vector(out)
    cp = CountedProblem(constant_oracles(out))
    for call, what in ((lambda: cp.grad(np.zeros(2)), "smooth_grad returned a malformed gradient"),
                       (lambda: cp.prox(np.zeros(2), 1.0), "h_prox returned a malformed point"),
                       (lambda: cp.project(np.zeros(2)), "omega_project returned a malformed point"),
                       (lambda: cp.value_grad(np.zeros(2)),
                        "smooth_grad returned a malformed gradient"),
                       (lambda: cp.prox_value(np.zeros(2), 1.0),
                        "h_prox returned a malformed point")):
        with pytest.raises(OracleError, match=f"^{what}$"):
            call()
    # the fused oracles' values: f must be finite; h may be +-inf, not NaN
    cp = CountedProblem(constant_oracles(np.zeros(2), bad))
    with pytest.raises(OracleError) as info:
        cp.value_grad(np.zeros(2))
    assert str(info.value) == f"smooth_value returned non-finite {bad!r}"
    if math.isnan(bad):
        with pytest.raises(OracleError, match="^h_value returned NaN$"):
            cp.prox_value(np.zeros(2), 1.0)
    else:
        assert cp.prox_value(np.zeros(2), 1.0)[1] == bad


class Tagged(np.ndarray):
    """An ndarray subclass, as a user oracle might return one."""


@pytest.mark.parametrize("make", [
    lambda e: list(e),
    lambda e: np.array(e, dtype=np.float32),
    lambda e: np.array(e, dtype=">f8"),
    # equal to np.float64 but not numpy's own descriptor object
    lambda e: np.array(e, dtype=np.dtype(np.float64, metadata={"k": 1})),
    lambda e: np.array(e, dtype=float).view(Tagged),
    lambda e: np.array(e, dtype=np.int64),
    lambda e: np.array(e, dtype=float),
    lambda e: laid_out("strided", *e),
], ids=["list", "float32", "big-endian", "float64-metadata", "subclass", "int64", "float64",
        "strided"])
def test_checked_outputs_are_what_asarray_makes_of_them(make):
    # only a plain native float64 array skips the conversion, which would
    # return it unchanged; everything else is converted as before
    from fistalab import OracleError

    out = make([1.5, -0.25])
    want = np.asarray(out, dtype=float)
    for got in every_output(CountedProblem(constant_oracles(out))):
        assert type(got) is type(want) and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    # a NaN (in a float form), a wrong length, a 0-d or a 2-D result is malformed
    entries = [1.5, math.nan] if np.asarray(make([0.5])).dtype.kind == "f" else [1, 2, 3]
    for bad in (make(entries), make([1.5, -0.25, 3.0]), np.asarray(make([1.5]))[0],
                np.asarray(make([1.5, -0.25, 2.0, 0.0])).reshape(2, 2)):
        cp = CountedProblem(constant_oracles(bad))
        for call, what in ((cp.grad, "smooth_grad returned a malformed gradient"),
                           (cp.value_grad, "smooth_grad returned a malformed gradient"),
                           (lambda y: cp.prox_value(y, 1.0), "h_prox returned a malformed point")):
            with pytest.raises(OracleError, match=f"^{what}$"):
                call(np.zeros(2))


def test_checked_integer_outputs_convert_and_keep_their_shape_check():
    from fistalab import OracleError

    out = np.array([3, -2])
    got = CountedProblem(constant_oracles(out)).prox(np.zeros(2), 1.0)
    assert got.dtype == np.float64 and got.tobytes() == np.asarray(out, dtype=float).tobytes()
    with pytest.raises(OracleError, match="^h_prox returned a malformed point$"):
        CountedProblem(constant_oracles(np.array([3, -2, 1]))).prox(np.zeros(2), 1.0)


def test_counted_projection_idempotent_and_counted():
    box_proj = lambda x: np.clip(x, -1.0, 1.0)
    p = quad_problem(2, lambda y: 0.0, lambda y: np.zeros(2), 1.0)
    p = CompositeProblem(**{**p.__dict__, "omega_project": box_proj})
    cp = CountedProblem(p)
    x = np.array([3.0, 0.2])
    px = cp.project(x)
    np.testing.assert_array_equal(px, [1.0, 0.2])
    np.testing.assert_array_equal(cp.project(px), px)
    assert cp.counters.proj_evals == 2
