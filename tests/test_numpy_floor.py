"""The numpy APIs the solver assumes, one test each, so that a numpy at
the declared floor (2.0) without one of them fails here by name."""

from __future__ import annotations

import numpy as np
import pytest


def _values(shape=(8, 6, 16)) -> np.ndarray:
    rng = np.random.default_rng(0)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("transform", [np.fft.fft, np.fft.ifft])
def test_fft_writes_into_out_and_returns_it(transform, axis):
    """A 1-D FFT along an axis of (n, n, 16) values writes into `out` and
    returns it, equal to the result without `out=`."""
    values = _values()
    out = np.empty_like(values)
    assert transform(values, axis=axis, out=out) is out
    assert np.array_equal(out, transform(values, axis=axis))


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("transform", [np.fft.fft, np.fft.ifft])
def test_fft_runs_in_place(transform, axis):
    """`out=` may be the input itself: the FFT runs in place."""
    values = _values()
    expected = transform(values, axis=axis)
    assert transform(values, axis=axis, out=values) is values
    assert np.array_equal(values, expected)


@pytest.mark.parametrize("transform, inverse", [(np.fft.fft2, np.fft.ifft2),
                                                (np.fft.ifft2, np.fft.fft2)])
def test_fft2_over_the_leading_axes(transform, inverse):
    """fft2 and ifft2 take axes=(0, 1) of (n, n, 16) values: each spin
    component is transformed on its own, and the inverse undoes it."""
    values = _values()
    out = transform(values, axes=(0, 1))
    assert out.shape == values.shape
    assert np.allclose(out[..., 3], transform(values[..., 3]))
    assert np.allclose(inverse(out, axes=(0, 1)), values)


def test_ndarray_has_matrix_transpose():
    """`.mT` swaps the last two axes of a stack of matrices, as a view."""
    stack = _values((5, 16, 16))
    assert np.array_equal(stack.mT, stack.swapaxes(-1, -2))
    assert np.shares_memory(stack.mT, stack)


@pytest.mark.parametrize("power", [1, 2, 5, 20])
def test_matrix_power_of_a_stack_is_repeated_matmul(power):
    """matrix_power raises each (16, 16) matrix of an (n, 16, 16) stack
    to the power, as repeated matmul does, the first power exactly."""
    stack = _values((8, 16, 16)) / 8
    expected = stack
    for _ in range(power - 1):
        expected = stack @ expected
    result = np.linalg.matrix_power(stack, power)
    assert result.shape == stack.shape
    if power == 1:
        assert np.array_equal(result, stack)
    assert np.allclose(result, expected, rtol=1e-12, atol=1e-14)


def test_stacked_matvec_applies_each_mode_its_own_matrix():
    """An (n, 4, 4) stack @ an (n, 4, 1) stack multiplies each mode's
    4-vector by that mode's matrix, as a spin-product leg does."""
    kernels, fields = _values((8, 4, 4)), _values((8, 4))
    out = (kernels @ fields[..., None])[..., 0]
    assert out.shape == (8, 4)
    for mode in range(8):
        assert np.allclose(out[mode], kernels[mode] @ fields[mode])


def test_multiply_outer_of_a_profile_and_a_spinor():
    """np.multiply.outer of an (n,) profile and a 4-spinor is the (n, 4)
    field g[z] s[a], each entry one product."""
    profile, spinor = _values((8,)), _values((4,))
    field = np.multiply.outer(profile, spinor)
    assert field.shape == (8, 4)
    assert np.array_equal(field, profile[:, None] * spinor[None, :])


def test_vdot_and_norm_read_a_field_whole():
    """np.vdot conjugates its first argument and flattens (n, 4) fields,
    and np.linalg.norm of one is its Frobenius norm."""
    a, b = _values((8, 4)), _values((8, 4))
    assert np.isclose(np.vdot(a, b), np.sum(a.conj() * b))
    assert np.isclose(np.linalg.norm(a), np.sqrt(np.sum(np.abs(a) ** 2)))


def test_an_overflow_outside_errstate_fails():
    """The `error::RuntimeWarning` filter (pyproject.toml) turns an
    overflow that escapes an np.errstate into an exception; inside one
    that ignores it, the overflow is silent."""
    with pytest.raises(RuntimeWarning, match="overflow"):
        np.exp(np.float64(1000.0))
    with np.errstate(over="ignore"):
        assert np.exp(np.float64(1000.0)) == np.inf
