import numpy as np
import pytest

from boundbench.activations import huberized, swish
from boundbench.linalg import WeightStack
from boundbench.network import Dataset
from oracles import FdConfig, fd_compare, fd_gradient, kink_exclusions
from stack_helpers import from_layers, gradient_reference


def make_instance(p, L, n, seed, act):
    rng = np.random.default_rng(seed)
    V = WeightStack(
        hidden=tuple(rng.standard_normal((p, p)) for _ in range(L)),
        outer=rng.standard_normal((1, p)),
    )
    labels = rng.choice((-1.0, 1.0), size=n)
    if np.all(labels == labels[0]):
        labels[0] = -labels[0]
    data = Dataset(inputs=rng.standard_normal((n, p)), labels=labels)
    return V, data, act


def test_fd_config_step_range():
    FdConfig(step=1e-8)
    FdConfig(step=1e-3)
    with pytest.raises(ValueError):
        FdConfig(step=1e-9)
    with pytest.raises(ValueError):
        FdConfig(step=1e-2)


def test_fd_compare_identical_stacks():
    V, _, _ = make_instance(3, 2, 2, seed=1, act=swish(0.5))
    report = fd_compare(V, V)
    assert report.max_rel_error == 0.0


def test_fd_compare_locates_perturbed_entry():
    V, _, _ = make_instance(3, 2, 2, seed=2, act=swish(0.5))
    layers = [np.array(m) for m in V.layers()]
    layers[1][2, 0] += 0.5
    other = from_layers(layers)
    report = fd_compare(V, other)
    assert (report.worst_layer, report.worst_row, report.worst_col) == (1, 2, 0)
    assert report.max_rel_error > 0.0


def test_fd_gradient_agrees_with_backprop():
    V, data, act = make_instance(4, 2, 3, seed=3, act=swish(0.6))
    report = fd_compare(gradient_reference(V, act, data), fd_gradient(V, act, data, FdConfig()))
    assert report.max_rel_error < 1e-6


def test_fd_outer_block_matches_analytic_weighted_feature_average():
    # the output is linear in the outer row, so its loss gradient block is
    # exactly -(1/n) sum_s y_s g_s x_s-features; FD must reproduce that
    from boundbench.network import forward
    from scalar_loss import g_factor

    rng = np.random.default_rng(6)
    p, n = 4, 3
    act = huberized(0.4)
    V = WeightStack(
        hidden=(rng.standard_normal((p, p)),), outer=rng.standard_normal((1, p))
    )
    labels = np.array([1.0, -1.0, 1.0])
    data = Dataset(inputs=rng.standard_normal((n, p)), labels=labels)
    analytic = np.zeros(p)
    for x, y in zip(data.inputs, data.labels):
        trace = forward(V, act, x)
        analytic += -y * g_factor(V, act, x, y) * trace.x[-1]
    analytic /= n
    fd = fd_gradient(V, act, data, FdConfig())
    np.testing.assert_allclose(fd.outer[0], analytic, rtol=1e-7, atol=1e-10)


def test_fd_gradient_near_zero_at_saturated_margins():
    V = WeightStack(hidden=(np.eye(2) * 300.0,), outer=np.array([[300.0, 300.0]]))
    data = Dataset(
        inputs=np.array([[1.0, 0.0], [0.0, 1.0]]), labels=np.array([1.0, 1.0])
    )
    fd = fd_gradient(V, huberized(0.5), data, FdConfig())
    for m in fd.layers():
        assert float(np.max(np.abs(m))) < 1e-10


def test_fd_error_shrinks_quadratically_for_smooth_activation():
    V, data, act = make_instance(3, 1, 3, seed=4, act=swish(0.9))
    exact = gradient_reference(V, act, data)
    err_big = fd_compare(exact, fd_gradient(V, act, data, FdConfig(step=8e-4))).max_rel_error
    err_small = fd_compare(exact, fd_gradient(V, act, data, FdConfig(step=4e-4))).max_rel_error
    # halving the step should quarter the truncation error, give or take
    assert err_small < err_big
    assert err_big / err_small == pytest.approx(4.0, rel=0.6)


def test_kink_exclusions_empty_for_swish():
    V, data, act = make_instance(3, 2, 3, seed=5, act=swish(0.5))
    masks, count = kink_exclusions(V, act, data, step=1e-5)
    assert count == 0
    assert all(not m.any() for m in masks)


def test_kink_exclusions_flag_near_kink_instance():
    # pre-activation exactly at 0 for the first hidden layer
    V = WeightStack(hidden=(np.zeros((2, 2)),), outer=np.array([[1.0, 1.0]]))
    data = Dataset(inputs=np.array([[1.0, 0.0]]), labels=np.array([1.0]))
    masks, count = kink_exclusions(V, huberized(0.3), data, step=1e-5)
    assert count == 4  # the whole hidden layer, never the outer row
    assert masks[0].all()
    assert not masks[1].any()


def test_kink_exclusions_localize_elevated_fd_error():
    # a pre-activation sitting exactly on a kink: the curvature jump shows
    # up in central differences only inside the flagged layer, while the
    # unflagged outer row still agrees to full precision
    V = WeightStack(
        hidden=(np.array([[0.3001, 0.0], [0.0, -0.7]]),),
        outer=np.array([[1.1, -0.4]]),
    )
    act = huberized(0.3)
    data = Dataset(inputs=np.array([[1.0, 0.0]]), labels=np.array([1.0]))
    masks, count = kink_exclusions(V, act, data, step=1e-5)
    assert count > 0 and masks[0].all() and not masks[1].any()
    exact = gradient_reference(V, act, data)
    fd = fd_gradient(V, act, data, FdConfig())
    outer_err = float(np.max(np.abs(exact.outer - fd.outer)))
    assert outer_err < 1e-9
    hidden_err = float(np.max(np.abs(exact.hidden[0] - fd.hidden[0])))
    assert hidden_err > 1e-7  # the flagged layer is where FD degrades
