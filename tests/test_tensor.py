"""Autodiff core: forward anchors, backward rules, optimizer, schedule."""
import numpy as np
import pytest

from refalign import tensor as T
from refalign.data import derive_rng


def _rng(i=0):
    return derive_rng(1234, 90, i)


# ------------------------------------------------------------ forward values

def test_matmul_hand_arithmetic():
    a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = T.Tensor([[1.0], [1.0]])
    np.testing.assert_array_equal(T.matmul(a, b).data, [[3.0], [7.0]])


def test_row_softmax_symmetry():
    out = T.row_softmax(T.Tensor([0.0, 0.0])).data
    np.testing.assert_array_equal(out, [0.5, 0.5])


def test_l2_normalize_three_four_five():
    out = T.l2_normalize(T.Tensor([3.0, 4.0])).data
    np.testing.assert_array_equal(out, [0.6, 0.8])


def test_row_softmax_rows_sum_to_one():
    for trial in range(20):
        x = T.Tensor(_rng(trial).normal(size=(5, 9)) * 4.0)
        s = T.row_softmax(x).data
        assert np.all(s >= 0.0)
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


def test_l2_normalize_unit_rows():
    for trial in range(20):
        x = T.Tensor(_rng(trial).normal(size=(4, 7)) + 0.1)
        n = np.linalg.norm(T.l2_normalize(x).data, axis=-1)
        np.testing.assert_allclose(n, 1.0, rtol=0, atol=1e-12)


def test_cosine_matrix_range_and_identity():
    rng = _rng()
    a = rng.normal(size=(6, 5))
    s = T.cosine_matrix(T.Tensor(a), T.Tensor(a)).data
    assert np.all(s <= 1.0 + 1e-12) and np.all(s >= -1.0 - 1e-12)
    np.testing.assert_allclose(np.diag(s), 1.0, rtol=0, atol=1e-12)


def test_nonfinite_inputs_rejected():
    with pytest.raises(T.NumericsError):
        T.Tensor([1.0, np.nan])
    with pytest.raises(T.NumericsError), np.errstate(over="ignore"):
        T.scale(T.Tensor([1e308]), 10.0)
    with pytest.raises(T.NumericsError):
        T.log(T.Tensor([-1.0]))


def test_shape_rules_rejected():
    a, b = T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((3, 2)))
    with pytest.raises(T.ShapeError):
        T.add(a, b)
    with pytest.raises(T.ShapeError):
        T.mul(a, b)
    with pytest.raises(T.ShapeError):
        T.matmul(a, T.Tensor(np.ones((2, 2))))
    with pytest.raises(T.ShapeError):
        T.matmul(T.Tensor(np.ones((2, 2, 3))), T.Tensor(np.ones((2, 3, 2))))
    with pytest.raises(T.ShapeError):
        T.layer_norm(a, T.Tensor(np.ones(2)), T.Tensor(np.zeros(3)))
    with pytest.raises(T.ShapeError):
        T.cosine_matrix(a, T.Tensor(np.ones((2, 4))))


def test_gather_index_validation():
    a = T.Tensor(np.ones((3, 4)))
    with pytest.raises(T.ShapeError, match="integers"):
        T.take(a, np.array([[0.5]]))
    with pytest.raises(T.ShapeError, match="axis 0"):
        T.take(a, [0, 3])
    with pytest.raises(T.ShapeError, match="axis 0"):
        T.take(a, [-1])
    with pytest.raises(T.ShapeError, match="axis 1"):
        T.take(a, [0, 1], [1, 4])
    with pytest.raises(T.ShapeError, match="broadcast"):
        T.take(a, [0, 1], [0, 1, 2])
    with pytest.raises(T.ShapeError, match="3 index arrays"):
        T.take(a, [0], [0], [0])
    with pytest.raises(T.ShapeError):
        T.take(a)
    with pytest.raises(T.ShapeError):
        T.concat_rows([])


def test_zero_norm_rows_rejected_with_index():
    rows = np.ones((3, 4))
    rows[1] = 0.0
    with pytest.raises(T.NumericsError, match="1"):
        T.l2_normalize(T.Tensor(rows))
    with pytest.raises(T.NumericsError, match="left"):
        T.cosine_matrix(T.Tensor(rows), T.Tensor(np.ones((2, 4))))


def test_item_and_graph_errors():
    x = T.parameter(np.ones((2, 2)))
    with pytest.raises(T.GraphError):
        x.item()
    with pytest.raises(T.GraphError):
        T.backward(T.scale(x, 2.0), wrt=[x])


# ---------------------------------------------------------------- gradients

def test_backward_square():
    x = T.parameter(np.asarray(3.0))
    grads = T.backward(T.mul(x, x), wrt=[x])
    np.testing.assert_array_equal(grads[x], 6.0)


def test_stop_gradient_barrier():
    x = T.parameter(np.asarray(3.0))
    y = T.mul(x, T.stop_gradient(x))
    np.testing.assert_array_equal(T.backward(y, wrt=[x])[x], 3.0)
    # forward is the exact identity, same buffer
    assert T.stop_gradient(x).data is x.data


def test_stop_gradient_sum_is_exactly_zero():
    x = T.parameter(_rng().normal(size=(3, 4)))
    g = T.backward(T.sum_all(T.stop_gradient(x)), wrt=[x])[x]
    assert np.all(g == 0.0)


def test_unreached_leaf_gets_exact_zero():
    x = T.parameter(np.ones(3))
    y = T.parameter(np.ones(3))
    g = T.backward(T.sum_all(x), wrt=[x, y])
    np.testing.assert_array_equal(g[y], np.zeros(3))


def test_duplicate_gather_accumulates():
    # forward is numpy indexing, backward is np.add.at, for every index
    # pattern the model gathers with
    cases = [
        ((4, 2), ([1, 1, 1],)),                                   # repeated rows
        ((5, 3), (np.array([[0, 4, 4], [2, 0, 4]]),)),            # 2-d ids
        ((3, 2), (np.broadcast_to(np.arange(3)[:, None], (3, 4)),)),  # row per position
        ((3, 4, 2), (np.arange(3), [3, 0, 3])),                   # one position per row
        ((3, 4), ([0, 2, 2, 0], [1, 3, 3, 1])),                   # (row, col) elements
    ]
    rng = _rng()
    for shape, index in cases:
        x = T.parameter(rng.normal(size=shape))
        out = T.take(x, *index)
        np.testing.assert_array_equal(out.data, x.data[tuple(np.asarray(i) for i in index)])
        w = rng.normal(size=out.shape)
        g = T.backward(T.sum_all(T.mul(out, T.Tensor(w))), wrt=[x])[x]
        scattered = np.zeros(shape)
        np.add.at(scattered, tuple(np.asarray(i) for i in index), w)
        np.testing.assert_array_equal(g, scattered)
    x = T.parameter(np.ones((4, 2)))
    g = T.backward(T.sum_all(T.take(x, [1, 1, 1])), wrt=[x])[x]
    np.testing.assert_array_equal(g, [[0.0, 0.0], [3.0, 3.0], [0.0, 0.0], [0.0, 0.0]])


def test_bias_broadcast_gradient():
    rng = _rng()
    a = T.parameter(rng.normal(size=(5, 3)))
    bias = T.parameter(rng.normal(size=3))
    g = T.backward(T.sum_all(T.add(a, bias)), wrt=[a, bias])
    np.testing.assert_array_equal(g[a], np.ones((5, 3)))
    np.testing.assert_array_equal(g[bias], np.full(3, 5.0))


def test_finite_difference_exact_quadratic():
    x = T.parameter(_rng().normal(size=(3, 3)))
    err = T.finite_difference_check(lambda: T.sum_all(T.mul(x, x)), [x])
    assert err < 1e-8


def test_finite_difference_two_layer_perceptron():
    worst = 0.0
    for trial in range(20):
        rng = _rng(trial)
        x = T.Tensor(rng.normal(size=(2, 5)))
        w1 = T.parameter(rng.normal(size=(5, 4)) / np.sqrt(5))
        b1 = T.parameter(rng.normal(size=4) * 0.1)
        w2 = T.parameter(rng.normal(size=(4, 3)) / 2.0)
        b2 = T.parameter(rng.normal(size=3) * 0.1)

        def f():
            h = T.tanh(T.add(T.matmul(x, w1), b1))
            return T.sum_all(T.tanh(T.add(T.matmul(h, w2), b2)))

        worst = max(worst, T.finite_difference_check(f, [w1, b1, w2, b2]))
    assert worst < 1e-4


def test_graph_evaluation_deterministic():
    def run():
        rng = _rng(7)
        a = T.parameter(rng.normal(size=(6, 6)))
        b = T.parameter(rng.normal(size=(6, 6)))
        out = T.sum_all(T.row_softmax(T.matmul(T.tanh(a), b)))
        g = T.backward(out, wrt=[a, b])
        return out.data.tobytes(), g[a].tobytes(), g[b].tobytes()

    assert run() == run()


# ---------------------------------------------------------------- optimizer

def test_adam_zero_gradient_leaves_parameters():
    p = T.parameter(_rng().normal(size=(3, 2)))
    before = p.data.copy()
    opt = T.Adam([p])
    opt.step({p: np.zeros_like(p.data)}, lr=0.1)
    np.testing.assert_array_equal(p.data, before)
    assert opt.t == 1


def test_adam_first_step_is_signed_lr():
    # first step: m_hat = g, v_hat = g^2, update = -lr * g/(|g| + eps)
    rng = _rng()
    p = T.parameter(rng.normal(size=8))
    g = rng.normal(size=8) + np.sign(rng.normal(size=8))  # away from zero
    before = p.data.copy()
    T.Adam([p]).step({p: g}, lr=1e-3)
    np.testing.assert_allclose(p.data, before - 1e-3 * np.sign(g), atol=1e-8)


def test_adam_validation():
    p = T.parameter(np.ones(2))
    with pytest.raises(ValueError):
        T.Adam([p, p])
    with pytest.raises(ValueError):
        T.Adam([T.Tensor(np.ones(2))])
    opt = T.Adam([p])
    with pytest.raises(T.ShapeError):
        opt.step({p: np.ones(3)}, lr=0.1)
    with pytest.raises(T.NumericsError):
        opt.step({p: np.array([np.nan, 0.0])}, lr=0.1)
    with pytest.raises(ValueError):
        opt.step({p: np.ones(2)}, lr=-1.0)


def test_adam_state_round_trip():
    rng = _rng()
    p = T.parameter(rng.normal(size=(2, 3)))
    opt = T.Adam([p])
    for _ in range(3):
        opt.step({p: rng.normal(size=(2, 3))}, lr=0.01)
    q = T.parameter(p.data.copy())
    restored = T.Adam([q])
    restored.load_state_arrays(opt.state_arrays())
    g = rng.normal(size=(2, 3))
    opt.step({p: g}, lr=0.01)
    restored.step({q: g}, lr=0.01)
    np.testing.assert_array_equal(p.data, q.data)

    # a misshapen later moment is refused before any state is replaced
    other = T.Adam([T.parameter(np.zeros((2, 3))), T.parameter(np.zeros(4))])
    state = {**opt.state_arrays(), "adam.m.1": np.ones(5), "adam.v.1": np.ones(5)}
    with pytest.raises(T.ShapeError, match="state 1"):
        other.load_state_arrays(state)
    assert other.t == 0 and not any(a.any() for a in other.state_arrays().values())


_BAD_ADAM_STATE = {
    "missing": ({"adam.m.0": None}, r"^Adam: state adam\.m\.0 is missing"),
    "stray": ({"adam.m.999": np.ones(3)}, r"^Adam: adam\.m\.999 is not state of 1 parameters"),
    **{f"t={t}": ({"adam.t": np.asarray(t)},
                  r"^Adam: step count adam\.t .* is not a non-negative integer")
       for t in (6.7, -3.0, np.inf, np.nan, (1.0, 2.0), (1.0,))},
}


@pytest.mark.parametrize("case", _BAD_ADAM_STATE)
def test_adam_state_refuses_bad_names_and_step_counts(case):
    p = T.parameter(np.zeros(3))
    opt = T.Adam([p])
    opt.step({p: np.ones(3)}, lr=0.1)
    change, match = _BAD_ADAM_STATE[case]
    state = {"w": p.data, **opt.state_arrays(), **change}
    state = {k: v for k, v in state.items() if v is not None}
    fresh = T.Adam([T.parameter(np.zeros(3))])
    with pytest.raises(ValueError, match=match):
        fresh.load_state_arrays(state)
    # refused before any state is replaced
    assert fresh.t == 0 and not any(a.any() for a in fresh.state_arrays().values())
    fresh.load_state_arrays({**opt.state_arrays(), "adam.t": np.asarray(7.0)})
    assert fresh.t == 7 and type(fresh.t) is int


# ----------------------------------------------------------------- schedule

def test_schedule_shape():
    cfg = T.ScheduleConfig(peak_lr=4e-5, warmup_epochs=2, total_epochs=20,
                           steps_per_epoch=10)
    assert T.lr_at(0, cfg) == 0.0
    assert T.lr_at(cfg.warmup_steps, cfg) == 4e-5
    assert T.lr_at(cfg.total_steps, cfg) == 0.0
    # halfway into decay
    mid = (cfg.warmup_steps + cfg.total_steps) // 2
    assert T.lr_at(mid, cfg) == pytest.approx(2e-5, rel=1e-12)
    # linear on both sides of the peak, continuous at it
    assert T.lr_at(cfg.warmup_steps - 1, cfg) == pytest.approx(4e-5 * 19 / 20)
    assert T.lr_at(cfg.warmup_steps + 1, cfg) == pytest.approx(4e-5 * 179 / 180)
    deltas = np.abs(np.diff([T.lr_at(s, cfg) for s in range(cfg.total_steps + 1)]))
    assert deltas.max() <= 4e-5 / cfg.warmup_steps + 1e-18


def test_schedule_validation():
    with pytest.raises(ValueError):
        T.ScheduleConfig(0.0, 2, 20, 10)
    with pytest.raises(ValueError):
        T.ScheduleConfig(1e-3, 0, 20, 10)
    with pytest.raises(ValueError):
        T.ScheduleConfig(1e-3, 20, 20, 10)
    with pytest.raises(ValueError):
        T.ScheduleConfig(1e-3, 2, 20, 0)
    cfg = T.ScheduleConfig(1e-3, 2, 20, 10)
    with pytest.raises(ValueError):
        T.lr_at(-1, cfg)
    with pytest.raises(ValueError):
        T.lr_at(cfg.total_steps + 1, cfg)
