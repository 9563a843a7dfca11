import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmatch import autodiff as ad
from graphmatch.autodiff import Tensor, backward
from graphmatch.model import ModelConfig, init_params

from conftest import finite_difference_grad, rel_err


def fd_check(build, tensors, tol=1e-4, h=1e-5):
    """Compare analytic gradients of scalar build() against central differences."""
    loss = build()
    for t in tensors:
        t.grad = None
    backward(loss)
    fd = finite_difference_grad(lambda: build().item(), tensors, h=h)
    for t, g in zip(tensors, fd):
        assert t.grad is not None
        assert rel_err(t.grad, g) < tol


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = ad.matmul(Tensor(np.eye(2)), a)
    assert np.array_equal(out.data, a.data)


def test_matmul_zero():
    out = ad.matmul(Tensor([[1.0, 0.0], [0.0, 0.0]]), Tensor([[0.0], [5.0]]))
    assert np.array_equal(out.data, [[0.0], [0.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(ad.ShapeError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_gradient_fd():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    fd_check(lambda: ad.matmul(a, b).mean(), [a, b], tol=1e-6)


def test_relu_values():
    out = ad.relu(Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_sigmoid_at_zero():
    assert ad.sigmoid(Tensor(0.0)).item() == 0.5


def test_elementwise_shape_mismatch():
    with pytest.raises(ValueError):
        _ = Tensor(np.zeros(3)) + Tensor(np.zeros(4))


def test_cosine_self_is_one(rng):
    v = Tensor(rng.normal(size=5) + 0.1)
    assert abs(ad.cosine(v, v).item() - 1.0) < 1e-12


def test_cosine_orthogonal():
    assert ad.cosine(Tensor([1.0, 0.0]), Tensor([0.0, 1.0])).item() == 0.0


def test_cosine_hand_value():
    got = ad.cosine(Tensor([1.0, 1.0]), Tensor([1.0, 0.0])).item()
    assert abs(got - 0.70710678) < 1e-8


def test_cosine_zero_vector_is_zero_with_zero_grad():
    a = Tensor([0.0, 0.0], requires_grad=True)
    b = Tensor([1.0, 2.0], requires_grad=True)
    c = ad.cosine(a, b)
    assert c.item() == 0.0
    backward(c)
    assert np.array_equal(a.grad, [0.0, 0.0])
    assert np.array_equal(b.grad, [0.0, 0.0])


def test_dropout_rate_zero_identity(rng):
    x = Tensor(rng.normal(size=(4, 4)))
    out = ad.dropout(x, 0.0, rng)
    assert np.array_equal(out.data, x.data)


def test_dropout_eval_identity(rng):
    x = Tensor(rng.normal(size=(4, 4)))
    out = ad.dropout(x, 0.1, None)
    assert np.array_equal(out.data, x.data)


def test_dropout_preserves_mean(rng):
    x = Tensor(np.ones(100000))
    out = ad.dropout(x, 0.5, rng)
    assert abs(out.data.mean() - 1.0) < 0.02


def test_dropout_bad_rate(rng):
    with pytest.raises(ValueError):
        ad.dropout(Tensor([1.0]), 1.0, rng)


def test_backward_sum_gives_ones():
    w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    backward((w * Tensor(6.0)).mean())  # six times the mean of six entries: their sum
    assert np.array_equal(w.grad, np.ones((2, 3)))


def test_backward_half_norm_squared():
    w = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    backward((w * w * Tensor(1.5)).mean())  # half the squared norm of three entries
    assert np.allclose(w.grad, w.data)


def test_backward_accumulates_across_uses():
    x = Tensor([2.0], requires_grad=True)
    backward((x + x).mean())
    assert np.array_equal(x.grad, [2.0])


def test_mean_of_an_empty_tensor_is_refused():
    with pytest.raises(ad.ShapeError, match=r"mean of an empty tensor, shape \(0, 3\)"):
        Tensor(np.zeros((0, 3)), requires_grad=True).mean()


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ad.ShapeError):
        backward(x)
    with pytest.raises(ad.ShapeError, match=r"item\(\) needs a scalar, got shape \(2,\)"):
        x.item()


def test_backward_accumulates_across_calls():
    x = Tensor([1.0], requires_grad=True)
    backward(x.mean())
    backward(x.mean())
    assert np.array_equal(x.grad, [2.0])


def test_backward_keeps_gradients_on_leaves_only():
    x = Tensor([1.0, -2.0], requires_grad=True)
    y = x * x  # an op output: backward reads its gradient but keeps none
    loss = (y * Tensor(6.0)).mean()  # 3 y summed over the two entries
    backward(loss)
    backward(loss)
    assert y.grad is None and loss.grad is None
    assert np.array_equal(x.grad, 2 * (6.0 * x.data))


@pytest.mark.parametrize("seed", range(3))
def test_primitive_gradients_fd(seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.uniform(-2, 2, size=(3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(-2, 2, size=(3, 4)), requires_grad=True)
    c = Tensor(rng.uniform(-2, 2, size=(4, 2)), requires_grad=True)
    cases = [
        (lambda: (a + b).mean(), [a, b]),
        (lambda: (a - b).mean(), [a, b]),
        (lambda: (a * b).mean(), [a, b]),
        (lambda: ad.matmul(a, c).mean(), [a, c]),
        (lambda: ad.sigmoid(a).mean(), [a]),
        (lambda: ad.cosine(a, b).mean(), [a, b]),
        (lambda: ad.concat([a, b], axis=1).mean(), [a, b]),
        (lambda: ad.gather_rows(a, [0, 2, 2]).mean(), [a]),
        (lambda: ad.reshape(a, (4, 3)).mean(), [a]),
        # relu and max_rows away from their kinks; max_rows over the two
        # columns of a @ c as sequences of 3 and 2 rows
        (lambda: ad.relu(a + Tensor(5.0)).mean(), [a]),
        (lambda: ad.max_rows(ad.reshape(ad.matmul(a, c), (6, 1)),
                             [[0, 1], [2, 3], [4, -1]]).mean(), [a, c]),
    ]
    for build, params in cases:
        for p in params:
            p.grad = None
        fd_check(build, params)


def test_broadcast_gradients_fd():
    rng = np.random.default_rng(7)
    a = Tensor(rng.uniform(-2, 2, size=(3, 1, 4)), requires_grad=True)
    b = Tensor(rng.uniform(-2, 2, size=(1, 2, 4)), requires_grad=True)
    fd_check(lambda: (a * b).mean(), [a, b])
    fd_check(lambda: ad.cosine(a, b).mean(), [a, b])


def test_forward_determinism():
    def run(seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(5, 5)), requires_grad=True)
        y = ad.dropout(ad.sigmoid(ad.matmul(x, x)), 0.3, rng).mean()
        backward(y)
        return y.item(), x.grad.copy()

    v1, g1 = run(42)
    v2, g2 = run(42)
    assert v1 == v2
    assert np.array_equal(g1, g2)


@pytest.mark.parametrize("seed", range(3))
def test_bilstm_last_gradients_fd(seed):
    rng = np.random.default_rng(100 + seed)
    steps, k, h = 5, 3, 2
    x = Tensor(rng.normal(size=(steps, k)), requires_grad=True)
    params = [Tensor(rng.normal(size=s) * 0.5, requires_grad=True)
              for s in ((k, 4 * h), (h, 4 * h), (1, 4 * h)) * 2]
    mix = Tensor(rng.normal(size=(1, 2 * h)))
    one = np.arange(steps)[:, None]  # one sequence of every row
    fd_check(lambda: (ad.bilstm_last(x, *params, index=one) * mix).mean(), [x] + params)


def test_bilstm_last_reverses_cleanly():
    # a single step means forward and backward directions see the same input
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(1, 3)))
    p = [Tensor(rng.normal(size=s)) for s in ((3, 8), (2, 8), (1, 8))]
    out = ad.bilstm_last(x, *p, *p, index=[[0]])
    fw, bw = out.data[0, :2], out.data[0, 2:]
    assert np.allclose(fw, bw)


@pytest.mark.parametrize("seed", range(3))
def test_weighted_cosine_gradients_fd(seed):
    rng = np.random.default_rng(200 + seed)
    x1 = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    x2 = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    mix = Tensor(rng.normal(size=(4, 5)))
    fd_check(lambda: (ad.weighted_cosine(x1, x2, w) * mix).mean(), [x1, x2, w])


def test_weighted_cosine_matches_composed():
    rng = np.random.default_rng(3)
    x1, x2 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    w = rng.normal(size=(5, 3))
    got = ad.weighted_cosine(Tensor(x1), Tensor(x2), Tensor(w)).data
    for k in range(5):
        a, b = x1 * w[k], x2 * w[k]
        want = np.sum(a * b, axis=1) / (np.linalg.norm(a, axis=1)
                                        * np.linalg.norm(b, axis=1))
        assert np.allclose(got[:, k], want)


def test_weighted_cosine_zero_vector_is_flat():
    x1 = Tensor(np.zeros((1, 3)), requires_grad=True)
    x2 = Tensor(np.ones((1, 3)), requires_grad=True)
    w = Tensor(np.ones((2, 3)), requires_grad=True)
    out = ad.weighted_cosine(x1, x2, w)
    backward(out.mean())
    assert np.allclose(out.data, 0.0)
    assert np.allclose(x1.grad, 0.0)
    assert np.allclose(x2.grad, 0.0)
    assert np.allclose(w.grad, 0.0)


# ---------------------------------------------------------------------------
# fused batch ops

def lstm_params(rng, k, h):
    return [Tensor(rng.normal(size=s) * 0.5, requires_grad=True)
            for s in ((k, 4 * h), (h, 4 * h), (1, 4 * h)) * 2]


def ragged_index(rng, lengths, rows):
    """A time-major index (max(lengths), S), padded with -1, whose sequences
    of the given lengths read distinct rows of range(rows) in random order."""
    index = np.full((max(lengths), len(lengths)), -1)
    read = iter(rng.permutation(rows))
    for s, n in enumerate(lengths):
        index[:n, s] = [next(read) for _ in range(n)]
    return index


@pytest.mark.parametrize("seed", range(2))
def test_bilstm_last_sequences_gradients_fd(seed):
    rng = np.random.default_rng(300 + seed)
    k, h = 3, 2
    lengths = [2, 4, 1, 4]  # unequal, including a single step
    x = Tensor(rng.normal(size=(sum(lengths) + 2, k)), requires_grad=True)
    index = ragged_index(rng, lengths, len(x.data))
    params = lstm_params(rng, k, h)
    mix = Tensor(rng.normal(size=(len(lengths), 2 * h)))
    fd_check(lambda: (ad.bilstm_last(x, *params, index=index) * mix).mean(),
             [x] + params)
    # rows no sequence reads get no gradient
    unread = np.setdiff1d(np.arange(len(x.data)), index)
    assert len(unread) == 2 and np.array_equal(x.grad[unread], np.zeros((2, k)))


def test_bilstm_last_sequences_match_single_calls():
    rng = np.random.default_rng(5)
    k, h = 3, 4
    lengths = [3, 5, 1]
    x = Tensor(rng.normal(size=(sum(lengths), k)))
    index = ragged_index(rng, lengths, len(x.data))
    params = lstm_params(rng, k, h)
    out = ad.bilstm_last(x, *params, index=index).data
    for s, n in enumerate(lengths):
        one = ad.bilstm_last(x, *params, index=index[:n, s:s + 1]).data
        assert np.allclose(out[s], one[0], rtol=0, atol=1e-12)


def reference_lstm_last(x, wx, wh, b):
    """Last hidden state of one LSTM direction over one sequence x (T, k),
    one step at a time; gate columns [input, forget, cell, output]."""
    h = wh.shape[0]
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))  # noqa: E731
    s, c = np.zeros(h), np.zeros(h)
    for row in x:
        z = row @ wx + s @ wh + b[0]
        i, f, g, o = sig(z[:h]), sig(z[h:2 * h]), np.tanh(z[2 * h:3 * h]), sig(z[3 * h:])
        c = f * c + i * g
        s = o * np.tanh(c)
    return s


def test_bilstm_last_matches_reference_lstm():
    rng = np.random.default_rng(8)
    k, h = 4, 4  # the sgnn BiLSTM reads gcn_dim rows into gcn_dim units
    lengths = [3, 5, 1, 2]
    x = rng.normal(size=(sum(lengths), k))
    index = ragged_index(rng, lengths, len(x))
    # model initialisation, so the forget bias of 1 sits where the kernel reads it
    config = ModelConfig(feature_dim=1, gcn_dim=h, mode="sgnn", sgnn_aggregator="bilstm",
                         task="classification")
    params = [Tensor(p.data) for name, p in init_params(config, rng).items()
              if name.startswith("sgnn_lstm.")]
    # a nonzero bias in every gate as well
    for p in params[2], params[5]:
        p.data += rng.normal(size=p.data.shape)
    out = ad.bilstm_last(Tensor(x), *params, index=index).data
    fw, bw = ([p.data for p in params[:3]], [p.data for p in params[3:]])
    for s, n in enumerate(lengths):
        seq = x[index[:n, s]]
        assert np.allclose(out[s, :h], reference_lstm_last(seq, *fw), rtol=0, atol=1e-12)
        assert np.allclose(out[s, h:], reference_lstm_last(seq[::-1], *bw),
                           rtol=0, atol=1e-12)
    params[4].data += 0.5
    moved = ad.bilstm_last(Tensor(x), *params, index=index).data
    assert np.array_equal(moved[:, :h], out[:, :h])
    assert not np.allclose(moved[:, h:], out[:, h:])


def bilstm_last_reference(x, params, lengths):
    """An earlier ``bilstm_last`` on arrays: direction-major history, weights
    stacked per call, sigmoid as 0.5 * (1 + tanh(0.5 z)) and tanh for the cell
    gate. Returns the output and its hand-written BPTT backward."""
    lengths = np.asarray(lengths, dtype=np.intp)
    steps, count, k = x.shape
    h = params[1].shape[0]
    sig = lambda z: 0.5 * (1.0 + np.tanh(0.5 * z))  # noqa: E731
    wx, wh, b = (np.stack([f, r]) for f, r in zip(params[:3], params[3:]))
    order = np.argsort(-lengths, kind="stable")
    lens = lengths[order]
    active = [int(np.count_nonzero(lens > t)) for t in range(steps)]
    cols = np.arange(count)
    t_col = np.arange(steps)[:, None]
    rev = np.where(t_col < lens, lens - 1 - t_col, t_col)
    xs = np.stack([x[:, order], x[rev, order]]).reshape(2, -1, k)
    z_in = (xs @ wx + b).reshape(2, steps, count, 4 * h)
    gates = np.zeros((2, steps, count, 4 * h))
    cs = np.zeros((2, steps, count, h))
    ss = np.zeros((2, steps, count, h))
    s = np.zeros((2, count, h))
    c = np.zeros((2, count, h))
    for t in range(steps):
        n = active[t]
        ss[:, t, :n] = s[:, :n]
        z = s[:, :n] @ wh
        z += z_in[:, t, :n]
        a = gates[:, t, :n]
        a[..., :2 * h] = sig(z[..., :2 * h])
        a[..., 2 * h:3 * h] = np.tanh(z[..., 2 * h:3 * h])
        a[..., 3 * h:] = sig(z[..., 3 * h:])
        c[:, :n] = a[..., h:2 * h] * c[:, :n] + a[..., :h] * a[..., 2 * h:3 * h]
        cs[:, t, :n] = c[:, :n]
        s[:, :n] = a[..., 3 * h:] * np.tanh(c[:, :n])
    out = np.empty((count, 2 * h))
    out[order] = np.concatenate([s[0], s[1]], axis=1)

    def bw(grad):
        ds = np.stack([grad[order, :h], grad[order, h:]])
        dc = np.zeros((2, count, h))
        dz_all = np.zeros((2, steps, count, 4 * h))
        wh_t = wh.transpose(0, 2, 1)
        for t in range(steps - 1, -1, -1):
            n = active[t]
            a = gates[:, t, :n]
            gi, gf, gc, go = (a[..., j * h:(j + 1) * h] for j in range(4))
            tc = np.tanh(cs[:, t, :n])
            dcn = dc[:, :n] + ds[:, :n] * go * (1.0 - tc * tc)
            c_prev = cs[:, t - 1, :n] if t > 0 else 0.0
            dz = dz_all[:, t, :n]
            dz[..., :h] = dcn * gc * gi * (1.0 - gi)
            dz[..., h:2 * h] = dcn * c_prev * gf * (1.0 - gf)
            dz[..., 2 * h:3 * h] = dcn * gi * (1.0 - gc * gc)
            dz[..., 3 * h:] = ds[:, :n] * tc * go * (1.0 - go)
            ds[:, :n] = dz @ wh_t
            dc[:, :n] = dcn * gf
        dz_all = dz_all.reshape(2, -1, 4 * h)
        gwx = xs.transpose(0, 2, 1) @ dz_all
        gwh = ss.reshape(2, -1, h).transpose(0, 2, 1) @ dz_all
        gb = dz_all.sum(axis=1, keepdims=True)
        gxd = (dz_all @ wx.transpose(0, 2, 1)).reshape(2, steps, count, k)
        gxs = gxd[0]
        gxs[rev, cols] += gxd[1]
        gx = np.empty_like(gxs)
        gx[:, order] = gxs
        return (gx, gwx[0], gwh[0], gb[0], gwx[1], gwh[1], gb[1])

    return out, bw


def sequence_rows(rng, x, lengths, unread=2):
    """Padded time-major sequences x (T, S, k) of the given lengths as rows
    (R, k) and an index (T, S): the rows read sit in random order among
    ``unread`` random rows that no sequence reads."""
    index = ragged_index(rng, lengths, sum(lengths) + unread)
    assert index.shape == x.shape[:2]
    rows = rng.normal(size=(sum(lengths) + unread, x.shape[2]))
    rows[index[index >= 0]] = x[index >= 0]
    return rows, index


def assert_rows_are(gx, want, index):
    """gx (R, k) holds the padded gradient want (T, S, k) at the rows index
    reads, byte for byte, and exactly 0.0 at every row it does not read."""
    read = index[index >= 0]
    assert gx[read].tobytes() == want[index >= 0].tobytes()
    unread = np.setdiff1d(np.arange(len(gx)), read)
    assert gx[unread].tobytes() == np.zeros((len(unread), gx.shape[1])).tobytes()


@pytest.mark.parametrize("steps, lengths, k, h", [
    (1, [1], 3, 2),                     # one step of one sequence
    (6, [6], 4, 4),                     # one sequence
    (1, [1, 1, 1], 5, 3),               # one step
    (5, [5, 5, 5, 5], 3, 7),            # all lengths equal
    (5, [1, 2, 3, 4, 5], 6, 2),         # every length from 1 to T
    (8, [3, 8, 1, 8, 5, 2, 8], 64, 64), # the acceptance model's width
    (7, [2, 7, 4, 7], 16, 48),
    (6, [6], 3, 1),                     # one sequence at LSTM width 1
])
@pytest.mark.parametrize("x_scale, w_scale", [(0.05, 0.05), (0.05, 5.0), (5.0, 0.05),
                                              (5.0, 5.0), (1.0, 0.5)])
def test_bilstm_last_is_the_reference_bit_for_bit(steps, lengths, k, h, x_scale, w_scale):
    rng = np.random.default_rng([steps, k, h, len(lengths)])
    x = rng.normal(size=(steps, len(lengths), k)) * x_scale
    params = [rng.normal(size=s) * w_scale for s in ((k, 4 * h), (h, 4 * h), (1, 4 * h)) * 2]
    rows, index = sequence_rows(rng, x, lengths)
    out = ad.bilstm_last(Tensor(rows, requires_grad=True),
                         *(Tensor(p, requires_grad=True) for p in params), index=index)
    want, want_bw = bilstm_last_reference(x, params, lengths)
    assert out.data.tobytes() == want.tobytes()
    grad = rng.normal(size=want.shape)
    (gx, *gw), (want_gx, *want_gw) = out._backward(grad), want_bw(grad)
    assert_rows_are(gx, want_gx, index)
    for got, ref in zip(gw, want_gw, strict=True):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def max_rows_reference(x, lengths):
    """An earlier ``max_rows`` on a padded time-major batch x (T, S, k) and its
    lengths (S,): the output and its backward."""
    valid = np.arange(len(x))[:, None] < np.asarray(lengths)
    arg = np.argmax(np.where(valid[..., None], x, -np.inf), axis=0)[None]

    def bw(g):
        gx = np.zeros_like(x)
        np.put_along_axis(gx, arg, g[None], axis=0)
        return (gx,)

    return np.take_along_axis(x, arg, axis=0)[0], bw


@st.composite
def ragged_layouts(draw):
    """Sequence lengths, rows no sequence reads, row width, LSTM width, a seed,
    and whether rows hold small integers, so that maxima tie."""
    return (draw(st.lists(st.integers(1, 6), min_size=1, max_size=5)),
            draw(st.integers(0, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4)),
            draw(st.integers(0, 2 ** 32 - 1)), draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(ragged_layouts())
def test_sequence_ops_on_ragged_layouts_are_the_references_bit_for_bit(layout):
    lengths, unread, k, h, seed, ties = layout
    rng = np.random.default_rng(seed)
    size = (sum(lengths) + unread, k)
    rows = rng.integers(-2, 3, size=size) * 1.0 if ties else rng.normal(size=size)
    index = ragged_index(rng, lengths, len(rows))
    batch = rows[np.maximum(index, 0)]  # the padded batch, as gathered before
    params = [rng.normal(size=s) for s in ((k, 4 * h), (h, 4 * h), (1, 4 * h)) * 2]
    lstm = [Tensor(p, requires_grad=True) for p in params]
    x = Tensor(rows, requires_grad=True)
    for out, (want, want_bw) in (
            (ad.max_rows(x, index), max_rows_reference(batch, lengths)),
            (ad.bilstm_last(x, *lstm, index=index),
             bilstm_last_reference(batch, params, lengths))):
        assert out.data.tobytes() == want.tobytes()
        grad = rng.normal(size=want.shape)
        (gx, *gw), (want_gx, *want_gw) = out._backward(grad), want_bw(grad)
        assert_rows_are(gx, want_gx, index)
        for got, ref in zip(gw, want_gw, strict=True):
            assert got.tobytes() == ref.tobytes()


INDEX_OPS = ["max_rows", "bilstm_last", "cross_attention"]
# every malformed index has two columns, one pair to cross_attention
INDEX_FAULTS = [
    ("empty-sequence", [[-1, 0]], "an empty sequence"),
    ("padding-inside", [[0, -1], [1, 2]], "padding before a sequence's end"),
    ("row-twice", [[0, 1], [2, 1]], "reads a row twice"),
    ("out-of-range", [[0, 8]], "reads a row out of range of 8 rows"),
    ("1-D", [0, 1], r"needs \(R, k\) rows and a nonempty \(T, S\) index"),
    ("empty", np.zeros((0, 2), dtype=np.intp),
     r"needs \(R, k\) rows and a nonempty \(T, S\) index"),
    ("float", [[0.0, 1.0]], "index of dtype float64 is not integer"),
    ("bool", [[True, False]], "index of dtype bool is not integer"),
]


@pytest.mark.parametrize("op, index, match", [
    pytest.param(op, index, match, id=f"{name}-{op}")
    for name, index, match in INDEX_FAULTS for op in INDEX_OPS
] + [  # one pair whose graphs share row 1; three graphs, not pairs
    pytest.param("cross_attention", [[0, 1], [1, 2]], "reads a row twice",
                 id="both-sides-cross_attention"),
    pytest.param("cross_attention", [[0, 1, 2]], "an odd column count, 3",
                 id="odd-columns-cross_attention")])
def test_sequence_index_checked(op, index, match):
    rng = np.random.default_rng(0)
    params = lstm_params(rng, 3, 2)
    run = {"max_rows": ad.max_rows, "cross_attention": ad.cross_attention,
           "bilstm_last": lambda x, i: ad.bilstm_last(x, *params, index=i)}[op]
    with pytest.raises(ad.ShapeError, match=f"^{op}.*{match}"):
        run(Tensor(rng.normal(size=(8, 3))), index)
    # a padded batch (T, S, k) is refused, under a sound index: every op reads
    # rows through the index
    with pytest.raises(ad.ShapeError, match=r"needs \(R, k\) rows"):
        run(Tensor(rng.normal(size=(4, 2, 3))), [[0, 1]])


def test_max_rows_sequences_match_single_calls_and_fd():
    rng = np.random.default_rng(6)
    lengths = [1, 3, 2]
    x = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
    index = ragged_index(rng, lengths, len(x.data))
    out = ad.max_rows(x, index).data
    for s, n in enumerate(lengths):
        assert np.array_equal(out[s], ad.max_rows(x, index[:n, s:s + 1]).data[0])
    mix = Tensor(rng.normal(size=(3, 4)))
    fd_check(lambda: (ad.max_rows(x, index) * mix).mean(), [x])


@pytest.mark.parametrize("indices", [
    np.arange(240),                                 # distinct: assigned
    np.array([5, 0, -1, 17, 2]),                    # distinct, unordered, one negative
    np.zeros((4, 30), dtype=np.intp),               # all the same row
    np.array([[3, 1, 4], [1, 5, 9], [2, 6, 5]]),    # mixed, 2-D like a padded sequence
    np.array([7, -233]),                            # one row by two names
    np.array([], dtype=np.intp),
])
def test_gather_rows_backward_is_the_add_at_scatter_bit_for_bit(indices):
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(240, 64)), requires_grad=True)
    g = rng.normal(size=indices.shape + (64,))
    g[..., ::7] = -0.0  # 0.0 + -0.0 is 0.0 in add.at
    # the mean over the rows read and one constant, so an empty read has a
    # mean too: each row read gets g / (g.size + 1), as mean_all's backward
    # and mul's backward round it
    read = ad.reshape(ad.gather_rows(x, indices) * Tensor(g), (-1,))
    backward(ad.concat([read, Tensor([0.0])]).mean())
    want = np.zeros_like(x.data)
    np.add.at(want, indices, np.full(g.shape, 1.0 / (g.size + 1)) * g)
    assert x.grad.tobytes() == want.tobytes()


def test_block_matmul_matches_dense_and_fd():
    rng = np.random.default_rng(7)
    sizes = [2, 1, 3]
    blocks = np.zeros((3, 3, 3))
    dense = np.zeros((6, 6))
    start = 0
    for g, n in enumerate(sizes):
        blocks[g, :n, :n] = dense[start:start + n, start:start + n] = rng.normal(size=(n, n))
        start += n
    where = (np.repeat(np.arange(3), sizes), np.concatenate([np.arange(n) for n in sizes]))
    x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    assert np.allclose(ad.block_matmul(blocks, x, where).data, dense @ x.data,
                       rtol=0, atol=1e-12)
    mix = Tensor(rng.normal(size=(6, 4)))
    fd_check(lambda: (ad.block_matmul(blocks, x, where) * mix).mean(), [x])


def test_cross_attention_gradients_fd():
    rng = np.random.default_rng(8)
    # pairs of 1 and 3 nodes, 2 and 1 nodes, 1 and 1 node, stacked in that order
    x = Tensor(rng.normal(size=(9, 3)), requires_grad=True)
    # time-major: the first graphs in columns 0-2, the second graphs in 3-5
    index = np.array([[0, 4, 7, 1, 6, 8], [-1, 5, -1, 2, -1, -1], [-1, -1, -1, 3, -1, -1]])
    mix = Tensor(rng.normal(size=(9, 3)))
    fd_check(lambda: (ad.cross_attention(x, index) * mix).mean(), [x])


def test_cross_attention_zero_node_is_flat():
    # a zero node's cosines are 0 with zero gradient, as with ``cosine``: with
    # nothing attended and nothing to attend, the whole pair is flat
    x = Tensor(np.array([[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]]), requires_grad=True)
    out = ad.cross_attention(x, np.array([[0, 1], [-1, 2]]))
    backward((out * Tensor(np.ones((3, 2)))).mean())
    assert np.array_equal(out.data, np.zeros((3, 2)))
    assert np.array_equal(x.grad, np.zeros((3, 2)))
