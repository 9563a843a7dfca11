"""Minimal dense-tensor library with reverse-mode automatic differentiation.

Everything is float64 numpy under the hood. A Tensor is a node of a dynamic
computation graph: ops record their parents and a backward closure, and
``backward`` replays the graph in reverse topological order. The op set, and
the one form each op takes, is what the matching models run: every operand
is a Tensor, and max_rows, bilstm_last and cross_attention read rows (R, k)
through one time-major index (T, S) padded with -1, which ``_sequences``
checks. The acceptance gradient gate checks each op against finite
differences; no broadcasting beyond numpy's.
"""

import numpy as np

EPS = 1e-8


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class Tensor:
    """Dense float64 array plus an optional gradient slot.

    Tensors created by ops keep references to their parents and a closure
    computing parent gradients from the output gradient, forming the tape.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; all arithmetic goes through the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def mean(self):
        return mean_all(self)

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])


def _unbroadcast(grad, shape):
    """Sum a broadcasted gradient back down to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _make(data, parents, backward):
    for p in parents:
        if p.requires_grad:
            return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)
    return Tensor(data)


# ---------------------------------------------------------------------------
# primitive ops

def add(a, b):
    out = a.data + b.data

    def bw(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(out, (a, b), bw)


def sub(a, b):
    out = a.data - b.data

    def bw(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _make(out, (a, b), bw)


def mul(a, b):
    out = a.data * b.data

    def bw(g):
        return (_unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape))

    return _make(out, (a, b), bw)


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} @ {b.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def bw(g):
        return g @ b.data.T, a.data.T @ g

    return _make(out, (a, b), bw)


def relu(x):
    out = np.maximum(x.data, 0.0)

    def bw(g):
        return (g * (x.data > 0.0),)

    return _make(out, (x,), bw)


def sigmoid(x):
    s = 0.5 * (1.0 + np.tanh(0.5 * x.data))  # stable at both tails, one ufunc pass

    def bw(g):
        return (g * s * (1.0 - s),)

    return _make(s, (x,), bw)


def mean_all(x):
    n = x.data.size
    if n == 0:
        raise ShapeError(f"mean of an empty tensor, shape {x.shape}")
    out = x.data.mean()

    def bw(g):
        return (np.full_like(x.data, float(g) / n),)

    return _make(out, (x,), bw)


def reshape(x, shape):
    out = x.data.reshape(shape)

    def bw(g):
        return (g.reshape(x.data.shape),)

    return _make(out, (x,), bw)


def concat(tensors, axis=0):
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tuple(tensors), bw)


def gather_rows(x, indices):
    """Select rows x[indices] for an index array of any shape; backward
    scatter-adds into the source."""
    idx = np.asarray(indices, dtype=np.intp)
    out = x.data[idx]

    def bw(g):
        gx = np.zeros_like(x.data)
        if np.bincount(idx.reshape(-1) % len(gx), minlength=1).max() > 1:
            np.add.at(gx, idx, g)
        else:  # each row read once: add.at's 0.0 + g, -0.0 to 0.0 included
            gx[idx] = g + 0.0
        return (gx,)

    return _make(out, (x,), bw)


def max_rows(x, index):
    """Columnwise maximum over the rows of each sequence; gradient flows to the
    first argmax.

    x: (R, k) rows; index: (T, S) the rows of S sequences, time-major, padded
    with -1, as ``_sequences`` checks it; gives (S, k).
    """
    index, _ = _sequences(x, index, "max_rows")
    valid = (index >= 0)[..., None]
    arg = np.argmax(np.where(valid, x.data[index], -np.inf), axis=0)  # (S, k) steps
    rows = index[arg, np.arange(index.shape[1])[:, None]]
    cols = np.arange(x.data.shape[1])
    out = x.data[rows, cols]

    def bw(g):
        gx = np.zeros_like(x.data)
        gx[rows, cols] = g
        return (gx,)

    return _make(out, (x,), bw)


def _sequences(x, index, op):
    """The integer index (T, S) of S time-major sequences of rows of x (R, k),
    padded with -1, as an array, and their lengths (S,). None is empty or padded
    before its end, and none reads a row twice, so backward assigns each row's
    gradient."""
    index = np.asarray(index)
    if not np.issubdtype(index.dtype, np.integer):
        raise ShapeError(f"{op}: index of dtype {index.dtype} is not integer")
    if x.data.ndim != 2 or index.ndim != 2 or index.size == 0:
        raise ShapeError(f"{op} needs (R, k) rows and a nonempty (T, S) index, "
                         f"got {x.shape} and {index.shape}")
    valid = index != -1
    if (valid[1:] > valid[:-1]).any():
        raise ShapeError(f"{op}: index has padding before a sequence's end")
    if not valid[0].all():
        raise ShapeError(f"{op}: index has an empty sequence")
    read = np.sort(index[valid])
    if read[0] < 0 or read[-1] >= x.data.shape[0]:
        raise ShapeError(f"{op}: index reads a row out of range of {x.shape[0]} rows")
    if (read[1:] == read[:-1]).any():
        raise ShapeError(f"{op}: index reads a row twice")
    return index, valid.sum(axis=0)


def cosine(a, b):
    """Cosine similarity along the last axis, numpy-broadcast over the rest.

    Norm denominators are clamped at EPS; if either vector is (near) zero the
    result is ~0 and the gradient is defined as exactly 0 there.
    """
    na = np.sqrt(np.sum(a.data * a.data, axis=-1))
    nb = np.sqrt(np.sum(b.data * b.data, axis=-1))
    dot = np.sum(a.data * b.data, axis=-1)
    cna = np.maximum(na, EPS)
    cnb = np.maximum(nb, EPS)
    out = dot / (cna * cnb)

    def bw(g):
        valid = (na >= EPS) & (nb >= EPS)
        gv = np.where(valid, g, 0.0)[..., None]
        inv = 1.0 / (cna * cnb)[..., None]
        c = out[..., None]
        ga = gv * (b.data * inv - c * a.data / (cna * cna)[..., None])
        gb = gv * (a.data * inv - c * b.data / (cnb * cnb)[..., None])
        return (_unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape))

    return _make(out, (a, b), bw)


def dropout(x, rate, rng):
    """Inverted dropout, mask drawn from rng, survivors scaled by 1/(1-rate); x if rng is None."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return x
    keep = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    out = x.data * keep

    def bw(g):
        return (g * keep,)

    return _make(out, (x,), bw)


# ---------------------------------------------------------------------------
# tape and backward pass

class Tape:
    """Topologically ordered list of graph nodes reachable from one output."""

    def __init__(self, root):
        order = []
        seen = set()
        stack = [(root, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.nodes = order  # parents always precede children


def backward(loss):
    """Populate .grad for every requires_grad leaf reachable from loss.

    Gradients accumulate additively, both across multiple uses inside one
    graph and across repeated backward calls (Model.zero_grad resets them).
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    tape = Tape(loss)
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:  # a leaf: only leaves keep a gradient
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for p, pg in zip(node._parents, node._backward(g)):
            if pg is None or not p.requires_grad:
                continue
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = pg


def bilstm_last(x, wx_f, wh_f, b_f, wx_b, wh_b, b_b, index):
    """Concatenated last hidden states of a forward and a backward LSTM pass.

    x: (R, k) rows; index: (T, S) the rows of S sequences, time-major, padded
    with -1, as ``_sequences`` checks it; gives (S, 2*hidden). Sequence s
    reads the rows index[:, s] up to its padding, and its backward pass starts
    at its own last row.

    One fused node for the whole bidirectional recurrence over all sequences.
    The backward pass reads each sequence reversed, and the sequences are
    sorted by decreasing length, so each timestep is one (2, active, h) @
    (2, h, 4h) product over both directions of the sequences still running.
    The history is time-major, (T, 2, S, .), with the state entering each
    step; a sequence's last state is read at its length. Gate columns are
    [input, forget, cell, output], as stored; the cell gate is tanh, the rest
    sigmoid(z) = 0.5 + 0.5 tanh(z / 2): a step halves their columns of the
    pre-activation, takes one tanh of all four gates, then one scale and
    shift; both directions share one unscaled stack of the recurrent weights.
    Halving and the 0.5 affine map are exact in binary floating point outside
    the subnormal range. The forward math is plain numpy, and the backward
    pass is hand-written BPTT.
    """
    params = (wx_f, wh_f, b_f, wx_b, wh_b, b_b)
    index, lengths = _sequences(x, index, "bilstm_last")
    steps, count = index.shape
    k = x.data.shape[1]
    h = params[1].data.shape[0]
    for wx, wh, b in (params[:3], params[3:]):
        if wx.data.shape != (k, 4 * h) or wh.data.shape != (h, 4 * h) \
                or b.data.shape != (1, 4 * h):
            raise ShapeError(
                f"bilstm_last weight shapes disagree: x {x.shape}, wx {wx.shape}, "
                f"wh {wh.shape}, b {b.shape}")
    # t + -0.0 is t, -0.0 included, so the cell gate's shift leaves it as it is
    scale, shift = np.repeat([[0.5, 0.5, 1.0, 0.5], [0.5, 0.5, -0.0, 0.5]], h, axis=1)

    order = np.argsort(-lengths, kind="stable")
    rank = np.argsort(order)  # each sequence's sorted position
    lens = lengths[order]
    t_col = np.arange(steps)[:, None]
    live = t_col < lens  # (T, S): the steps that read a row
    active = live.sum(axis=1).tolist()  # sequences running at each step
    cols = np.arange(count)
    # step t of each sequence's reversed copy; padding maps to itself
    rev = np.where(live, lens - 1 - t_col, t_col)
    index = index[:, order]
    # padding reads x's last row: its projection is never used, its gradient is 0
    xs = (x.data[index].reshape(-1, k), x.data[index[rev, cols]].reshape(-1, k))
    z_in = np.empty((2, steps, count, 4 * h))
    for d, (wx, b) in enumerate(((wx_f, b_f), (wx_b, b_b))):
        np.matmul(xs[d], wx.data, out=z_in[d].reshape(-1, 4 * h))
        z_in[d] += b.data
    wh = np.stack([wh_f.data, wh_b.data])

    gates = np.zeros((steps, 2, count, 4 * h))  # gate activations
    cs = np.zeros((steps + 1, 2, count, h))     # cell state entering each step
    ss = np.zeros((steps + 1, 2, count, h))     # hidden state entering each step
    for t, n in enumerate(active):
        a = np.matmul(ss[t, :, :n], wh, out=gates[t, :, :n])
        a += z_in[:, t, :n]
        a *= scale
        np.tanh(a, out=a)
        a *= scale
        a += shift
        c = np.multiply(a[..., h:2 * h], cs[t, :, :n], out=cs[t + 1, :, :n])
        c += a[..., :h] * a[..., 2 * h:3 * h]
        np.multiply(np.tanh(c, out=ss[t + 1, :, :n]), a[..., 3 * h:], out=ss[t + 1, :, :n])
    out = ss[lens, :, cols].reshape(count, 2 * h)[rank]
    ss[lens, :, cols] = 0.0  # a finished sequence enters no further step

    def bw(grad):
        ds = np.stack([grad[order, :h], grad[order, h:]])
        dc = np.zeros((2, count, h))
        dz_all = np.zeros((2, steps, count, 4 * h))
        wh_t = wh.transpose(0, 2, 1)
        for t in range(steps - 1, -1, -1):
            n = active[t]
            a = gates[t, :, :n]
            gi, gf, gc, go = (a[..., j * h:(j + 1) * h] for j in range(4))
            tc = np.tanh(cs[t + 1, :, :n])
            dcn = dc[:, :n] + ds[:, :n] * go * (1.0 - tc * tc)
            dz = dz_all[:, t, :n]
            dz[..., :h] = dcn * gc * gi * (1.0 - gi)
            dz[..., h:2 * h] = dcn * cs[t, :, :n] * gf * (1.0 - gf)
            dz[..., 2 * h:3 * h] = dcn * gi * (1.0 - gc * gc)
            dz[..., 3 * h:] = ds[:, :n] * tc * go * (1.0 - go)
            ds[:, :n] = dz @ wh_t
            dc[:, :n] = dcn * gf
        dz_all = dz_all.reshape(2, -1, 4 * h)
        # contiguous state rows: BLAS rounds a strided view (one sequence at width 1) apart
        gw = [(xs[d].T @ dz, np.ascontiguousarray(ss[:steps, d]).reshape(-1, h).T @ dz,
               dz.sum(axis=0, keepdims=True)) for d, dz in enumerate(dz_all)]
        gxs, gxr = ((dz @ wx.data.T).reshape(steps, count, k)
                    for dz, wx in zip(dz_all, (wx_f, wx_b)))
        gxs[rev, cols] += gxr
        gx = np.zeros_like(x.data)
        gx[index[live]] = gxs[live]
        return (gx, *gw[0], *gw[1])

    return _make(out, (x,) + params, bw)


def weighted_cosine(x1, x2, w):
    """Cosine of x1 and x2 rows under each squared reweighting row of w.

    x1, x2: (N, d); w: (P, d). out[n, k] = cos(x1[n] * w[k], x2[n] * w[k]),
    computed with three (N, d) x (d, P) products instead of materializing
    (N, P, d) intermediates. Same EPS clamping and zero-vector gradient
    convention as ``cosine``.
    """
    if x1.data.ndim != 2 or x1.data.shape != x2.data.shape or w.data.ndim != 2 \
            or w.data.shape[1] != x1.data.shape[1]:
        raise ShapeError(
            f"weighted_cosine shapes disagree: {x1.shape}, {x2.shape}, w {w.shape}")
    w2 = w.data * w.data
    p12 = x1.data * x2.data
    p11 = x1.data * x1.data
    p22 = x2.data * x2.data
    dot = p12 @ w2.T
    n1 = np.sqrt(p11 @ w2.T)
    n2 = np.sqrt(p22 @ w2.T)
    cn1 = np.maximum(n1, EPS)
    cn2 = np.maximum(n2, EPS)
    out = dot / (cn1 * cn2)

    def bw(g):
        valid = (n1 >= EPS) & (n2 >= EPS)
        gv = np.where(valid, g, 0.0)
        ginv = gv / (cn1 * cn2)
        g11 = gv * out / (cn1 * cn1)
        g22 = gv * out / (cn2 * cn2)
        gx1 = (ginv @ w2) * x2.data - (g11 @ w2) * x1.data
        gx2 = (ginv @ w2) * x1.data - (g22 @ w2) * x2.data
        gw2 = ginv.T @ p12 - 0.5 * (g11.T @ p11 + g22.T @ p22)
        return gx1, gx2, 2.0 * w.data * gw2

    return _make(out, (x1, x2, w), bw)


def block_matmul(blocks, x, where):
    """Block-diagonal product: each graph's rows of x times its own block.

    blocks: (G, n, n) constant array, graph g's matrix in its top-left corner;
    x: (R, d) rows of all graphs stacked; where: (graph, position) index arrays
    of every row of x. Memory grows with G * n * n, not with R * R.
    """
    gi, ni = where
    if x.data.ndim != 2 or blocks.ndim != 3 or len(gi) != x.data.shape[0]:
        raise ShapeError(f"block_matmul shapes disagree: blocks {blocks.shape}, x {x.shape}")

    def apply(mats, rows):
        padded = np.zeros(blocks.shape[:2] + rows.shape[1:])
        padded[gi, ni] = rows
        return (mats @ padded)[gi, ni]

    return _make(apply(blocks, x.data), (x,),
                 lambda g: (apply(blocks.transpose(0, 2, 1), g),))


def cross_attention(x, index):
    """Each node's attention-weighted summary of the other graph of its pair.

    x: (R, d) node rows of every pair side; index: (T, 2B) the rows of B pairs'
    graphs, time-major, padded with -1, as ``_sequences`` checks it: pair p's
    first graph in column p and its second in column B + p, so no row is on
    both sides. The attention weight of node i on node j of the other graph
    is their cosine, under the same EPS clamp and zero-gradient rule as
    ``cosine``. Returns (R, d): row i of a first graph holds sum_j weight_ij
    x_j over its pair's second graph, and conversely; a row not read holds 0.
    """
    index, lengths = _sequences(x, index, "cross_attention")
    count, odd = divmod(index.shape[1], 2)
    if odd:
        raise ShapeError(f"cross_attention: index has an odd column count, {index.shape[1]}")
    n, m = lengths[:count].max(), lengths[count:].max()
    live = index >= 0
    read = index[live]
    shape = (2 * count, len(index), x.data.shape[1])  # every pair side's rows

    def sides(rows):  # rows (R, d) as each pair's (B, n, d) and (B, m, d), 0 on padding
        s = np.zeros(shape)
        s.transpose(1, 0, 2)[live] = rows[read]
        return s[:count, :n], s[count:, :m]

    def scatter(first, second):  # the inverse of sides; a row not read gets 0
        s = np.zeros(shape)
        s[:count, :n], s[count:, :m] = first, second
        rows = np.zeros_like(x.data)
        rows[read] = s.transpose(1, 0, 2)[live]
        return rows

    a, b = sides(x.data)
    na = np.sqrt(np.sum(a * a, axis=-1))
    nb = np.sqrt(np.sum(b * b, axis=-1))
    cna = np.maximum(na, EPS)[:, :, None]
    cnb = np.maximum(nb, EPS)[:, None, :]
    # the product-and-sum of ``cosine`` rather than a matmul, so each weight
    # rounds exactly as ``cosine`` rounds it
    alpha = np.sum(a[:, :, None] * b[:, None], axis=-1) / (cna * cnb)  # 0 on padding
    alpha_t = np.ascontiguousarray(alpha.transpose(0, 2, 1))  # as alpha of the swapped pair
    out = scatter(alpha @ b, alpha_t @ a)

    def bw(g):
        g2, g1 = sides(g)
        dalpha = g2 @ b.transpose(0, 2, 1) + a @ g1.transpose(0, 2, 1)
        ga = alpha @ g1
        gb = alpha.transpose(0, 2, 1) @ g2
        # padded rows are zero, so their norm is below EPS
        valid = (na >= EPS)[:, :, None] & (nb >= EPS)[:, None, :]
        gv = np.where(valid, dalpha, 0.0)
        ginv = gv / (cna * cnb)
        galpha = gv * alpha
        ga += ginv @ b - galpha.sum(axis=2)[..., None] * a / (cna * cna)
        gb += ginv.transpose(0, 2, 1) @ a \
            - galpha.sum(axis=1)[..., None] * b / (cnb * cnb).transpose(0, 2, 1)
        return (scatter(ga, gb),)

    return _make(out, (x,), bw)
