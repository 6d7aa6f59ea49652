"""Reverse-mode automatic differentiation on float64 numpy arrays.

Define-by-run: every operator returns a new Tensor that remembers its
parents and one vector-Jacobian-product closure per parent.  backward()
walks the recorded graph once, in reverse topological order, and returns
a gradient map.  Graphs are built fresh each step and discarded; nothing
here mutates an array that belongs to a live node.

All operators validate shapes up front and reject any non-finite result,
naming the operator that produced it.  Row-wise operators (softmax,
layer norm, L2 normalization, ...) act on the last axis and accept any
number of leading batch axes.  Every lookup (token and position
embeddings, EOS pooling, reference rows, masked positions, the pairs of
a similarity matrix) is the one gather, take().

linear(), attention() and feed_forward() are fused nodes: one node each
for a whole layer, whose forward runs the same numpy expressions, on the
same memory layouts, as the chain of single ops it stands for, and whose
backward runs once and hands every parent its share.  Their results are
bitwise those of the chain.
"""
from __future__ import annotations

import math

import numpy as np

Array = np.ndarray

__all__ = [
    "Tensor", "ShapeError", "NumericsError", "GraphError",
    "parameter", "backward",
    "add", "mul", "scale", "shift", "matmul",
    "log", "tanh", "softplus", "row_softmax", "layer_norm", "l2_normalize",
    "concat_rows", "sum_all", "mean_all", "take", "stop_gradient",
    "cosine_matrix", "linear", "attention", "feed_forward",
    "Adam", "ScheduleConfig", "lr_at", "finite_difference_check",
]


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operator's rule."""


class NumericsError(FloatingPointError):
    """A non-finite value tried to enter the graph."""


class GraphError(RuntimeError):
    """Graph API misuse, e.g. backward from a non-scalar."""


class Tensor:
    """A node of the computation graph wrapping a float64 array.

    Leaves are built directly (see also parameter()); interior nodes only
    ever come out of the operator functions below.  .data is owned by the
    node and must not be resized; optimizers may rewrite parameter data
    in place between steps because graphs never outlive a step.
    """

    __slots__ = ("data", "requires_grad", "name", "_op", "_parents", "_vjps")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericsError(f"non-finite values in tensor construction ({name or 'unnamed'})")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._op = "leaf"
        self._parents: tuple[Tensor, ...] = ()
        self._vjps: tuple = ()

    @classmethod
    def _result(cls, op: str, data: Array, parents, vjps) -> "Tensor":
        _refuse_non_finite(op, "output", data)
        t = object.__new__(cls)
        t.data = data
        t.name = None
        t._op = op
        if any(p.requires_grad for p in parents):
            t.requires_grad = True
            t._parents = tuple(parents)
            t._vjps = tuple(vjps)
        else:
            # dead subgraphs are released eagerly so constants stay cheap
            t.requires_grad = False
            t._parents = ()
            t._vjps = ()
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise GraphError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data)

    def __repr__(self) -> str:
        tag = self.name or self._op
        return f"Tensor({tag}, shape={self.data.shape}, grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)


def _refuse_non_finite(op: str, what: str, a: Array) -> None:
    if not np.all(np.isfinite(a)):
        raise NumericsError(f"{op}: non-finite {what}")


def parameter(data, name: str | None = None) -> Tensor:
    """A trainable leaf."""
    return Tensor(data, requires_grad=True, name=name)


def _topo_order(root: Tensor) -> list[Tensor]:
    # iterative postorder; recursion would overflow on deep graphs
    if not root.requires_grad:
        return []
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor, wrt) -> dict[Tensor, Array]:
    """Gradients of a scalar loss with respect to each tensor in wrt.

    Returns {tensor: gradient array} holding exactly those tensors; any
    of them the graph never reached gets an exact zero array (this is
    what makes stop-gradient contracts checkable bitwise).
    """
    if loss.data.shape != ():
        raise GraphError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    order = _topo_order(loss)
    grads: dict[Tensor, Array] = {}
    if order:
        grads[loss] = np.ones((), dtype=np.float64)
    wanted = list(wrt)
    keep = {id(t) for t in wanted}
    for node in reversed(order):
        g = grads.get(node)
        if g is None:
            continue
        for parent, vjp in zip(node._parents, node._vjps):
            if not parent.requires_grad:
                continue
            contrib = vjp(g)
            prev = grads.get(parent)
            # out-of-place accumulate: vjps are allowed to return views
            grads[parent] = contrib if prev is None else prev + contrib
        if node._parents and id(node) not in keep:
            del grads[node]
    out: dict[Tensor, Array] = {}
    for t in wanted:
        g = grads.get(t)
        out[t] = np.zeros_like(t.data) if g is None else g
    return out


def _sum_to_vector(g: Array) -> Array:
    # collapse all leading axes; used by bias-style broadcasts
    if g.ndim == 1:
        return g
    return g.reshape(-1, g.shape[-1]).sum(axis=0)


# ---------------------------------------------------------------- arithmetic

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape == b.shape:
        return Tensor._result("add", a.data + b.data, (a, b),
                              (lambda g: g, lambda g: g))
    # bias broadcast: b is a vector over the last axis of a
    if b.ndim == 1 and a.ndim > 1 and a.shape[-1] == b.shape[0]:
        return Tensor._result("add", a.data + b.data, (a, b),
                              (lambda g: g, _sum_to_vector))
    raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not conform")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    return Tensor._result("mul", a.data * b.data, (a, b),
                          (lambda g: g * b.data, lambda g: g * a.data))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    if not np.isfinite(c):
        raise NumericsError(f"scale: non-finite factor {c}")
    return Tensor._result("scale", a.data * c, (a,), (lambda g: g * c,))


def shift(a: Tensor, c: float) -> Tensor:
    c = float(c)
    if not np.isfinite(c):
        raise NumericsError(f"shift: non-finite offset {c}")
    return Tensor._result("shift", a.data + c, (a,), (lambda g: g,))


def _weight_grad(x: Array, g: Array) -> Array:
    # gradient of x @ w with respect to the matrix w: one gemm over every
    # leading axis of x
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b for a plain matrix b, applied across a's leading axes."""
    if a.ndim < 2 or b.ndim != 2:
        raise ShapeError(f"matmul: need (..., n) @ (n, m), got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    return Tensor._result("matmul", a.data @ b.data, (a, b),
                          (lambda g: g @ b.data.T, lambda g: _weight_grad(a.data, g)))


# ------------------------------------------------------------- elementwise

def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)
    return Tensor._result("log", out, (a,), (lambda g: g / a.data,))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return Tensor._result("tanh", out, (a,), (lambda g: g * (1.0 - out * out),))


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x), overflow-safe on both tails."""
    out = np.logaddexp(0.0, a.data)

    def vjp(g, x=a.data):
        return g * 0.5 * (1.0 + np.tanh(0.5 * x))

    return Tensor._result("softplus", out, (a,), (vjp,))


# ---------------------------------------------------------------- row-wise

def _softmax(a: Array) -> Array:
    m = a.max(axis=-1, keepdims=True)
    e = np.exp(a - m)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(g: Array, s: Array) -> Array:
    return s * (g - (g * s).sum(axis=-1, keepdims=True))


def row_softmax(a: Tensor) -> Tensor:
    s = _softmax(a.data)
    return Tensor._result("row_softmax", s, (a,), (lambda g: _softmax_grad(g, s),))


_LN_EPS = 1e-5


def _layer_norm(x: Array, gain: Array, bias: Array, eps: float) -> tuple[Array, Array, Array]:
    # -> (output, normalized input, inverse standard deviation)
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat * gain + bias, xhat, inv


def _layer_norm_grad(g: Array, xhat: Array, inv: Array, gain: Array) -> Array:
    # gradient with respect to the layer norm's input
    gy = g * gain
    return inv * (gy - gy.mean(axis=-1, keepdims=True)
                  - xhat * (gy * xhat).mean(axis=-1, keepdims=True))


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = _LN_EPS) -> Tensor:
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias must be ({d},), got {gain.shape}/{bias.shape}")
    out, xhat, inv = _layer_norm(a.data, gain.data, bias.data, eps)
    return Tensor._result("layer_norm", out, (a, gain, bias),
                          (lambda g: _layer_norm_grad(g, xhat, inv, gain.data),
                           lambda g: _sum_to_vector(g * xhat), _sum_to_vector))


def l2_normalize(a: Tensor) -> Tensor:
    """Unit-normalize along the last axis.  Zero rows are an error, never
    silently nudged with an epsilon."""
    n = np.sqrt((a.data * a.data).sum(axis=-1, keepdims=True))
    if np.any(n == 0.0):
        idx = np.argwhere(n[..., 0] == 0.0)[0]
        raise NumericsError(f"l2_normalize: zero-norm row at index {tuple(idx)}")
    y = a.data / n

    def vjp(g, y=y, n=n):
        return (g - y * (g * y).sum(axis=-1, keepdims=True)) / n

    return Tensor._result("l2_normalize", y, (a,), (vjp,))


# ------------------------------------------------------- structure movers

def concat_rows(tensors) -> Tensor:
    """Concatenate along axis 0."""
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat_rows: nothing to concatenate")
    tail = tensors[0].shape[1:]
    for t in tensors:
        if t.shape[1:] != tail:
            raise ShapeError(f"concat_rows: trailing shape {t.shape[1:]} != {tail}")
    out = np.concatenate([t.data for t in tensors], axis=0)
    vjps = []
    ofs = 0
    for t in tensors:
        n = t.shape[0]
        vjps.append(lambda g, s=ofs, e=ofs + n: g[s:e])
        ofs += n
    return Tensor._result("concat_rows", out, tuple(tensors), tuple(vjps))


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum())
    return Tensor._result("sum_all", out, (a,),
                          (lambda g, shape=a.shape: np.broadcast_to(g, shape),))


def mean_all(a: Tensor) -> Tensor:
    if a.size == 0:
        raise ShapeError("mean_all: empty tensor")
    out = np.asarray(a.data.mean())
    n = a.size
    return Tensor._result("mean_all", out, (a,),
                          (lambda g, shape=a.shape: np.broadcast_to(g / n, shape),))


def take(a: Tensor, *index) -> Tensor:
    """Gather: out = a[index].  One integer index array per leading axis,
    broadcast together; the remaining axes come along whole.  Duplicate
    indices accumulate gradient."""
    index = tuple(np.asarray(i) for i in index)
    if not 0 < len(index) <= a.ndim:
        raise ShapeError(f"take: {len(index)} index arrays for shape {a.shape}")
    for axis, i in enumerate(index):
        if not np.issubdtype(i.dtype, np.integer):
            raise ShapeError(f"take: index on axis {axis} must be integers, got {i.dtype}")
        if i.size and (i.min() < 0 or i.max() >= a.shape[axis]):
            raise ShapeError(f"take: index out of range on axis {axis} of {a.shape}")
    try:
        np.broadcast_shapes(*(i.shape for i in index))
    except ValueError:
        raise ShapeError(f"take: index shapes {[i.shape for i in index]} do not broadcast") from None
    out = a.data[index]

    def vjp(g, index=index, shape=a.shape):
        z = np.zeros(shape, dtype=np.float64)
        np.add.at(z, index, g)
        return z

    return Tensor._result("take", out, (a,), (vjp,))


def stop_gradient(a: Tensor) -> Tensor:
    """Identity forward, gradient barrier backward.  The forward value is
    the same buffer, so contracts about it are bitwise."""
    return Tensor._result("stop_gradient", a.data, (), ())


def cosine_matrix(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs cosine similarity between the rows of two matrices.
    Zero-norm rows are rejected with their index."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ShapeError(f"cosine_matrix: shapes {a.shape} / {b.shape} do not pair")
    na = np.sqrt((a.data * a.data).sum(axis=1, keepdims=True))
    nb = np.sqrt((b.data * b.data).sum(axis=1, keepdims=True))
    if np.any(na == 0.0):
        raise NumericsError(f"cosine_matrix: zero-norm row {int(np.flatnonzero(na[:, 0] == 0.0)[0])} on the left")
    if np.any(nb == 0.0):
        raise NumericsError(f"cosine_matrix: zero-norm row {int(np.flatnonzero(nb[:, 0] == 0.0)[0])} on the right")
    ahat = a.data / na
    bhat = b.data / nb
    s = ahat @ bhat.T

    def vjp_a(g, ahat=ahat, bhat=bhat, s=s, na=na):
        return (g @ bhat - (g * s).sum(axis=1, keepdims=True) * ahat) / na

    def vjp_b(g, ahat=ahat, bhat=bhat, s=s, nb=nb):
        return (g.T @ ahat - (g * s).sum(axis=0)[:, None] * bhat) / nb

    return Tensor._result("cosine_matrix", s, (a, b), (vjp_a, vjp_b))


# ------------------------------------------------------------ fused layers

def _fused(op: str, data: Array, parents, grads) -> Tensor:
    """A node whose backward runs once per backward() call: grads(g)
    returns one gradient per parent, computed when the first parent asks
    and released once the last parent that needs one has its share."""
    last = max((i for i, p in enumerate(parents) if p.requires_grad), default=-1)
    held: list = []

    def share(i):
        def vjp(g):
            if not held or held[0] is not g:
                held[:] = (g, grads(g))
            out = held[1][i]
            if i == last:
                held.clear()
            return out
        return vjp

    return Tensor._result(op, data, parents, [share(i) for i in range(len(parents))])


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b: the matrix w applied across x's leading axes, then the
    bias vector b over the last axis."""
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != (w.shape[1],):
        raise ShapeError(f"linear: shapes {x.shape} @ {w.shape} + {b.shape} do not conform")
    return Tensor._result("linear", x.data @ w.data + b.data, (x, w, b),
                          (lambda g: g @ w.data.T, lambda g: _weight_grad(x.data, g),
                           _sum_to_vector))


# logit of a masked key; its softmax weight underflows to exactly 0
_MASKED_OUT = -1e30


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
              key_mask: np.ndarray | None = None) -> Tensor:
    """Multi-head scaled dot-product attention on (B, L, d) tensors.

    The heads split d.  key_mask is a (B, Lk) boolean array, True where a
    key is real; a masked key gets a large negative logit before the
    softmax.  Each head permute is a contiguous copy, as numpy's matmul
    sums a strided operand in a different order than a contiguous one.
    The scores are checked before the mask and softmax, which would turn
    an infinite score into a finite weight.
    """
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
        raise ShapeError(f"attention: expected 3-d tensors, got {q.shape}/{k.shape}/{v.shape}")
    B, Lq, d = q.shape
    if k.shape[0] != B or v.shape[0] != B or k.shape[2] != d or v.shape[2] != d:
        raise ShapeError(f"attention: shapes {q.shape}/{k.shape}/{v.shape} do not conform")
    if k.shape[1] != v.shape[1]:
        raise ShapeError(f"attention: key/value lengths differ, {k.shape} vs {v.shape}")
    if d % n_heads != 0:
        raise ShapeError(f"attention: d={d} not divisible by {n_heads} heads")
    Lk = k.shape[1]
    if key_mask is not None and key_mask.shape != (B, Lk):
        raise ShapeError(f"attention: key_mask shape {key_mask.shape}, expected {(B, Lk)}")
    dh = d // n_heads
    c = 1.0 / math.sqrt(dh)

    def split(a: Array, L: int) -> Array:    # (B, L, d) -> (B, heads, L, dh)
        return np.transpose(a.reshape(B, L, n_heads, dh), (0, 2, 1, 3)).copy()

    def merge(a: Array, L: int) -> Array:    # (B, heads, L, dh) -> (B, L, d)
        return np.transpose(a, (0, 2, 1, 3)).reshape(B, L, d)

    qh, vh = split(q.data, Lq), split(v.data, Lk)
    kt = np.transpose(k.data.reshape(B, Lk, n_heads, dh), (0, 2, 3, 1)).copy()
    scores = (qh @ kt) * c
    _refuse_non_finite("attention", "scores", scores)
    if key_mask is not None:
        scores = scores + np.where(key_mask, 0.0, _MASKED_OUT)[:, None, None, :]
    att = _softmax(scores)
    out = merge(att @ vh, Lq)

    def grads(g):
        go = np.transpose(g.reshape(B, Lq, n_heads, dh), (0, 2, 1, 3))
        gs = _softmax_grad(go @ np.swapaxes(vh, -1, -2), att) * c
        gkt = np.swapaxes(qh, -1, -2) @ gs
        return (merge(gs @ np.swapaxes(kt, -1, -2), Lq),
                merge(np.transpose(gkt, (0, 1, 3, 2)), Lk),
                merge(np.swapaxes(att, -1, -2) @ go, Lk))

    return _fused("attention", out, (q, k, v), grads)


def feed_forward(x: Tensor, ln_gain: Tensor, ln_bias: Tensor, w1: Tensor, b1: Tensor,
                 w2: Tensor, b2: Tensor) -> Tensor:
    """Pre-norm residual tanh feed-forward: x + tanh(LN(x) @ w1 + b1) @ w2 + b2.

    The pre-tanh activations are checked, as tanh would turn an infinite
    one into a finite 1; a non-finite layer norm shows up there too.
    """
    d = x.shape[-1] if x.ndim >= 2 else -1
    if d < 0 or ln_gain.shape != (d,) or ln_bias.shape != (d,) or w1.ndim != 2 \
            or w1.shape[0] != d or b1.shape != w1.shape[1:] or w2.shape != (w1.shape[1], d) \
            or b2.shape != (d,):
        raise ShapeError(f"feed_forward: input {x.shape}, layer norm {ln_gain.shape}/"
                         f"{ln_bias.shape}, {w1.shape} + {b1.shape}, {w2.shape} + "
                         f"{b2.shape} do not conform")
    h, xhat, inv = _layer_norm(x.data, ln_gain.data, ln_bias.data, _LN_EPS)
    pre = h @ w1.data + b1.data
    _refuse_non_finite("feed_forward", "pre-tanh activations", pre)
    t = np.tanh(pre)
    out = x.data + (t @ w2.data + b2.data)

    def grads(g):
        gpre = (g @ w2.data.T) * (1.0 - t * t)
        gh = gpre @ w1.data.T
        return (g + _layer_norm_grad(gh, xhat, inv, ln_gain.data),
                _sum_to_vector(gh * xhat), _sum_to_vector(gh),
                _weight_grad(h, gpre), _sum_to_vector(gpre),
                _weight_grad(t, g), _sum_to_vector(g))

    return _fused("feed_forward", out, (x, ln_gain, ln_bias, w1, b1, w2, b2), grads)


# ---------------------------------------------------------------- training

# Adam's moment decay rates and denominator floor; no run changes them
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam(object):
    """Adam with bias correction.  State lives here; step() consumes a
    gradient map as produced by backward(wrt=params)."""

    def __init__(self, params):
        params = list(params)
        if len({id(p) for p in params}) != len(params):
            raise ValueError("Adam: duplicate parameter")
        for p in params:
            if not p.requires_grad:
                raise ValueError(f"Adam: parameter {p.name or '?'} is not trainable")
        self.params = params
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in params]
        self._v = [np.zeros_like(p.data) for p in params]

    def step(self, grads, lr: float) -> None:
        lr = float(lr)
        if not np.isfinite(lr) or lr < 0.0:
            raise ValueError(f"Adam: bad learning rate {lr}")
        # every gradient is checked before any state moves, so a refused
        # step leaves t, the parameters and the moments as they were
        gs = [grads[p] for p in self.params]
        for p, g in zip(self.params, gs):
            if g.shape != p.data.shape:
                raise ShapeError(f"Adam: gradient shape {g.shape} != parameter {p.data.shape}")
            if not np.all(np.isfinite(g)):
                raise NumericsError(f"Adam: non-finite gradient for {p.name or '?'}")
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        for p, m, v, g in zip(self.params, self._m, self._v, gs):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            p.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)

    # ------------------------------------------------------ serialization

    def state_arrays(self) -> dict[str, Array]:
        out: dict[str, Array] = {"adam.t": np.asarray(float(self.t))}
        for i, (m, v) in enumerate(zip(self._m, self._v)):
            out[f"adam.m.{i}"] = m
            out[f"adam.v.{i}"] = v
        return out

    def load_state_arrays(self, arrays) -> None:
        """The adam.* names must be those of state_arrays(), adam.t a 0-d
        integer >= 0 and each moment its parameter's shape; all is checked
        before any state is replaced."""
        want = self.state_arrays().keys()
        names = {key for key in arrays if key.startswith("adam.")}
        if names != want:
            raise ValueError(f"Adam: state {min(want - names)} is missing" if want - names
                             else f"Adam: {min(names - want)} is not state of "
                                  f"{len(self.params)} parameters")
        t = np.asarray(arrays["adam.t"])
        if t.shape != () or not (np.isfinite(t) and t >= 0 and t % 1 == 0):
            raise ValueError(f"Adam: step count adam.t {t.tolist()!r} is not a "
                             f"non-negative integer")
        ms = [arrays[f"adam.m.{i}"] for i in range(len(self.params))]
        vs = [arrays[f"adam.v.{i}"] for i in range(len(self.params))]
        for i, (p, m, v) in enumerate(zip(self.params, ms, vs)):
            if m.shape != p.data.shape or v.shape != p.data.shape:
                raise ShapeError(f"Adam: state {i} shape mismatch with parameter {p.data.shape}")
        self.t = int(t)
        self._m = [m.astype(np.float64) for m in ms]
        self._v = [v.astype(np.float64) for v in vs]


class ScheduleConfig:
    """Linear warmup to a peak, then linear decay to zero.

    Steps count from 0 at the start of training; the boundary step
    warmup_epochs * steps_per_epoch evaluates to the peak from both
    sides.
    """

    def __init__(self, peak_lr: float, warmup_epochs: int, total_epochs: int,
                 steps_per_epoch: int):
        if peak_lr <= 0.0 or not np.isfinite(peak_lr):
            raise ValueError(f"schedule: peak_lr must be positive, got {peak_lr}")
        if steps_per_epoch < 1:
            raise ValueError(f"schedule: steps_per_epoch must be >= 1, got {steps_per_epoch}")
        if not 0 < warmup_epochs < total_epochs:
            raise ValueError(f"schedule: need 0 < warmup ({warmup_epochs}) < total ({total_epochs})")
        self.peak_lr = float(peak_lr)
        self.warmup_epochs = int(warmup_epochs)
        self.total_epochs = int(total_epochs)
        self.steps_per_epoch = int(steps_per_epoch)

    @property
    def warmup_steps(self) -> int:
        return self.warmup_epochs * self.steps_per_epoch

    @property
    def total_steps(self) -> int:
        return self.total_epochs * self.steps_per_epoch


def lr_at(step: int, cfg: ScheduleConfig) -> float:
    if step < 0 or step > cfg.total_steps:
        raise ValueError(f"lr_at: step {step} outside [0, {cfg.total_steps}]")
    if step <= cfg.warmup_steps:
        return cfg.peak_lr * step / cfg.warmup_steps
    return cfg.peak_lr * (cfg.total_steps - step) / (cfg.total_steps - cfg.warmup_steps)


def finite_difference_check(f, wrt, step: float = 1e-4) -> float:
    """Compare backward() against central differences.

    f rebuilds the scalar loss from the current .data of the tensors in
    wrt each time it is called.  Returns the max over all coordinates of
    |analytic - numeric| / max(1, |numeric|).
    """
    wrt = list(wrt)
    loss = f()
    grads = backward(loss, wrt=wrt)
    worst = 0.0
    for p in wrt:
        flat = p.data.ravel()
        gflat = grads[p].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = f().item()
            flat[i] = orig - step
            down = f().item()
            flat[i] = orig
            numeric = (up - down) / (2.0 * step)
            err = abs(gflat[i] - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
    return worst
