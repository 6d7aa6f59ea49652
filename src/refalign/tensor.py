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
"""
from __future__ import annotations

import numpy as np

Array = np.ndarray

__all__ = [
    "Tensor", "ShapeError", "NumericsError", "GraphError",
    "parameter", "backward",
    "add", "mul", "scale", "shift", "matmul", "permute", "reshape",
    "log", "tanh", "softplus", "row_softmax", "layer_norm", "l2_normalize",
    "concat_rows", "sum_all", "mean_all", "take", "stop_gradient",
    "cosine_matrix",
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
        if not np.all(np.isfinite(data)):
            raise NumericsError(f"{op}: non-finite output")
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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b.  Either both operands carry identical leading batch axes,
    or b is a plain matrix applied across a's batch axes."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-d, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    if a.ndim == b.ndim:
        if a.shape[:-2] != b.shape[:-2]:
            raise ShapeError(f"matmul: batch axes differ, {a.shape} @ {b.shape}")

        def vjp_b(g, a=a, b=b):
            return np.swapaxes(a.data, -1, -2) @ g
    elif b.ndim == 2:

        def vjp_b(g, a=a, b=b):
            flat_a = a.data.reshape(-1, a.shape[-1])
            flat_g = g.reshape(-1, b.shape[-1])
            return flat_a.T @ flat_g
    else:
        raise ShapeError(f"matmul: unsupported rank pairing {a.shape} @ {b.shape}")

    def vjp_a(g, a=a, b=b):
        return g @ np.swapaxes(b.data, -1, -2)

    return Tensor._result("matmul", a.data @ b.data, (a, b), (vjp_a, vjp_b))


def permute(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"permute: axes {axes} invalid for shape {a.shape}")
    inverse = tuple(np.argsort(axes))
    return Tensor._result("permute", np.transpose(a.data, axes).copy(), (a,),
                          (lambda g: np.transpose(g, inverse),))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    if int(np.prod(shape)) != a.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    orig = a.shape
    return Tensor._result("reshape", a.data.reshape(shape), (a,),
                          (lambda g: g.reshape(orig),))


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

def row_softmax(a: Tensor) -> Tensor:
    m = a.data.max(axis=-1, keepdims=True)
    e = np.exp(a.data - m)
    s = e / e.sum(axis=-1, keepdims=True)

    def vjp(g, s=s):
        return s * (g - (g * s).sum(axis=-1, keepdims=True))

    return Tensor._result("row_softmax", s, (a,), (vjp,))


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias must be ({d},), got {gain.shape}/{bias.shape}")
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def vjp_a(g, xhat=xhat, inv=inv, gd=gain.data):
        gy = g * gd
        return inv * (gy - gy.mean(axis=-1, keepdims=True)
                      - xhat * (gy * xhat).mean(axis=-1, keepdims=True))

    def vjp_gain(g, xhat=xhat):
        return _sum_to_vector(g * xhat)

    return Tensor._result("layer_norm", out, (a, gain, bias),
                          (vjp_a, vjp_gain, _sum_to_vector))


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
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = grads[p]
            if g.shape != p.data.shape:
                raise ShapeError(f"Adam: gradient shape {g.shape} != parameter {p.data.shape}")
            if not np.all(np.isfinite(g)):
                raise NumericsError(f"Adam: non-finite gradient for {p.name or '?'}")
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
