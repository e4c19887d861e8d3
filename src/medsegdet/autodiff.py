"""Dense float64 tensors with reverse-mode automatic differentiation.

Every trainable component in this package is built from the operations in
this module.  The design is define-by-run: each forward pass records nodes
onto a per-thread tape (creation order is topological order), and
``backward`` sweeps the tape in reverse.  Only tensors that require grad
are recorded: a constant operand (a mask, a target, a frozen feature grid,
a Python scalar) gets no node, and the binary ops skip its vector-Jacobian
product.  A central finite-difference oracle (``finite_difference_check``)
verifies gradients independently.  It divides each error by
``max(|tape|, |central|, floor)``, with ``floor = max(1e-3, 1e-4 * |f(x0)|)``
taken from the unperturbed loss: a gradient well above the floor is held
to a relative bound, so at tolerance 1e-4 a VJP that is off by 0.1 % fails,
while central-difference roundoff on a small gradient stays under it.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class NonFiniteError(ValueError):
    """An operation received or produced a non-finite value where forbidden."""


class TapeError(RuntimeError):
    """Backward was asked to differentiate something not on the active tape."""


# A grad function maps the output gradient to one gradient per parent
# (None for parents that need no gradient).
GradFn = Callable[[Array], tuple]

# parent id of an operand that does not require grad; backward skips it
CONSTANT = -1


@dataclass
class Node:
    """One recorded operation: the produced tensor, its parents, its vjp."""

    tensor: "Tensor"
    parent_ids: tuple
    grad_fn: GradFn | None


_EPOCHS = itertools.count(1)


class Tape:
    """Ordered record of one forward pass.

    Nodes are appended in creation order, so every node's parents precede
    it; node ids are indices into ``nodes`` and unique per tape epoch.
    Parents that do not require grad get no node; their id is ``CONSTANT``.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.epoch = next(_EPOCHS)

    def _ensure_id(self, t: "Tensor") -> int:
        if t._epoch != self.epoch:
            t._epoch = self.epoch
            t._node_id = len(self.nodes)
            self.nodes.append(Node(t, (), None))
        return t._node_id

    def record(self, out: "Tensor", parents: Sequence["Tensor"], grad_fn: GradFn) -> None:
        pids = tuple(self._ensure_id(p) if p.requires_grad else CONSTANT for p in parents)
        out._epoch = self.epoch
        out._node_id = len(self.nodes)
        self.nodes.append(Node(out, pids, grad_fn))


class _ThreadState(threading.local):
    def __init__(self):
        self.tape = Tape()
        self.grad_enabled = True


_STATE = _ThreadState()


def active_tape() -> Tape:
    return _STATE.tape


def reset_tape() -> Tape:
    """Discard the active tape and start a fresh one (call once per forward)."""
    _STATE.tape = Tape()
    return _STATE.tape


def is_grad_enabled() -> bool:
    """True unless inside ``no_grad``: operations on tensors that require grad record."""
    return _STATE.grad_enabled


class no_grad:
    """Context manager that suppresses tape recording."""

    def __enter__(self):
        self._prev = _STATE.grad_enabled
        _STATE.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _STATE.grad_enabled = self._prev
        return False


class Tensor:
    """Dense real-valued n-d array with an optional gradient.

    ``data`` is always float64.  Leaves created with ``requires_grad=True``
    start with a zero gradient buffer; ``backward`` overwrites it, so a
    leaf that does not participate in the loss keeps gradient zero.
    """

    __slots__ = ("data", "requires_grad", "grad", "_epoch", "_node_id")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._epoch = 0
        self._node_id = -1

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def node_id(self):
        """Identifier on the active tape, or None if not recorded there."""
        return self._node_id if self._epoch == _STATE.tape.epoch else None

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __rtruediv__(self, other):
        return div(_as_tensor(other), self)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def __getitem__(self, key):
        return tslice(self, key)

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 else shape[0])

    def transpose(self):
        return transpose(self)

    @property
    def T(self):
        return transpose(self)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(out_data: Array, parents: Sequence[Tensor], grad_fn: GradFn) -> Tensor:
    out = Tensor(out_data)
    if _STATE.grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.grad = None
        _STATE.tape.record(out, parents, grad_fn)
    return out


def _unbroadcast(g: Array, shape: tuple) -> Array:
    """Sum a broadcast gradient back down to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _binary_data(name: str, a: Tensor, b: Tensor, ufunc) -> Array:
    try:
        return ufunc(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{name}: incompatible shapes {a.shape} and {b.shape}") from None


# -- elementwise arithmetic ------------------------------------------------
# The binary ops read ``requires_grad`` when they record and skip the vjp
# of an operand that does not need one (a constant: mask, target, scalar).

def add(a: Tensor, b: Tensor) -> Tensor:
    out = _binary_data("add", a, b, np.add)
    ash, bsh, ra, rb = a.shape, b.shape, a.requires_grad, b.requires_grad
    return _record(out, (a, b), lambda g: (
        _unbroadcast(g, ash) if ra else None,
        _unbroadcast(g, bsh) if rb else None,
    ))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = _binary_data("sub", a, b, np.subtract)
    ash, bsh, ra, rb = a.shape, b.shape, a.requires_grad, b.requires_grad
    return _record(out, (a, b), lambda g: (
        _unbroadcast(g, ash) if ra else None,
        _unbroadcast(-g, bsh) if rb else None,
    ))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = _binary_data("mul", a, b, np.multiply)
    ash, bsh, ad, bd = a.shape, b.shape, a.data, b.data
    ra, rb = a.requires_grad, b.requires_grad
    return _record(out, (a, b), lambda g: (
        _unbroadcast(g * bd, ash) if ra else None,
        _unbroadcast(g * ad, bsh) if rb else None,
    ))


def div(a: Tensor, b: Tensor) -> Tensor:
    out = _binary_data("div", a, b, np.divide)
    ash, bsh, ad, bd = a.shape, b.shape, a.data, b.data
    ra, rb = a.requires_grad, b.requires_grad
    return _record(out, (a, b), lambda g: (
        _unbroadcast(g / bd, ash) if ra else None,
        _unbroadcast(-g * ad / (bd * bd), bsh) if rb else None,
    ))


def _select(name: str, a: Tensor, b: Tensor, ufunc, prefer_a) -> Tensor:
    """Elementwise pick between ``a`` and ``b``; the gradient follows the pick."""
    out = _binary_data(name, a, b, ufunc)
    take_a = prefer_a(a.data, b.data)
    ash, bsh, ra, rb = a.shape, b.shape, a.requires_grad, b.requires_grad
    return _record(out, (a, b), lambda g: (
        _unbroadcast(g * take_a, ash) if ra else None,
        _unbroadcast(g * ~take_a, bsh) if rb else None,
    ))


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; on ties the gradient routes to the first operand."""
    a, b = _as_tensor(a), _as_tensor(b)
    return _select("maximum", a, b, np.maximum, np.greater_equal)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    return _select("minimum", a, b, np.minimum, np.less_equal)


def absolute(a: Tensor) -> Tensor:
    sign = np.sign(a.data)
    return _record(np.abs(a.data), (a,), lambda g: (g * sign,))


def power(a: Tensor, p: float) -> Tensor:
    out = a.data ** p
    ad = a.data
    return _record(out, (a,), lambda g: (g * p * ad ** (p - 1.0),))


# -- matrix ops --------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    A, B = a.data, b.data
    if A.ndim not in (1, 2) or B.ndim not in (1, 2):
        raise ShapeError(f"matmul: only 1-D/2-D operands, got {a.shape} and {b.shape}")
    a2 = A[None, :] if A.ndim == 1 else A
    b2 = B[:, None] if B.ndim == 1 else B
    if a2.shape[1] != b2.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out2 = a2 @ b2
    out = out2
    if A.ndim == 1:
        out = out[0]
    if B.ndim == 1:
        out = out[..., 0] if A.ndim == 1 else out[:, 0]

    ra, rb = a.requires_grad, b.requires_grad

    def grad_fn(g):
        g2 = g.reshape(a2.shape[0], b2.shape[1])
        da = db = None
        if ra:
            da = g2 @ b2.T
            if A.ndim == 1:
                da = da[0]
        if rb:
            db = a2.T @ g2
            if B.ndim == 1:
                db = db[:, 0]
        return (da, db)

    return _record(out, (a, b), grad_fn)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: expected 2-D tensor, got {a.shape}")
    return _record(a.data.T.copy(), (a,), lambda g: (g.T,))


def reshape(a: Tensor, shape) -> Tensor:
    old = a.shape
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {old} as {shape}") from None
    return _record(out, (a,), lambda g: (g.reshape(old),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: no inputs")
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        shapes = [t.shape for t in tensors]
        raise ShapeError(f"concat: incompatible shapes {shapes} on axis {axis}") from None
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    return _record(out, tensors, lambda g: tuple(np.split(g, splits, axis=axis)))


def _is_basic_key(key) -> bool:
    """True for keys of ints and slices only, which select each element once."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(
        isinstance(k, slice) or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
        for k in parts
    )


def tslice(a: Tensor, key) -> Tensor:
    out = a.data[key]
    shape = a.shape
    basic = _is_basic_key(key)

    def grad_fn(g):
        z = np.zeros(shape)
        if basic:
            z[key] = g
        else:  # fancy indices may repeat, so their gradients accumulate
            np.add.at(z, key, g)
        return (z,)

    return _record(out, (a,), grad_fn)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Rows of ``table`` selected by integer ids, with scatter-add backward."""
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 1:
        raise ShapeError(f"embedding_lookup: ids must be 1-D, got {ids.shape}")
    if table.data.ndim != 2:
        raise ShapeError(f"embedding_lookup: table must be 2-D, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(
            f"embedding_lookup: id out of range for table with {table.shape[0]} rows"
        )
    out = table.data[ids]
    vshape = table.shape

    def grad_fn(g):
        z = np.zeros(vshape)
        np.add.at(z, ids, g)
        return (z,)

    return _record(out, (table,), grad_fn)


# -- nonlinearities ----------------------------------------------------------

def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _record(out, (a,), lambda g: (g * out * (1.0 - out),))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _record(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x), computed without overflow."""
    out = np.logaddexp(0.0, a.data)
    x = a.data

    def grad_fn(g):
        s = np.empty_like(x)
        pos = x >= 0
        s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        s[~pos] = ex / (1.0 + ex)
        return (g * s,)

    return _record(out, (a,), grad_fn)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by max subtraction."""
    x = a.data
    if x.ndim == 0:
        raise ShapeError("softmax: input must have at least one axis")
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("softmax: input contains non-finite values")
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    out = e / e.sum(axis=-1, keepdims=True)

    def grad_fn(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _record(out, (a,), grad_fn)


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)
    ad = a.data
    return _record(out, (a,), lambda g: (g / ad,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _record(out, (a,), lambda g: (g * out,))


# -- reductions --------------------------------------------------------------

def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def grad_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _record(out, (a,), grad_fn)


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.mean(axis=axis, keepdims=keepdims)
    shape = a.shape
    count = a.data.size if axis is None else a.data.shape[axis]

    def grad_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / count, shape).copy(),)

    return _record(out, (a,), grad_fn)


# -- resampling --------------------------------------------------------------

_BILINEAR_CACHE: dict = {}


def _bilinear_indices(h: int, w: int, H: int, W: int):
    key = (h, w, H, W)
    hit = _BILINEAR_CACHE.get(key)
    if hit is not None:
        return hit

    def axis_weights(n_in, n_out):
        src = (np.arange(n_out) + 0.5) * n_in / n_out - 0.5
        lo = np.floor(src)
        t = src - lo
        i0 = np.clip(lo, 0, n_in - 1).astype(np.intp)
        i1 = np.clip(lo + 1, 0, n_in - 1).astype(np.intp)
        return i0, i1, t

    i0, i1, ty = axis_weights(h, H)
    j0, j1, tx = axis_weights(w, W)
    hit = (i0, i1, ty[:, None], j0, j1, tx[None, :])
    _BILINEAR_CACHE[key] = hit
    return hit


def bilinear_upsample(a: Tensor, out_hw: tuple) -> Tensor:
    """Bilinearly resample a 2-D grid to ``out_hw`` (pixel-center alignment)."""
    if a.data.ndim != 2:
        raise ShapeError(f"bilinear_upsample: expected 2-D grid, got {a.shape}")
    h, w = a.shape
    H, W = out_hw
    if h == H and w == W:
        return _record(a.data.copy(), (a,), lambda g: (g,))
    i0, i1, ty, j0, j1, tx = _bilinear_indices(h, w, H, W)
    x = a.data
    top = (1.0 - tx) * x[np.ix_(i0, j0)] + tx * x[np.ix_(i0, j1)]
    bot = (1.0 - tx) * x[np.ix_(i1, j0)] + tx * x[np.ix_(i1, j1)]
    out = (1.0 - ty) * top + ty * bot

    def grad_fn(g):
        z = np.zeros((h, w))
        np.add.at(z, np.ix_(i0, j0), g * (1.0 - ty) * (1.0 - tx))
        np.add.at(z, np.ix_(i0, j1), g * (1.0 - ty) * tx)
        np.add.at(z, np.ix_(i1, j0), g * ty * (1.0 - tx))
        np.add.at(z, np.ix_(i1, j1), g * ty * tx)
        return (z,)

    return _record(out, (a,), grad_fn)


# -- backward ----------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf tensor reachable from ``loss``.

    A leaf is a tensor that requires grad and was not produced by a recorded
    operation, such as a parameter.  Gradients are assigned, not
    accumulated, so running backward twice on the same tape yields
    identical results.  Leaves on the tape that do not reach the loss get a
    zero gradient.  Intermediate tensors get no ``grad``: each one's
    gradient is released as soon as it has been passed to its parents.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    tape = _STATE.tape
    if loss._epoch != tape.epoch:
        raise TapeError("backward: loss is not recorded on the active tape")

    n = loss._node_id
    nodes = tape.nodes
    grads: list = [None] * len(nodes)
    grads[n] = np.ones_like(loss.data)
    for idx in range(n, -1, -1):
        g = grads[idx]
        node = nodes[idx]
        if g is None or node.grad_fn is None:
            continue
        grads[idx] = None
        for pid, pg in zip(node.parent_ids, node.grad_fn(g)):
            if pg is None or pid == CONSTANT:
                continue
            grads[pid] = pg if grads[pid] is None else grads[pid] + pg

    for idx, node in enumerate(nodes):
        if node.grad_fn is None:
            t = node.tensor
            g = grads[idx]
            t.grad = np.zeros_like(t.data) if g is None else np.asarray(g, dtype=np.float64).reshape(t.shape)


# -- verification oracle -------------------------------------------------------

FD_STEP = 1e-6  # central-difference step of finite_difference_check


def finite_difference_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    max_coords_per_param: int = 20,
    seed: int | np.random.Generator = 0,
) -> float:
    """Compare autodiff gradients of ``f()`` against central differences.

    ``f`` must be deterministic, close over ``params``, and return a scalar
    Tensor.  A tensor with more than ``max_coords_per_param`` elements is
    checked on a random subset of its coordinates, drawn from ``seed`` (a
    Generator passed here is advanced).  Returns the max over checked
    coordinates of ``|tape - central| / max(|tape|, |central|, floor)``,
    where ``floor = max(1e-3, 1e-4 * |f(x0)|)``.
    """
    for p in params:
        if not p.requires_grad:
            raise ValueError("finite_difference_check: all params must require grad")

    reset_tape()
    loss = f()
    if not np.all(np.isfinite(loss.data)):
        raise NonFiniteError("finite_difference_check: f returned a non-finite value")
    backward(loss)
    ad_grads = [p.grad.copy() for p in params]
    floor = max(1e-3, 1e-4 * abs(float(loss.data)))

    rng = np.random.default_rng(seed)
    max_rel = 0.0
    for p, ad in zip(params, ad_grads):
        flat = p.data.reshape(-1)
        size = flat.size
        if size <= max_coords_per_param:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=max_coords_per_param, replace=False)
        for idx in coords:
            orig = flat[idx]
            with no_grad():
                flat[idx] = orig + FD_STEP
                fp = float(f().data)
                flat[idx] = orig - FD_STEP
                fm = float(f().data)
            flat[idx] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise NonFiniteError(
                    "finite_difference_check: f returned a non-finite value during probing"
                )
            central = (fp - fm) / (2.0 * FD_STEP)
            tape = ad.reshape(-1)[idx]
            rel = abs(tape - central) / max(abs(tape), abs(central), floor)
            max_rel = max(max_rel, rel)
    reset_tape()
    return max_rel
