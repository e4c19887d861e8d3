"""Dense float64 tensors with reverse-mode automatic differentiation.

Every trainable component in this package records onto this module's
tape, through its operations or as a fused node of its own (``_record``
with an analytic VJP).  The untaped numpy kernels of layer norm and packed
attention, forward and VJP, serve the LM's sublayer nodes.  The design is
define-by-run: each forward pass records nodes onto a per-thread tape
(creation order is topological order), and ``backward`` sweeps the tape
in reverse.  Only tensors that require grad
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
    # numpy defers to the reflected operators, so ``array * tensor`` records
    __array_ufunc__ = None

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

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    def __getitem__(self, key):
        return tslice(self, key)

    def sum(self):
        return tsum(self)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) != 1 else shape[0])


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


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = _binary_data("mul", a, b, np.multiply)
    ash, bsh, ad, bd = a.shape, b.shape, a.data, b.data
    ra, rb = a.requires_grad, b.requires_grad
    return _record(out, (a, b), lambda g: (
        _unbroadcast(g * bd, ash) if ra else None,
        _unbroadcast(g * ad, bsh) if rb else None,
    ))


# -- matrix ops --------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of operands of at least 2 axes; leading axes broadcast
    as a batch of matrices."""
    A, B = a.data, b.data
    if A.ndim < 2 or B.ndim < 2:
        raise ShapeError(f"matmul: operands need at least 2 axes, got {a.shape} and {b.shape}")
    try:
        out = np.matmul(A, B)
    except ValueError:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}") from None
    ra, rb = a.requires_grad, b.requires_grad
    return _record(out, (a, b), lambda g: (
        _unbroadcast(g @ np.swapaxes(B, -1, -2), A.shape) if ra else None,
        _unbroadcast(np.swapaxes(A, -1, -2) @ g, B.shape) if rb else None,
    ))


def reshape(a: Tensor, shape) -> Tensor:
    old = a.shape
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {old} as {shape}") from None
    return _record(out, (a,), lambda g: (g.reshape(old),))


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Join tensors along their first axis."""
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: no inputs")
    try:
        out = np.concatenate([t.data for t in tensors])
    except ValueError:
        raise ShapeError(f"concat: incompatible shapes {[t.shape for t in tensors]}") from None
    splits = np.cumsum([t.data.shape[0] for t in tensors])[:-1]
    return _record(out, tensors, lambda g: tuple(np.split(g, splits)))


def _is_basic_key(key) -> bool:
    """True for keys of ints and slices only, which select each element once."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(
        isinstance(k, slice) or (isinstance(k, (int, np.integer)) and not isinstance(k, bool))
        for k in parts
    )


def _distinct_rows(key) -> bool:
    """True for a 1-D integer array that is strictly increasing and nonnegative,
    which selects each row once (a negative index may alias a positive one)."""
    return (
        isinstance(key, np.ndarray) and key.ndim == 1 and key.dtype.kind in "iu"
        and (key.size == 0 or key[0] >= 0) and bool((key[1:] > key[:-1]).all())
    )


def tslice(a: Tensor, key) -> Tensor:
    out = a.data[key]
    shape = a.shape
    basic = _is_basic_key(key)

    def grad_fn(g):
        z = np.zeros(shape)
        if basic:
            z[key] = g
        elif _distinct_rows(key):  # 0.0 + g, as np.add.at would give (-0.0 becomes +0.0)
            z[key] = g + 0.0
        else:  # fancy indices may repeat, so their gradients accumulate
            np.add.at(z, key, g)
        return (z,)

    return _record(out, (a,), grad_fn)


# -- nonlinearities ----------------------------------------------------------

def _sigmoid(x: Array) -> Array:
    """The logistic function of an array, computed without overflow:
    1 / (1 + e) for x >= 0 and e / (1 + e) below, with e = exp(-|x|) <= 1."""
    e = np.abs(x, out=np.empty_like(x))  # out= keeps a 0-d input an array
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = 1.0 + e
    np.maximum(e, x >= 0, out=e)  # the numerator: 1 for x >= 0, else e; NaN stays NaN
    e /= d
    return e


def relu(a: Tensor) -> Tensor:
    x = a.data
    out = np.fmax(x, 0.0)  # NaN -> 0, as x > 0 is false there
    out += 0.0  # -0.0 -> +0.0
    return _record(out, (a,), lambda g: (g * (x > 0),))


def _softmax(x: Array) -> Array:
    """The softmax of an array over its last axis: ``softmax``'s forward, and
    ``losses.sim_loss``'s, stabilized by max subtraction."""
    if x.ndim == 0:
        raise ShapeError("softmax: input must have at least one axis")
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("softmax: input contains non-finite values")
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by max subtraction."""
    out = _softmax(a.data)

    def grad_fn(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _record(out, (a,), grad_fn)


# -- shared kernels of the LM's sublayer nodes (``mllm``) --------------------------

def _layer_norm(x: Array, g: Array, b: Array, eps: float) -> tuple[Array, Array, Array]:
    """Normalize each row over the last axis to zero mean and unit variance,
    then scale by ``g`` and shift by ``b``; returns (output, xhat, rstd), the
    last two for ``_layer_norm_vjp``."""
    d = x.shape[-1]
    # sum / d is np.mean's arithmetic without its Python wrapper
    xc = x - x.sum(axis=-1, keepdims=True) / d
    rstd = ((xc * xc).sum(axis=-1, keepdims=True) / d + eps) ** -0.5
    xhat = xc * rstd
    return xhat * g + b, xhat, rstd


def _layer_norm_vjp(gout: Array, xhat: Array, rstd: Array, g: Array) -> tuple[Array, Array, Array]:
    """The gradients of ``_layer_norm``'s input, gain and bias for the output gradient ``gout``."""
    d = xhat.shape[-1]
    lead = tuple(range(xhat.ndim - 1))
    gx = gout * g
    dx = rstd * (gx - gx.sum(axis=-1, keepdims=True) / d - xhat * ((gx * xhat).sum(axis=-1, keepdims=True) / d))
    return dx, (gout * xhat).sum(axis=lead), gout.sum(axis=lead)


def _split_heads(rows: Array, n_heads: int) -> Array:
    """(S, H·dh) rows -> (H, S, dh) heads, as a view."""
    return rows.reshape(rows.shape[0], n_heads, rows.shape[1] // n_heads).transpose(1, 0, 2)


def _attention(Q: Array, K: Array, V: Array, segments, n_heads: int, queries=None) -> tuple[Array, list]:
    """Multi-head softmax attention over packed sequences: (output rows, state for ``_attention_vjp``).

    ``segments`` lists ``(P, T, cached)`` per sequence, in row order: the
    sequence owns ``cached + P + T`` rows of ``K`` and ``V``, its cached
    rows first.  ``queries`` lists per segment the positions (among its
    ``P + T`` new rows; default all, in order) of its rows of ``Q``, which
    holds them segment after segment.  A query at position ``pos`` sees
    every cached row, its own sequence's ``P`` image-prefix rows and its
    text rows up to ``pos``, never another sequence: each segment's mask
    is built from index comparisons on the fly.
    """
    queries = [np.arange(P + T) for P, T, _ in segments] if queries is None else queries
    n_q = sum(len(pos) for pos in queries)
    n_k = sum(c + P + T for P, T, c in segments)
    if Q.ndim != 2 or Q.shape[1] % n_heads or Q.shape[0] != n_q or len(queries) != len(segments) or not (
        K.shape == V.shape == (n_k, Q.shape[1])
    ):
        raise ShapeError(
            f"attention: q {Q.shape}, k {K.shape}, v {V.shape} do not fit {n_heads} heads "
            f"and segments of {n_q} query / {n_k} key rows"
        )
    scale = (Q.shape[1] // n_heads) ** -0.5
    spans = []  # (query rows, key rows, softmax weights (H, S, M)) per segment
    out = np.empty_like(Q)
    qo = ko = 0
    for (P, T, cached), pos in zip(segments, queries):
        pos = np.asarray(pos)
        S, M = len(pos), cached + P + T
        qs, ks = slice(qo, qo + S), slice(ko, ko + M)
        w = _split_heads(Q[qs], n_heads) @ _split_heads(K[ks], n_heads).transpose(0, 2, 1)
        w *= scale
        # a query sees every key unless a text row lies past it (never in a one-row decode)
        blocked = None
        if S and T and pos.min() < P + T - 1:
            blocked = np.arange(M) > cached + pos[:, None]
            blocked[:, : cached + P] = False
            # -inf only for the row max: np.exp takes a slow path on -inf
            np.copyto(w, -np.inf, where=blocked)
        w -= w.max(axis=-1, keepdims=True)
        if blocked is not None:
            np.copyto(w, 0.0, where=blocked)
        np.exp(w, out=w)
        if blocked is not None:
            np.copyto(w, 0.0, where=blocked)
        w /= w.sum(axis=-1, keepdims=True)
        np.matmul(w, _split_heads(V[ks], n_heads), out=_split_heads(out[qs], n_heads))
        spans.append((qs, ks, w))
        qo, ko = qo + S, ko + M
    return out, spans


def _attention_vjp(g: Array, Q: Array, K: Array, V: Array, spans: list, n_heads: int) -> tuple[Array, Array, Array]:
    """The gradients of ``_attention``'s Q, K and V for the output gradient ``g``."""
    scale = (Q.shape[1] // n_heads) ** -0.5
    dq, dk, dv = np.empty_like(Q), np.empty_like(K), np.empty_like(V)
    for qs, ks, w in spans:
        go = _split_heads(g[qs], n_heads)
        np.matmul(w.transpose(0, 2, 1), go, out=_split_heads(dv[ks], n_heads))
        ds = go @ _split_heads(V[ks], n_heads).transpose(0, 2, 1)
        ds -= (ds * w).sum(axis=-1, keepdims=True)
        ds *= w
        ds *= scale
        np.matmul(ds, _split_heads(K[ks], n_heads), out=_split_heads(dq[qs], n_heads))
        np.matmul(ds.transpose(0, 2, 1), _split_heads(Q[qs], n_heads), out=_split_heads(dk[ks], n_heads))
    return dq, dk, dv


# -- reductions --------------------------------------------------------------

def tsum(a: Tensor) -> Tensor:
    """The sum of every element, a scalar."""
    shape = a.shape
    return _record(a.data.sum(), (a,), lambda g: (np.broadcast_to(g, shape).copy(),))


# -- resampling --------------------------------------------------------------

def _axis_weights(n_in: int, n_out: int):
    """Source pixels below and above each output pixel centre, and the weight of the upper one."""
    src = (np.arange(n_out) + 0.5) * n_in / n_out - 0.5
    lo = np.floor(src)
    t = src - lo
    i0 = np.clip(lo, 0, n_in - 1).astype(np.intp)
    i1 = np.clip(lo + 1, 0, n_in - 1).astype(np.intp)
    return i0, i1, t


def bilinear_upsample(a: Tensor, out_hw: tuple) -> Tensor:
    """Bilinearly resample the last two axes to ``out_hw`` (pixel-center alignment);
    at the input's own size, ``a`` itself."""
    if a.data.ndim < 2:
        raise ShapeError(f"bilinear_upsample: expected a grid of at least 2 axes, got {a.shape}")
    h, w = a.shape[-2:]
    H, W = out_hw
    if h == H and w == W:
        return a
    i0, i1, ty = _axis_weights(h, H)
    j0, j1, tx = _axis_weights(w, W)
    ty, tx = ty[:, None], tx[None, :]
    x = a.data
    # the four neighbours of every output pixel, as index tuples on the last two axes
    k00, k01 = (..., i0[:, None], j0), (..., i0[:, None], j1)
    k10, k11 = (..., i1[:, None], j0), (..., i1[:, None], j1)
    top = (1.0 - tx) * x[k00] + tx * x[k01]
    bot = (1.0 - tx) * x[k10] + tx * x[k11]
    out = (1.0 - ty) * top + ty * bot
    shape = a.shape

    def grad_fn(g):
        z = np.zeros(shape)
        np.add.at(z, k00, g * (1.0 - ty) * (1.0 - tx))
        np.add.at(z, k01, g * (1.0 - ty) * tx)
        np.add.at(z, k10, g * ty * (1.0 - tx))
        np.add.at(z, k11, g * ty * tx)
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
