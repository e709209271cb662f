"""Minimal dense-array reverse-mode differentiation on float64 numpy arrays.

Complex quantities are carried as real variables, either as (re, im) pairs
or as one array packed ``[re | im]`` along its last axis, so every gradient
buffer is real and finite-difference checks apply uniformly.  A
:class:`Tape` records primitive applications in order; ``Tape.backward``
replays their adjoints in reverse.  When no tape is active the same ops run
value-only, which is the inference path.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from . import fourier


class NumericError(RuntimeError):
    """A computation produced a non-finite value."""


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    return np.ascontiguousarray(arr)


class Variable:
    """A float64 array plus a slot for its accumulated cotangent."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = _as_array(value)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Variable(shape={self.value.shape})"

    # operator sugar; constants are wrapped on the fly
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)


class Parameter(Variable):
    """Named learnable leaf with a persistent, pre-allocated gradient buffer."""

    __slots__ = ("name", "trainable")

    def __init__(self, name: str, value, trainable: bool = True):
        super().__init__(value)
        self.name = name
        self.trainable = trainable
        self.grad = np.zeros_like(self.value)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class ParameterStore:
    """Flat registry of uniquely named parameters."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def add(self, name: str, value, trainable: bool = True) -> Parameter:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        p = Parameter(name, value, trainable)
        self._params[name] = p
        return p

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __iter__(self):
        return iter(self._params.values())

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def trainable(self) -> list[Parameter]:
        return [p for p in self._params.values() if p.trainable]

    def count_trainable(self) -> int:
        return sum(p.value.size for p in self.trainable())

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.grad[...] = 0.0

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.value.copy() for name, p in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for name, arr in state.items():
            p = self._params[name]
            if p.value.shape != arr.shape:
                raise ValueError(f"shape mismatch for {name!r}: {p.value.shape} vs {arr.shape}")
            p.value[...] = arr


class _Node:
    __slots__ = ("inputs", "outputs", "bwd")

    def __init__(self, inputs, outputs, bwd):
        self.inputs = inputs
        self.outputs = outputs
        self.bwd = bwd


# active tapes, innermost last
_TAPES: list["Tape"] = []


class Tape:
    """Ordered record of primitive applications for one forward pass."""

    def __init__(self):
        self._nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TAPES.pop()

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Variable) -> None:
        """Accumulate d(loss)/d(leaf) into every reachable Variable's .grad."""
        if loss.value.size != 1:
            raise ValueError("backward expects a scalar loss")
        loss.grad = np.ones_like(loss.value)
        for node in reversed(self._nodes):
            if all(o.grad is None for o in node.outputs):
                continue
            outgrads = tuple(
                o.grad if o.grad is not None else np.zeros_like(o.value)
                for o in node.outputs
            )
            ingrads = node.bwd(*outgrads)
            for var, g in zip(node.inputs, ingrads):
                if g is None:
                    continue
                if var.grad is None:
                    var.grad = np.zeros_like(var.value)
                var.grad += g


def _record(inputs: Sequence[Variable], outputs: Sequence[Variable], bwd: Callable):
    if _TAPES:
        _TAPES[-1]._nodes.append(_Node(tuple(inputs), tuple(outputs), bwd))


def as_variable(x) -> Variable:
    return x if isinstance(x, Variable) else Variable(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# --- elementwise arithmetic -------------------------------------------------


def add(a, b) -> Variable:
    a, b = as_variable(a), as_variable(b)
    out = Variable(a.value + b.value)
    _record(
        (a, b),
        (out,),
        lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)),
    )
    return out


def sub(a, b) -> Variable:
    a, b = as_variable(a), as_variable(b)
    out = Variable(a.value - b.value)
    _record(
        (a, b),
        (out,),
        lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)),
    )
    return out


def mul(a, b) -> Variable:
    a, b = as_variable(a), as_variable(b)
    out = Variable(a.value * b.value)
    _record(
        (a, b),
        (out,),
        lambda g: (
            _unbroadcast(g * b.value, a.value.shape),
            _unbroadcast(g * a.value, b.value.shape),
        ),
    )
    return out


def div(a, b) -> Variable:
    a, b = as_variable(a), as_variable(b)
    out = Variable(a.value / b.value)
    _record(
        (a, b),
        (out,),
        lambda g: (
            _unbroadcast(g / b.value, a.value.shape),
            _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape),
        ),
    )
    return out


def square(a) -> Variable:
    a = as_variable(a)
    out = Variable(a.value * a.value)
    _record((a,), (out,), lambda g: (2.0 * a.value * g,))
    return out


def exp(a) -> Variable:
    a = as_variable(a)
    out = Variable(np.exp(a.value))
    _record((a,), (out,), lambda g: (g * out.value,))
    return out


def absval(a) -> Variable:
    """|a| with subgradient 0 at 0."""
    a = as_variable(a)
    out = Variable(np.abs(a.value))
    _record((a,), (out,), lambda g: (g * np.sign(a.value),))
    return out


def relu(a) -> Variable:
    a = as_variable(a)
    out = Variable(np.maximum(a.value, 0.0))
    _record((a,), (out,), lambda g: (g * (a.value > 0.0),))
    return out


def sigmoid(a) -> Variable:
    a = as_variable(a)
    s = 1.0 / (1.0 + np.exp(-a.value))
    out = Variable(s)
    _record((a,), (out,), lambda g: (g * s * (1.0 - s),))
    return out


def clamp(a, lo: float, hi: float) -> Variable:
    """Clip to [lo, hi]; gradient is zero outside the open interval."""
    a = as_variable(a)
    out = Variable(np.clip(a.value, lo, hi))
    inside = (a.value > lo) & (a.value < hi)
    _record((a,), (out,), lambda g: (g * inside,))
    return out


# --- shape ops ---------------------------------------------------------------


def reshape(a, shape) -> Variable:
    a = as_variable(a)
    out = Variable(a.value.reshape(shape))
    _record((a,), (out,), lambda g: (g.reshape(a.value.shape),))
    return out


def transpose(a, axes) -> Variable:
    a = as_variable(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Variable(np.ascontiguousarray(a.value.transpose(axes)))
    _record((a,), (out,), lambda g: (np.ascontiguousarray(g.transpose(inv)),))
    return out


def concat(parts: Iterable, axis: int) -> Variable:
    parts = [as_variable(p) for p in parts]
    base = [p.value.shape[:axis] + p.value.shape[axis + 1 :] for p in parts]
    if len(set(base)) != 1:
        raise ValueError(f"concat shape mismatch: {[p.value.shape for p in parts]}")
    out = Variable(np.concatenate([p.value for p in parts], axis=axis))
    sizes = [p.value.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(c) for c in np.split(g, splits, axis=axis))

    _record(parts, (out,), bwd)
    return out


def vsum(a, axis=None, keepdims: bool = False) -> Variable:
    a = as_variable(a)
    out = Variable(a.value.sum(axis=axis, keepdims=keepdims))

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.value.shape).copy(),)

    _record((a,), (out,), bwd)
    return out


def vmean(a, axis=None, keepdims: bool = False) -> Variable:
    a = as_variable(a)
    count = a.value.size if axis is None else np.prod(
        [a.value.shape[ax] for ax in np.atleast_1d(axis)]
    )
    return mul(vsum(a, axis=axis, keepdims=keepdims), 1.0 / float(count))


# --- linear algebra ----------------------------------------------------------


def linear(x, w, b=None) -> Variable:
    """y = x @ w.T (+ b) for 2-D x (n, d) and w (o, d)."""
    x, w = as_variable(x), as_variable(w)
    y = x.value @ w.value.T
    if b is not None:
        b = as_variable(b)
        y = y + b.value
    out = Variable(y)

    def bwd(g):
        gx = g @ w.value
        gw = g.T @ x.value
        if b is None:
            return gx, gw
        return gx, gw, g.sum(axis=0)

    _record((x, w) if b is None else (x, w, b), (out,), bwd)
    return out


def softmax(a, axis: int = -1) -> Variable:
    a = as_variable(a)
    shifted = a.value - a.value.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=axis, keepdims=True)
    out = Variable(p)

    def bwd(g):
        dot = (g * p).sum(axis=axis, keepdims=True)
        return (p * (g - dot),)

    _record((a,), (out,), bwd)
    return out


# --- complex helpers ----------------------------------------------------------


def magnitude(re, im) -> Variable:
    """Elementwise sqrt(re^2 + im^2); subgradient 0 at the origin."""
    re, im = as_variable(re), as_variable(im)
    mag = np.hypot(re.value, im.value)
    out = Variable(mag)

    def bwd(g):
        scale = np.zeros_like(mag)
        np.divide(g, mag, out=scale, where=mag > 0.0)
        return scale * re.value, scale * im.value

    _record((re, im), (out,), bwd)
    return out


def complex_expert_map(xre, xim, wre, wim, bre, bim) -> Variable:
    """Per-expert complex affine map on stacked sub-band spectra.

    x: (B, E, V, F) pair, w: (E, O, F) pair, b: (E, O) pair
    -> y: (B, E, V, 2*O) with y[b,e,v] = w[e] @ x[b,e,v] + b[e], packed
    ``[re | im]`` along the last axis.
    """
    xre, xim = as_variable(xre), as_variable(xim)
    wre, wim = as_variable(wre), as_variable(wim)
    bre, bim = as_variable(bre), as_variable(bim)
    bdim, edim, vdim, fdim = xre.value.shape
    odim = wre.value.shape[1]
    x = xre.value + 1j * xim.value
    w = wre.value + 1j * wim.value
    bias = bre.value + 1j * bim.value
    y = np.empty((bdim, edim, vdim, 2 * odim))
    for e in range(edim):
        ye = (x[:, e].reshape(-1, fdim) @ w[e].T).reshape(bdim, vdim, odim) + bias[e]
        y[:, e, :, :odim] = ye.real
        y[:, e, :, odim:] = ye.imag
    out = Variable(y)

    def bwd(gy):
        g = np.empty((bdim, edim, vdim, odim), dtype=np.complex128)
        g.real, g.imag = gy[..., :odim], gy[..., odim:]
        gx = np.empty_like(x)
        gw = np.empty_like(w)
        for e in range(edim):
            ge = g[:, e].reshape(-1, odim)
            gx[:, e] = (ge @ np.conj(w[e])).reshape(bdim, vdim, fdim)
            gw[e] = ge.T @ np.conj(x[:, e].reshape(-1, fdim))
        gb = g.sum(axis=(0, 2))
        return (
            np.ascontiguousarray(gx.real),
            np.ascontiguousarray(gx.imag),
            np.ascontiguousarray(gw.real),
            np.ascontiguousarray(gw.imag),
            np.ascontiguousarray(gb.real),
            np.ascontiguousarray(gb.imag),
        )

    _record((xre, xim, wre, wim, bre, bim), (out,), bwd)
    return out


# --- FFT primitives -----------------------------------------------------------


def rfft_op(x) -> tuple[Variable, Variable]:
    """Half-spectrum transform along the last axis as one differentiable
    primitive; the adjoint is a rescaled inverse transform."""
    x = as_variable(x)
    n = x.value.shape[-1]
    re, im = fourier.rfft(x.value)
    out_re, out_im = Variable(re), Variable(im)
    inv_w = 1.0 / fourier.half_weights(n)

    def bwd(gre, gim):
        return (n * fourier.irfft(gre * inv_w, gim * inv_w, n),)

    _record((x,), (out_re, out_im), bwd)
    return out_re, out_im


def irfft_op(spec, n: int) -> Variable:
    """Length-``n`` inverse transform along the last axis of a half spectrum
    packed ``[re | im]`` (2 * (n//2 + 1) values per row)."""
    spec = as_variable(spec)
    f = fourier.half_bins(n)
    out = Variable(fourier.irfft(spec.value[..., :f], spec.value[..., f:], n))
    w = fourier.half_weights(n) / n

    def bwd(g):
        gre, gim = fourier.rfft(g)
        gs = np.empty_like(spec.value)
        np.multiply(gre, w, out=gs[..., :f])
        np.multiply(gim, w, out=gs[..., f:])
        return (gs,)

    _record((spec,), (out,), bwd)
    return out


# --- gated mixing --------------------------------------------------------------


def masked_weighted_sum(y, w, mask: np.ndarray) -> Variable:
    """sum_e w[b,e] * y[b,e,...] restricted to mask; masked-out experts are
    replaced by literal zeros so their values never reach the output bits."""
    y, w = as_variable(y), as_variable(w)
    extra = (1,) * (y.value.ndim - 2)
    m = mask.reshape(mask.shape + extra)
    wexp = w.value.reshape(w.value.shape + extra)
    contrib = np.where(m, y.value * wexp, 0.0)
    out = Variable(contrib.sum(axis=1))

    def bwd(g):
        ge = np.expand_dims(g, 1)
        gy = np.where(m, ge * wexp, 0.0)
        gw = np.where(mask, (y.value * ge).sum(axis=tuple(range(2, y.value.ndim))), 0.0)
        return gy, gw

    _record((y, w), (out,), bwd)
    return out


def detached(a: Variable) -> Variable:
    """A constant copy of ``a``'s value (no gradient path)."""
    return Variable(a.value.copy())


# --- finite-difference oracle ---------------------------------------------------


def grad_check(
    loss_fn: Callable[[ParameterStore], float],
    store: ParameterStore,
    eps: float = 1e-5,
    names: Iterable[str] | None = None,
) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    Every trainable scalar is perturbed individually (+/- eps) to form the
    central-difference gradient.  Per parameter tensor the error is
    ||analytic - fd|| / max(||analytic||, ||fd||, 1e-8); the max over
    parameters is returned.  Comparing norms per tensor keeps the check
    invariant to components whose true gradient sits below the
    finite-difference noise floor of float64.

    ``loss_fn`` must be a deterministic scalar function of the store's current
    values.  ``names`` restricts the check to a subset of trainable parameters.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"eps {eps} outside [1e-7, 1e-3]")
    params = store.trainable()
    if names is not None:
        wanted = set(names)
        params = [p for p in params if p.name in wanted]

    store.zero_grads()
    with Tape() as tape:
        loss = loss_fn(store)
        if not np.isfinite(loss.value).all():
            raise NumericError("loss is non-finite at the evaluation point")
        tape.backward(loss)
    analytic = {p.name: p.grad.copy() for p in params}

    worst = 0.0
    for p in params:
        flat = p.value.reshape(-1)
        fd = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = loss_fn(store).value.sum()
            flat[i] = orig - eps
            lo = loss_fn(store).value.sum()
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NumericError(f"non-finite loss while perturbing {p.name!r}")
            fd[i] = (hi - lo) / (2.0 * eps)
        an = analytic[p.name].reshape(-1)
        num = np.linalg.norm(an - fd)
        den = max(np.linalg.norm(an), np.linalg.norm(fd), 1e-8)
        worst = max(worst, num / den)
    return worst
