"""Minimal dense-array reverse-mode differentiation on float64 numpy arrays.

Complex quantities are carried in one format: a real array packed
``[re | im]`` along its last axis, so every gradient is real and
finite-difference checks apply uniformly.  ``rfft_op`` and ``irfft_op`` are
the only places that convert between it and the (re, im) pairs of
:mod:`fourier`, and complex products (``magnitude``, ``complex_expert_map``)
are written out in real arithmetic: no complex dtype is used anywhere.
A :class:`Tape` records primitive applications in order, one output
Variable per node; ``Tape.backward`` replays their adjoints in reverse.
One gradient rule holds for every Variable: ``grad`` is ``None`` until a
cotangent arrives, the first is adopted, later ones are added out of place,
and nothing, adjoints included, writes into a cotangent.
When no tape is active the same ops run value-only, which is the inference
path.
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
    """A float64 array plus its gradient (``None`` until a backward reaches
    it; may share memory with other gradients, so never write into it)."""

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
    """Named learnable leaf.  It owns its value: the array it is built from
    is copied, so in-place updates never reach the caller's array."""

    __slots__ = ("name",)

    def __init__(self, name: str, value):
        super().__init__(np.array(value, dtype=np.float64, order="C"))
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class ParameterStore:
    """Flat registry of uniquely named parameters."""

    def __init__(self):
        self._params: dict[str, Parameter] = {}

    def add(self, name: str, value) -> Parameter:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        p = Parameter(name, value)
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

    def zero_grads(self) -> None:
        """Forget every gradient (``None`` reads as zero)."""
        for p in self._params.values():
            p.grad = None

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.value.copy() for name, p in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for name, arr in state.items():
            p = self._params[name]
            if p.value.shape != arr.shape:
                raise ValueError(f"shape mismatch for {name!r}: {p.value.shape} vs {arr.shape}")
            p.value[...] = arr


# active tapes, innermost last
_TAPES: list["Tape"] = []


class Tape:
    """Ordered record of primitive applications for one forward pass."""

    def __init__(self):
        self._nodes: list[tuple] = []  # (inputs, output, adjoint) per node

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TAPES.pop()

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Variable) -> None:
        """Add d(loss)/d(leaf) to every reachable leaf's ``grad``.  Each
        node's output cotangent is dropped once its adjoint has run, so
        afterwards only leaves hold gradients."""
        if loss.value.size != 1:
            raise ValueError("backward expects a scalar loss")
        loss.grad = np.ones_like(loss.value)
        for inputs, out, bwd in reversed(self._nodes):
            if out.grad is None:
                continue
            ingrads = bwd(out.grad)
            out.grad = None
            for var, g in zip(inputs, ingrads):
                var.grad = g if var.grad is None else var.grad + g


def _record(inputs: Sequence[Variable], out: Variable, bwd: Callable):
    if _TAPES:
        _TAPES[-1]._nodes.append((tuple(inputs), out, bwd))


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
        out,
        lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)),
    )
    return out


def sub(a, b) -> Variable:
    a, b = as_variable(a), as_variable(b)
    out = Variable(a.value - b.value)
    _record(
        (a, b),
        out,
        lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)),
    )
    return out


def mul(a, b) -> Variable:
    a, b = as_variable(a), as_variable(b)
    out = Variable(a.value * b.value)
    _record(
        (a, b),
        out,
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
        out,
        lambda g: (
            _unbroadcast(g / b.value, a.value.shape),
            _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape),
        ),
    )
    return out


def square(a) -> Variable:
    a = as_variable(a)
    out = Variable(a.value * a.value)
    _record((a,), out, lambda g: (2.0 * a.value * g,))
    return out


def exp(a) -> Variable:
    a = as_variable(a)
    out = Variable(np.exp(a.value))
    _record((a,), out, lambda g: (g * out.value,))
    return out


def absval(a) -> Variable:
    """|a| with subgradient 0 at 0."""
    a = as_variable(a)
    out = Variable(np.abs(a.value))
    _record((a,), out, lambda g: (g * np.sign(a.value),))
    return out


def relu(a) -> Variable:
    a = as_variable(a)
    out = Variable(np.maximum(a.value, 0.0))
    _record((a,), out, lambda g: (g * (a.value > 0.0),))
    return out


def sigmoid(a) -> Variable:
    a = as_variable(a)
    s = 1.0 / (1.0 + np.exp(-a.value))
    out = Variable(s)
    _record((a,), out, lambda g: (g * s * (1.0 - s),))
    return out


def clamp(a, lo: float, hi: float) -> Variable:
    """Clip to [lo, hi]; gradient is zero outside the open interval."""
    a = as_variable(a)
    out = Variable(np.clip(a.value, lo, hi))
    inside = (a.value > lo) & (a.value < hi)
    _record((a,), out, lambda g: (g * inside,))
    return out


# --- shape ops ---------------------------------------------------------------


def reshape(a, shape) -> Variable:
    a = as_variable(a)
    out = Variable(a.value.reshape(shape))
    _record((a,), out, lambda g: (g.reshape(a.value.shape),))
    return out


def transpose(a, axes) -> Variable:
    a = as_variable(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Variable(np.ascontiguousarray(a.value.transpose(axes)))
    _record((a,), out, lambda g: (np.ascontiguousarray(g.transpose(inv)),))
    return out


def concat(parts: Iterable, axis: int) -> Variable:
    parts = [as_variable(p) for p in parts]
    axis %= parts[0].value.ndim
    base = [p.value.shape[:axis] + p.value.shape[axis + 1 :] for p in parts]
    if len(set(base)) != 1:
        raise ValueError(f"concat shape mismatch: {[p.value.shape for p in parts]}")
    out = Variable(np.concatenate([p.value for p in parts], axis=axis))
    ends = np.cumsum([p.value.shape[axis] for p in parts]).tolist()
    cuts = [(slice(None),) * axis + (slice(lo, hi),) for lo, hi in zip([0] + ends, ends)]

    def bwd(g):
        return tuple(np.ascontiguousarray(g[c]) for c in cuts)

    _record(parts, out, bwd)
    return out


def vsum(a, axis=None, keepdims: bool = False) -> Variable:
    a = as_variable(a)
    out = Variable(a.value.sum(axis=axis, keepdims=keepdims))

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.value.shape).copy(),)

    _record((a,), out, bwd)
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

    _record((x, w) if b is None else (x, w, b), out, bwd)
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

    _record((a,), out, bwd)
    return out


# --- complex helpers ----------------------------------------------------------


def magnitude(spec) -> Variable:
    """Elementwise |z| of a spectrum packed ``[re | im]`` along its last
    axis; subgradient 0 at the origin."""
    spec = as_variable(spec)
    f = spec.value.shape[-1] // 2
    re, im = spec.value[..., :f], spec.value[..., f:]
    # not np.hypot, a scalar libm loop ~4x slower; re*re overflows only
    # above ~1e154, where the filter bank's power of the same spectrum does
    mag = np.sqrt(re * re + im * im)
    out = Variable(mag)

    def bwd(g):
        scale = np.zeros_like(mag)
        np.divide(g, mag, out=scale, where=mag > 0.0)
        return (np.concatenate([scale * re, scale * im], axis=-1),)

    _record((spec,), out, bwd)
    return out


def complex_expert_map(spec, h, w, mask: np.ndarray, wp) -> Variable:
    """Gate-weighted sum of per-expert complex linear maps on band-passed
    spectra, in two GEMMs or one.

    spec: (B, V, 2*F) packed ``[re | im]``, h: (E, B, F) real band-pass
    responses, w and mask: (B, E), wp: (E, F, 2*O) each complex weight W[e]
    stored as [Re W^T | Im W^T] -> y: (B, V, 2*O) packed like spec, with
    y[b,v] = sum over e in mask[b] of w[b,e] * (W[e] @ (h[e,b] * spec[b,v])).
    Band-pass, map and mix are linear in the spectrum, so with the (B, U, F)
    coefficients c_e = w[:, e] * h[e] of the U experts that some sample
    selects, the real and the imaginary half x_s of each (b, v) spectrum
    map to P = sum_u (x_s * c_u) @ wp[u], and
    y = [P_re[:O] - P_im[O:] | P_re[O:] + P_im[:O]].  P has two
    associations, chosen from the shapes alone:

    - O <= F (every block that does not lengthen the series): mix each
      sample's maps first, M_b = sum_u c[b,u,:,None] * wp[u], a (B, F, 2*O)
      tensor formed as F GEMMs of (B, U) by (U, 2*O), then P = x_s @ M_b,
      one (2*V, F) by (F, 2*O) GEMM per sample: B*(U + 2*V)*F*2*O
      multiply-adds.
    - O > F: stack the band-passed copies, one row [x_s * c_1 | ... |
      x_s * c_U] of a (B*V*2, U*F) operand per half spectrum, times wp[used]
      read as (U*F, 2*O): B*2*V*U*F*2*O multiply-adds.  The mixed order
      would do fewer, but M_b would be the larger tensor and the memory
      traffic dominates (9 MB against 0.7 MB at B = 32, F = 49, O = 361,
      U = 4).

    Neither pass forms a per-expert sub-band, output or block matrix.

    Masking, the same in both orders.  The coefficients of a masked
    (sample, expert) pair are exact zeros, chosen before any product, so its
    response and weight, non-finite too, reach nothing, and it gets exact
    zero gradients.  An expert that no sample selects is never read and
    gets exact zero gradients.  An expert that some sample selects is read
    for every sample (by every row of the stacked GEMM, or by every M_b), so
    only *finite* weights stay per-sample inert: a sample that does not
    select it multiplies them by an exact zero, while a NaN or inf weight
    reaches that sample as 0 * NaN.
    """
    spec, h, w, wp = as_variable(spec), as_variable(h), as_variable(w), as_variable(wp)
    bdim, vdim, packed = spec.value.shape
    fdim, odim = packed // 2, wp.value.shape[2] // 2
    used = mask.any(axis=0).nonzero()[0]
    udim = used.size
    kept = mask[:, used]  # (B, U)
    wsel = np.where(kept, w.value[:, used], 0.0)[:, :, None]
    hsel = np.where(kept[:, :, None], h.value[used].transpose(1, 0, 2), 0.0)
    c = wsel * hsel  # (B, U, F), exact zeros on the dropped pairs
    x = spec.value.reshape(bdim, 2 * vdim, fdim)  # one row per real or imaginary half
    wsub = wp.value[used]  # (U, F, 2*O)
    mix_first = odim <= fdim
    if mix_first:
        cf = np.ascontiguousarray(c.transpose(2, 0, 1))  # (F, B, U)
        wf = wsub.transpose(1, 0, 2)  # (F, U, 2*O)
        m = np.matmul(cf, wf).transpose(1, 0, 2)  # (B, F, 2*O), each sample's mixed map
        p = np.matmul(x, m)
    else:
        wu = wsub.reshape(udim * fdim, 2 * odim)
        lhs = (x[:, :, None] * c[:, None]).reshape(bdim * 2 * vdim, udim * fdim)
        p = lhs @ wu
    p = p.reshape(bdim, vdim, 2, 2 * odim)
    out = Variable(np.empty((bdim, vdim, 2 * odim)))
    np.subtract(p[:, :, 0, :odim], p[:, :, 1, odim:], out=out.value[..., :odim])
    np.add(p[:, :, 0, odim:], p[:, :, 1, :odim], out=out.value[..., odim:])

    def bwd(gy):
        # cotangent of P: [g_re, g_im] on the real row, [g_im, -g_re] on the imaginary
        gp = np.concatenate([gy, gy[..., odim:], -gy[..., :odim]], axis=-1)
        gp = gp.reshape(bdim, 2 * vdim, 2 * odim)
        if mix_first:
            gx = np.matmul(gp, m.transpose(0, 2, 1))
            gm = np.matmul(x.transpose(0, 2, 1), gp).transpose(1, 0, 2)  # (F, B, 2*O)
            gc = np.matmul(gm, wf.transpose(0, 2, 1)).transpose(1, 2, 0)
            gwsub = np.matmul(cf.transpose(0, 2, 1), gm).transpose(1, 0, 2)
        else:
            gp = gp.reshape(-1, 2 * odim)
            glhs = (gp @ wu.T).reshape(bdim, 2 * vdim, udim, fdim)
            gx = np.einsum("bsuf,buf->bsf", glhs, c)
            gc = np.einsum("bsuf,bsf->buf", glhs, x)
            gwsub = (lhs.T @ gp).reshape(udim, fdim, 2 * odim)
        gc = np.where(kept[:, :, None], gc, 0.0)
        gh = np.zeros(h.value.shape)
        gh[used] = (gc * wsel).transpose(1, 0, 2)
        gw = np.zeros(w.value.shape)
        gw[:, used] = np.einsum("buf,buf->bu", gc, hsel)
        gwp = np.zeros(wp.value.shape)
        gwp[used] = gwsub
        return gx.reshape(spec.value.shape), gh, gw, gwp

    _record((spec, h, w, wp), out, bwd)
    return out


# --- FFT primitives -----------------------------------------------------------


def rfft_op(x) -> Variable:
    """Half-spectrum transform along the last axis as one differentiable
    primitive, packed ``[re | im]`` (2 * (n//2 + 1) values per row); the
    adjoint is a rescaled inverse transform."""
    x = as_variable(x)
    n = x.value.shape[-1]
    f = fourier.half_bins(n)
    out = Variable(np.concatenate(fourier.rfft(x.value), axis=-1))

    def bwd(g):
        inv_w = 1.0 / fourier.half_weights(n)
        return (n * fourier.irfft(g[..., :f] * inv_w, g[..., f:] * inv_w, n),)

    _record((x,), out, bwd)
    return out


def irfft_op(spec, n: int) -> Variable:
    """Length-``n`` inverse transform along the last axis of a half spectrum
    packed ``[re | im]`` (2 * (n//2 + 1) values per row)."""
    spec = as_variable(spec)
    f = fourier.half_bins(n)
    out = Variable(fourier.irfft(spec.value[..., :f], spec.value[..., f:], n))

    def bwd(g):
        w = fourier.half_weights(n) / n
        gre, gim = fourier.rfft(g)
        gspec = np.empty(gre.shape[:-1] + (2 * f,))
        np.multiply(gre, w, out=gspec[..., :f])
        np.multiply(gim, w, out=gspec[..., f:])
        return (gspec,)

    _record((spec,), out, bwd)
    return out


# --- gated mixing --------------------------------------------------------------


def masked_weighted_sum(y, w, mask: np.ndarray) -> Variable:
    """sum_e w[b,e] * y[e,b,...] restricted to mask, for expert-major y and
    (B, E) w and mask.  y's B axis may be 1, one value per expert shared by
    every sample (the experts' biases); its cotangent is then summed over
    the samples.  Products are formed only where the mask holds: a
    masked-out (sample, expert) pair's values, non-finite ones too, reach
    neither that sample's output bits nor any gradient, and a shared value
    reaches only the samples that select its expert."""
    y, w = as_variable(y), as_variable(w)
    shape = mask.T.shape + (1,) * (y.value.ndim - 2)
    m, wexp = mask.T.reshape(shape), w.value.T.reshape(shape)
    full = np.broadcast_shapes(y.value.shape, shape)

    def masked_mul(a, b):
        return np.multiply(a, b, out=np.zeros(full), where=m)

    out = Variable(masked_mul(y.value, wexp).sum(axis=0))

    def bwd(g):
        gw = masked_mul(y.value, g).sum(axis=tuple(range(2, y.value.ndim))).T
        return _unbroadcast(masked_mul(g, wexp), y.value.shape), gw

    _record((y, w), out, bwd)
    return out


# --- finite-difference oracle ---------------------------------------------------


def grad_check(
    loss_fn: Callable[[ParameterStore], float],
    store: ParameterStore,
    eps: float = 1e-5,
    names: Iterable[str] | None = None,
) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    Every parameter scalar is perturbed individually (+/- eps) to form the
    central-difference gradient.  Per parameter tensor the error is
    ||analytic - fd|| / max(||analytic||, ||fd||, 1e-8); the max over
    parameters is returned.  Comparing norms per tensor keeps the check
    invariant to components whose true gradient sits below the
    finite-difference noise floor of float64.

    ``loss_fn`` must be a deterministic scalar function of the store's current
    values.  ``names`` restricts the check to a subset of the parameters.  A
    parameter the backward does not reach has analytic gradient zero.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"eps {eps} outside [1e-7, 1e-3]")
    params = list(store)
    if names is not None:
        wanted = set(names)
        params = [p for p in params if p.name in wanted]

    store.zero_grads()
    with Tape() as tape:
        loss = loss_fn(store)
        if not np.isfinite(loss.value).all():
            raise NumericError("loss is non-finite at the evaluation point")
        tape.backward(loss)
    analytic = {p.name: np.zeros(p.value.size) if p.grad is None else p.grad for p in params}

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
