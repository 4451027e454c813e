"""Dense float32 tensors with reverse-mode automatic differentiation.

The graph is built define-by-run: every op that sees a gradient-requiring
input records its parents and a vector-Jacobian closure on the output
tensor. ``backward`` walks the recorded ops once, in reverse topological
order, accumulating into the leaves' ``.grad`` buffers and releasing each
op's closure as it passes.

Numeric contract:
  * data and gradients are float32 (tests may build float64 tensors so the
    finite-difference oracle can evaluate in wider precision);
  * ``log`` clamps its input at ``LOG_EPS`` = 1e-12;
  * relu'(0) = 0;
  * ``Tensor(x)`` keeps ``x``'s rank, so a scalar makes a 0-d tensor;
  * a Python number broadcasts against a tensor; tensor operands must
    have equal shapes, any mismatch raises ``ShapeError``.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Optional, Sequence, Union

import numpy as np

LOG_EPS = 1e-12

Number = Union[int, float]

_node_counter = itertools.count()


class _GradMode(threading.local):
    enabled = True                 # each thread records until its own no_grad


_grad_mode = _GradMode()


class no_grad:
    """Context manager that suspends graph recording in its own thread (evaluation passes)."""

    def __enter__(self):
        self._prev = _grad_mode.enabled
        _grad_mode.enabled = False

    def __exit__(self, *exc):
        _grad_mode.enabled = self._prev
        return False


class AutodiffError(RuntimeError):
    """Misuse of the differentiation machinery (non-scalar backward, double backward)."""


class ShapeError(ValueError):
    """Operands have incompatible shapes; the message names the offending dimension."""


def _mismatch(op: str, a: tuple, b: tuple) -> ShapeError:
    if len(a) != len(b):
        return ShapeError(f"{op}: rank mismatch: {a} vs {b}")
    for d, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return ShapeError(f"{op}: shape mismatch at dim {d}: {a} vs {b}")
    return ShapeError(f"{op}: shape mismatch: {a} vs {b}")


class Tensor:
    """N-dimensional array with optional gradient buffer and graph identity."""

    __slots__ = ("data", "grad", "requires_grad", "node_id", "_parents", "_vjp",
                 "_backward_ran")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            raise TypeError("Tensor(data): data is already a Tensor")
        arr = np.asarray(data)
        self.data = np.asarray(
            arr, dtype=arr.dtype if arr.dtype == np.float64 else np.float32, order="C")
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self.node_id = next(_node_counter)
        self._parents: tuple = ()
        self._vjp: Optional[Callable[[np.ndarray], None]] = None
        self._backward_ran = False

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: Sequence["Tensor"],
                 vjp: Callable[[np.ndarray], None]) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out.node_id = next(_node_counter)
        out._backward_ran = False
        # the one place a vjp is kept: a one-parent vjp can trust its parent needs grad
        if _grad_mode.enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._vjp = vjp
        else:
            out.requires_grad = False
            out._parents = ()
            out._vjp = None
        return out

    # -- basic properties ------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of {self.data.size} elements")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Same values, cut from the graph; gradients never flow through."""
        return Tensor._from_op(self.data, (), None)

    def _accum(self, g: np.ndarray) -> None:
        # float32 leaves keep float32 gradients; a fresh one keeps g's memory order
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, order="K")
        else:
            self.grad += g.astype(self.data.dtype, copy=False)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- elementwise arithmetic -------------------------------------------

    def _coerce(self, other, op: str):
        """Return (array, tensor_or_none). A number broadcasts; a tensor's shape must match."""
        if isinstance(other, Tensor):
            if other.shape != self.shape:
                raise _mismatch(op, self.shape, other.shape)
            return other.data, other
        if isinstance(other, (int, float, np.floating, np.integer)):
            return other, None
        raise TypeError(f"{op}: unsupported operand {type(other).__name__}")

    def __add__(self, other) -> "Tensor":
        od, ot = self._coerce(other, "add")
        def vjp(g, a=self, b=ot):
            if a.requires_grad:
                a._accum(g)
            if b is not None and b.requires_grad:
                b._accum(g)
        return Tensor._from_op(self.data + od, _operands(self, ot), vjp)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        od, ot = self._coerce(other, "sub")
        def vjp(g, a=self, b=ot):
            if a.requires_grad:
                a._accum(g)
            if b is not None and b.requires_grad:
                b._accum(-g)
        return Tensor._from_op(self.data - od, _operands(self, ot), vjp)

    def __rsub__(self, other) -> "Tensor":
        od, _ = self._coerce(other, "sub")
        def vjp(g, a=self):
            a._accum(-g)
        return Tensor._from_op(od - self.data, (self,), vjp)

    def __mul__(self, other) -> "Tensor":
        od, ot = self._coerce(other, "mul")
        def vjp(g, a=self, b=ot, bd=od):
            if a.requires_grad:
                a._accum(g * bd)
            if b is not None and b.requires_grad:
                b._accum(g * a.data)
        return Tensor._from_op(self.data * od, _operands(self, ot), vjp)

    __rmul__ = __mul__

    def relu(self) -> "Tensor":
        mask = self.data > 0
        def vjp(g, a=self, m=mask):
            a._accum(g * m)
        return Tensor._from_op(self.data * mask, (self,), vjp)

    def log(self) -> "Tensor":
        clamped = np.maximum(self.data, LOG_EPS)
        # derivative of log(max(x, eps)): zero on the clamped branch
        live = self.data >= LOG_EPS
        def vjp(g, a=self, c=clamped, m=live):
            a._accum(g * m / c)
        return Tensor._from_op(np.log(clamped), (self,), vjp)

    def square(self) -> "Tensor":
        def vjp(g, a=self):
            a._accum(g * (2.0 * a.data))
        return Tensor._from_op(self.data * self.data, (self,), vjp)

    def sum(self) -> "Tensor":
        def vjp(g, a=self):
            a._accum(np.broadcast_to(g, a.shape))
        return Tensor._from_op(self.data.sum(), (self,), vjp)

    def mean(self) -> "Tensor":
        n = self.data.size
        def vjp(g, a=self, inv=1.0 / n):
            a._accum(np.broadcast_to(g * inv, a.shape))
        return Tensor._from_op(self.data.mean(), (self,), vjp)

    def astype(self, dtype) -> "Tensor":
        """Dtype cast; gradients cast back on the way down. Used to combine
        scalar loss terms in float64 so decomposition identities hold tightly."""
        def vjp(g, a=self):
            a._accum(g)
        return Tensor._from_op(self.data.astype(dtype), (self,), vjp)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            raise TypeError("matmul: right operand must be a Tensor")
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ShapeError(f"matmul: expects 2-D operands, got {self.shape} and {other.shape}")
        if self.shape[1] != other.shape[0]:
            raise ShapeError(
                f"matmul: inner dimensions differ: {self.shape} vs {other.shape} (dim 1 vs dim 0)")
        out_data = self.data @ other.data
        def vjp(g, a=self, b=other):
            if a.requires_grad:
                a._accum(g @ b.data.T)
            if b.requires_grad:
                b._accum(a.data.T @ g)
        return Tensor._from_op(out_data, (self, other), vjp)


def _operands(a: Tensor, b: Optional[Tensor]) -> tuple:
    return (a,) if b is None else (a, b)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Row-wise bias: x[n,k] + b[k]. A dedicated primitive, not general broadcasting."""
    if x.data.ndim != 2 or b.data.ndim != 1:
        raise ShapeError(f"add_bias: expects x[n,k] and b[k], got {x.shape} and {b.shape}")
    if x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_bias: width mismatch at dim 1: {x.shape} vs {b.shape}")
    def vjp(g, a=x, bb=b):
        if a.requires_grad:
            a._accum(g)
        if bb.requires_grad:
            bb._accum(g.sum(axis=0))
    return Tensor._from_op(x.data + b.data, (x, b), vjp)


def _batch_chunks(n: int, per_sample: int) -> list:
    """Batch slices of about 2**18 column elements (1 MB of float32) each, so
    all kh*kw strided passes over a chunk of columns hit the same cached lines."""
    step = max(1, (1 << 18) // per_sample)
    return [slice(a, a + step) for a in range(0, n, step)]


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of x[n,c_in,h,w] with kernel[c_out,c_in,kh,kw].

    im2col + one BLAS matmul, ``cols @ wmat.T``. ``cols`` is C-contiguous
    [n*h_out*w_out, c_in*kh*kw], columns in (c, i, j) order, filled by kh*kw
    slice copies ``cols[..., i, j] = xp[:, i::s, j::s, :]`` from a channels-last
    view of the input (zero-padded into a fresh NHWC buffer only if padding > 0).
    The output is the NCHW view of the GEMM's NHWC rows; the backward pass reuses
    ``cols`` for the kernel gradient and drops it. The input gradient is built in
    NHWC memory: a kernel that tiles the input (stride == kh == kw, no padding)
    makes one GEMM and one transposing copy, each pixel taking exactly one tap;
    any other adds ``g_flat @ taps[i, j]`` per tap, in (i, j) order, into zeros.
    """
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError(f"conv2d: expects 4-D input and kernel, got {x.shape} and {kernel.shape}")
    n, c_in, h, w = x.shape
    c_out, kc, kh, kw = kernel.shape
    if kc != c_in:
        raise ShapeError(
            f"conv2d: input channels (dim 1) {c_in} != kernel input channels (dim 1) {kc}")
    if stride < 1:
        raise ValueError(f"conv2d: stride must be positive, got {stride}")
    if padding < 0:
        raise ValueError(f"conv2d: padding must be non-negative, got {padding}")
    span_h = h + 2 * padding - kh
    span_w = w + 2 * padding - kw
    if span_h < 0 or span_h % stride or span_w < 0 or span_w % stride:
        raise ShapeError(
            f"conv2d: non-integral output size for input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {stride}, padding {padding}")
    h_out = span_h // stride + 1
    w_out = span_w // stride + 1

    xp = x.data.transpose(0, 2, 3, 1)                        # n,h,w,c_in view
    if padding:
        xp = np.zeros((n, h + 2 * padding, w + 2 * padding, c_in), x.data.dtype)
        xp[:, padding:padding + h, padding:padding + w] = x.data.transpose(0, 2, 3, 1)
    cols = np.empty((n, h_out, w_out, c_in, kh, kw), x.data.dtype)
    for b in _batch_chunks(n, cols[0].size):
        for i in range(kh):
            for j in range(kw):
                cols[b, ..., i, j] = xp[b, i:i + span_h + 1:stride, j:j + span_w + 1:stride]
    del xp                                      # freed before the GEMM allocates its output
    cols = cols.reshape(n * h_out * w_out, c_in * kh * kw)
    wmat = kernel.data.reshape(c_out, c_in * kh * kw)
    out_flat = cols @ wmat.T
    out_data = out_flat.reshape(n, h_out, w_out, c_out).transpose(0, 3, 1, 2)

    def vjp(g, a=x, k=kernel, held=[cols], wmat=wmat, pad=padding, s=stride,
            dims=(n, c_in, h, w, c_out, kh, kw, h_out, w_out)):
        n, c_in, h, w, c_out, kh, kw, h_out, w_out = dims
        g_flat = g.transpose(0, 2, 3, 1).reshape(n * h_out * w_out, c_out)
        if k.requires_grad:
            k._accum((g_flat.T @ held[0]).reshape(k.shape))
        held.clear()                 # cols: freed before the input gradient allocates
        if a.requires_grad:
            if s == kh == kw and not pad:        # the windows tile the input: one tap a pixel
                gc = (g_flat @ wmat).reshape(n, h_out, w_out, c_in, kh, kw)
                gx = np.ascontiguousarray(gc.transpose(0, 1, 4, 2, 5, 3)).reshape(n, h, w, c_in)
            else:
                taps = wmat.reshape(c_out, c_in, kh, kw).transpose(2, 3, 0, 1).copy()
                gx = np.zeros((n, h + 2 * pad, w + 2 * pad, c_in), g.dtype)
                for i in range(kh):
                    for j in range(kw):
                        gx[:, i:i + h_out * s:s, j:j + w_out * s:s] += (
                            g_flat @ taps[i, j]).reshape(n, h_out, w_out, c_in)
                gx = gx[:, pad:pad + h, pad:pad + w]
            a._accum(gx.transpose(0, 3, 1, 2))

    return Tensor._from_op(out_data, (x, kernel), vjp)


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean of each channel: x[n,c,h,w] -> [n,c]."""
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool: expects 4-D input, got {x.shape}")
    n, c, h, w = x.shape
    if h < 1 or w < 1:
        raise ShapeError(f"global_avg_pool: empty spatial extent {h}x{w}")
    inv = 1.0 / (h * w)
    def vjp(g, a=x, inv=inv):
        # filled channels-last, so the conv below takes its gradient as a view
        gx = np.broadcast_to((g * inv)[:, None, None, :], (n, h, w, c)).copy()
        a._accum(gx.transpose(0, 3, 1, 2))
    # the mean runs over NCHW memory: over channels-last it sums in another order
    return Tensor._from_op(np.ascontiguousarray(x.data).mean(axis=(2, 3)), (x,), vjp)


def softened_softmax(logits: Tensor, temperature: float) -> Tensor:
    """Row softmax of logits[n,k] / T with max-subtraction for stability."""
    if not temperature > 0:
        raise ValueError(f"softened_softmax: temperature must be positive, got {temperature}")
    if logits.data.ndim != 2:
        raise ShapeError(f"softened_softmax: expects 2-D logits, got {logits.shape}")
    if logits.shape[1] < 2:
        raise ShapeError(f"softened_softmax: needs at least 2 classes, got {logits.shape}")
    z = logits.data / temperature
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    def vjp(g, a=logits, p=p, inv_t=1.0 / temperature):
        inner = (g * p).sum(axis=1, keepdims=True)
        a._accum(p * (g - inner) * inv_t)
    return Tensor._from_op(p, (logits,), vjp)


def backward(loss: Tensor) -> None:
    """Populate .grad on every gradient-requiring leaf reachable from loss.

    Gradients accumulate additively across uses and across calls on
    distinct graphs. The walk consumes the graph: once an op's vjp has
    fired, its output drops the vjp (and the buffers it saved), its parents
    and its .grad, so each op's memory is freed as backward passes it. Only
    leaves keep .grad. A later backward that reaches a consumed op raises.
    """
    if loss.data.size != 1:
        raise AutodiffError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    # iterative post-order DFS: inputs always precede the ops that use them
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node.node_id in visited:
            continue
        if node._backward_ran:
            raise AutodiffError(
                f"backward: already ran through the op that made a tensor of shape "
                f"{node.shape} (node {node.node_id}); rebuild the graph first")
        visited.add(node.node_id)
        stack.append((node, True))
        for parent in node._parents:
            if parent.node_id not in visited:
                stack.append((parent, False))
    loss._accum(np.ones_like(loss.data))
    # reverse topological order: a node's full upstream gradient is in place
    # before its own vjp runs, so each recorded op fires exactly once
    while order:
        node = order.pop()
        if node._vjp is not None:
            if node.grad is not None:
                node._vjp(node.grad)
            node._vjp, node._parents, node.grad = None, (), None
            node._backward_ran = True
