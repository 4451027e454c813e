"""Deliberately naive reference implementations used only by tests.

Every function here is an explicit-loop, float64 transliteration of the
corresponding formula. Nothing in this module calls the engine; the module
boundary is what makes the cross-checks meaningful. Keep instances small
(dimensions <= 16): these are oracles, not kernels.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np


def oracle_matmul(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def oracle_conv2d(x, kernel, stride: int = 1, padding: int = 0) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = kernel.shape
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, c_out, h_out, w_out))
    for b in range(n):
        for o in range(c_out):
            for oy in range(h_out):
                for ox in range(w_out):
                    acc = 0.0
                    for c in range(c_in):
                        for ky in range(kh):
                            for kx in range(kw):
                                iy = oy * stride + ky - padding
                                ix = ox * stride + kx - padding
                                if 0 <= iy < h and 0 <= ix < w:
                                    acc += x[b, c, iy, ix] * kernel[o, c, ky, kx]
                    out[b, o, oy, ox] = acc
    return out


def oracle_channel_weights(feature) -> np.ndarray:
    """Per-sample, per-channel spatial mean of the feature map."""
    feature = np.asarray(feature, dtype=np.float64)
    n, c, h, w = feature.shape
    out = np.zeros((n, c))
    for i in range(n):
        for j in range(c):
            acc = 0.0
            for y in range(h):
                for x in range(w):
                    acc += feature[i, j, y, x]
            out[i, j] = acc / (h * w)
    return out


def oracle_cd(ws, wt) -> float:
    """Mean squared difference of channel weights over samples and channels."""
    ws = np.asarray(ws, dtype=np.float64)
    wt = np.asarray(wt, dtype=np.float64)
    n, c = ws.shape
    acc = 0.0
    for i in range(n):
        for j in range(c):
            acc += (ws[i, j] - wt[i, j]) ** 2
    return acc / (n * c)


def oracle_softened_softmax(logits, temperature: float) -> np.ndarray:
    logits = np.asarray(logits, dtype=np.float64)
    n, k = logits.shape
    out = np.zeros((n, k))
    for i in range(n):
        row = [logits[i, j] / temperature for j in range(k)]
        m = max(row)
        exps = [math.exp(v - m) for v in row]
        z = sum(exps)
        for j in range(k):
            out[i, j] = exps[j] / z
    return out


def _row_kl(p_t: Sequence[float], p_s: Sequence[float]) -> float:
    """KL(teacher || student); teacher-zero terms contribute zero."""
    acc = 0.0
    for t, s in zip(p_t, p_s):
        if t > 0.0:
            acc += t * (math.log(t) - math.log(max(s, 1e-300)))
    return acc


def oracle_kd(student_logits, teacher_logits, temperature: float) -> float:
    p_s = oracle_softened_softmax(student_logits, temperature)
    p_t = oracle_softened_softmax(teacher_logits, temperature)
    n = p_s.shape[0]
    acc = 0.0
    for i in range(n):
        acc += _row_kl(p_t[i], p_s[i])
    return acc / n


def oracle_gkd(student_logits, teacher_logits, labels, temperature: float):
    """Masked KD over samples the teacher classifies correctly.

    Returns (loss, correct_count); loss is 0 when the teacher is wrong on
    every sample.
    """
    p_s = oracle_softened_softmax(student_logits, temperature)
    p_t = oracle_softened_softmax(teacher_logits, temperature)
    teacher_logits = np.asarray(teacher_logits, dtype=np.float64)
    n, k = p_s.shape
    acc = 0.0
    count = 0
    for i in range(n):
        pred = 0
        for j in range(1, k):
            if teacher_logits[i, j] > teacher_logits[i, pred]:
                pred = j
        if pred == int(labels[i]):
            acc += _row_kl(p_t[i], p_s[i])
            count += 1
    if count == 0:
        return 0.0, 0
    return acc / count, count


def oracle_ce(logits, labels) -> float:
    p = oracle_softened_softmax(logits, 1.0)
    n = p.shape[0]
    acc = 0.0
    for i in range(n):
        acc += -math.log(max(p[i, int(labels[i])], 1e-300))
    return acc / n


def finite_diff_grad(f: Callable[[np.ndarray], float], x, step: float = 1e-3) -> np.ndarray:
    """Central differences of a scalar function, one coordinate at a time.

    f receives a float64 copy of x so the evaluations happen in wider
    precision than the engine's float32 forward pass; x itself is never touched.
    """
    x = np.array(x, dtype=np.float64, order="C")   # C order: flat below is a view of it
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        f_plus = float(f(x))
        flat[i] = orig - step
        f_minus = float(f(x))
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * step)
    return grad
