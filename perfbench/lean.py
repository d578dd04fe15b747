"""Lean mfista loop: the solver's arithmetic with no validation, counters or
per-call wrappers.  It is the overhead floor run_mfista is compared with, and
it must reproduce run_mfista's norms trace bit for bit, so every expression
below keeps the library's operation order.
"""

from __future__ import annotations

import math

import numpy as np

_CURVATURE_SIG_RTOL = 1e-10


def lean_mfista(p, epsilon: float, max_iters: int, y0: np.ndarray):
    """Returns (status, y, v, iterations, rows); rows are trace-CSV tuples."""
    f, grad, prox, h, proj = p.smooth_value, p.smooth_grad, p.h_prox, p.h_value, p.omega_project
    L = p.lipschitz_L
    clamp = 1e-12 * L
    t = 1.0 / (4.0 * L)
    norm = np.linalg.norm
    sqrt = math.sqrt
    rows = []
    y_prev = x = y = y0
    a_prev = 1.0
    curvature = 0.0
    grad_x = np.asarray(grad(x), dtype=float)
    v = np.zeros(p.dim)
    status = "max_iters_reached"
    k = 0
    for k in range(1, max_iters + 1):
        model_grad = grad_x + curvature * (x - y_prev)
        y = np.asarray(prox(x - t * model_grad, t), dtype=float)
        a_cur = (1.0 + sqrt(1.0 + 4.0 * a_prev * a_prev)) / 2.0
        grad_y = np.asarray(grad(y), dtype=float)
        v = grad_y - grad_x + curvature * (y_prev - x) + 4.0 * L * (x - y)
        x_next = y + ((a_prev - 1.0) / a_cur) * (y - y_prev)
        if proj is not None:
            x_next = np.asarray(proj(x_next), dtype=float)
        vn = float(norm(v))
        fy = float(f(y))
        rows.append((k, a_cur, curvature, vn, fy + float(h(y)), float(norm(y - x)),
                     float(norm(y - y_prev)), 2 * k, k))
        if vn <= epsilon:
            status = "converged"
            break
        grad_xn = np.asarray(grad(x_next), dtype=float)
        d = y - x_next
        gd = float(grad_xn @ d)
        fxn = float(f(x_next))
        gap = fxn + gd - fy
        gap_scale = abs(fy) + abs(fxn) + abs(gd)
        curvature = 0.0
        d2 = float(d @ d)
        thr = 1e-14 * (1.0 + float(norm(y)))
        if d2 > thr * thr and abs(gap) > _CURVATURE_SIG_RTOL * (1.0 + gap_scale):
            curvature = max(0.0, 2.0 * gap / d2)
            if curvature <= clamp:
                curvature = 0.0
        y_prev, x, a_prev, grad_x = y, x_next, a_cur, grad_xn
    return status, y, v, k, rows
