"""Float64 numeric kernels.

The one masked row softmax, multi-head attention that exposes its
(head-averaged) attention weights, and bilinear sampling on metric feature
grids as a sparse corner-weight operator.  Only softmax_rows works in
place, on the logits it is given; no other kernel mutates its arguments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ConfigError, MaskError, ShapeError

LN_EPS = 1e-6


class AttentionMask:
    """Dense attention mask, stored as a boolean matrix (True = blocked).

    Every row must keep at least one key open, so an attention row always
    sums to 1.
    """

    def __init__(self, blocked: np.ndarray):
        blocked = np.asarray(blocked, dtype=bool)
        if blocked.ndim != 2:
            raise ShapeError(f"mask must be 2-D, got shape {blocked.shape}")
        if blocked.shape[1] > 0 and bool(blocked.all(axis=1).any()):
            raise MaskError("mask has a fully blocked row")
        self.blocked = blocked

    @property
    def shape(self) -> tuple[int, int]:
        return self.blocked.shape

    @classmethod
    def open(cls, n_q: int, n_k: int | None = None) -> "AttentionMask":
        """Mask with every entry attendable."""
        return cls(np.zeros((n_q, n_k if n_k is not None else n_q), dtype=bool))


def softmax_rows(logits: np.ndarray, blocked: np.ndarray | None = None
                 ) -> np.ndarray:
    """Softmax over the last axis, in place; returns `logits`.

    Entries where `blocked` (broadcast against logits) is True are set to
    -inf before the max-subtraction, so exp() turns them into exact zeros.
    A row whose entries are all blocked (or -inf) comes out as exact zeros,
    not NaN.
    """
    if blocked is not None:
        np.copyto(logits, -np.inf, where=blocked)
    m = logits.max(axis=-1, keepdims=True)
    m[~np.isfinite(m)] = 0.0
    np.subtract(logits, m, out=logits)
    np.exp(logits, out=logits)
    total = logits.sum(axis=-1, keepdims=True)
    total[total == 0.0] = 1.0
    logits /= total
    return logits


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Layer normalization over the last axis (eps fixed at LN_EPS)."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + LN_EPS) * gamma + beta


@dataclass
class MhaWeights:
    """Projection tensors of one multi-head attention block.

    Linear layers follow the (out, in) convention and are applied to row
    vectors as ``x @ w.T + b``.
    """

    heads: int
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    bq: np.ndarray
    bk: np.ndarray
    bv: np.ndarray
    bo: np.ndarray


def multi_head_attention(
    q_in: np.ndarray,
    k_in: np.ndarray,
    v_in: np.ndarray,
    mask: AttentionMask,
    weights: MhaWeights,
) -> tuple[np.ndarray, np.ndarray]:
    """Masked scaled dot-product attention.

    Returns (output, attn) where attn is the mean over heads of the
    post-softmax weights; each attn row sums to 1 and blocked entries
    are exact zeros.
    """
    q_in = np.asarray(q_in, dtype=np.float64)
    k_in = np.asarray(k_in, dtype=np.float64)
    v_in = np.asarray(v_in, dtype=np.float64)
    n_q, d = q_in.shape
    n_k = k_in.shape[0]
    if k_in.shape[1] != d or v_in.shape != k_in.shape:
        raise ShapeError("q/k/v feature dims do not match")
    if mask.shape != (n_q, n_k):
        raise ShapeError(f"mask shape {mask.shape} does not match ({n_q},{n_k})")
    h = weights.heads
    if d % h != 0:
        raise ConfigError(f"head count {h} does not divide model dim {d}")
    dh = d // h

    q = q_in @ weights.wq.T + weights.bq
    k = k_in @ weights.wk.T + weights.bk
    v = v_in @ weights.wv.T + weights.bv

    qh = q.reshape(n_q, h, dh).transpose(1, 0, 2)
    kh = k.reshape(n_k, h, dh).transpose(1, 0, 2)
    vh = v.reshape(n_k, h, dh).transpose(1, 0, 2)

    logits = qh @ kh.transpose(0, 2, 1)
    logits /= math.sqrt(dh)
    attn_h = softmax_rows(logits, mask.blocked if mask.blocked.any() else None)

    ctx = (attn_h @ vh).transpose(1, 0, 2).reshape(n_q, d)
    out = ctx @ weights.wo.T + weights.bo
    return out, attn_h.mean(axis=0)


def bilinear_at(data: np.ndarray, fy: np.ndarray, fx: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of data (H,W,d) at fractional cell coords.

    Coordinates index cell centers (integer coords hit centers exactly);
    indices are clamped at the borders while the four weights keep summing
    to one.  fy and fx are equally shaped arrays; the result has their
    shape plus a trailing d.

    The interpolation is applied as one sparse operator: a CSR matrix of
    points x H*W whose row holds the four corner weights in corner order
    (00, 01, 10, 11), times the grid flattened to (H*W, d).  A corner
    clamped onto another stays a duplicate column rather than being summed
    into it, so every output row accumulates w00*c00 + w01*c01 + w10*c10 +
    w11*c11 in that order.
    """
    shape = np.shape(fy)
    fy = np.asarray(fy, dtype=np.float64).ravel()
    fx = np.asarray(fx, dtype=np.float64).ravel()
    h, w, d = data.shape
    y0 = np.floor(fy)
    x0 = np.floor(fx)
    ty = fy - y0
    tx = fx - x0
    y0 = y0.astype(np.int64)
    x0 = x0.astype(np.int64)
    r0 = np.clip(y0, 0, h - 1) * w
    r1 = np.clip(y0 + 1, 0, h - 1) * w
    c0 = np.clip(x0, 0, w - 1)
    c1 = np.clip(x0 + 1, 0, w - 1)
    weights = np.stack([(1.0 - ty) * (1.0 - tx), (1.0 - ty) * tx,
                        ty * (1.0 - tx), ty * tx], axis=1)
    cols = np.stack([r0 + c0, r0 + c1, r1 + c0, r1 + c1], axis=1)
    indptr = np.arange(0, cols.size + 1, 4)
    op = sparse.csr_array((weights.ravel(), cols.ravel(), indptr),
                          shape=(fy.size, h * w))
    return (op @ data.reshape(h * w, d)).reshape(shape + (d,))


def bilinear_sample_many(grid, points: np.ndarray) -> np.ndarray:
    """Sample a metric BEV grid at an (M,2) array of points (meters).

    Points outside the grid extent return the zero vector; inside, the
    result is the bilinear blend of the four surrounding cell features.
    """
    points = np.asarray(points, dtype=np.float64)
    x = points[:, 0]
    y = points[:, 1]
    inside = (
        (x >= grid.x_min) & (x <= grid.x_max) & (y >= grid.y_min) & (y <= grid.y_max)
    )
    fy, fx = grid.frac_coords(x, y)
    out = bilinear_at(grid.data, np.where(inside, fy, 0.0), np.where(inside, fx, 0.0))
    out[~inside] = 0.0
    return out
