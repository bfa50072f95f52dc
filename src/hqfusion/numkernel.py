"""Float64 numeric kernels.

The one masked row softmax, multi-head attention that hands its
head-averaged attention weights to a reducer one row block at a time, the
per-row top-key selection those reducers use, and bilinear interpolation at
fractional cell coordinates as a sparse corner-weight operator: every BEV
and PV token and every image proposal is read through bilinear_at.  Only
softmax_rows works in place, on the logits it is given, and the attention
kernel's reducer may overwrite the block it is handed; no other kernel
mutates its arguments.

Cross-type attention rows are grouped by query type, each group with its
own open key set, and the attention kernel forms logits only for a group's
open keys, one block of rows at a time (block-sparse attention as in Sparse
Transformers, with cache-sized row tiles as in FlashAttention).  No
(n_q, n_k) attention matrix is formed: whatever a caller needs of the
weights is reduced from each block while it is in cache.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ConfigError, ShapeError

LN_EPS = 1e-6


# Upper bound on the float64 logits of one row block, over all heads: each
# softmax pass over a block then stays in a per-core L2 cache.
ATTN_BLOCK_BYTES = 1 << 20

# top_keys takes up to this many keys a row by argmax passes, whose cost
# grows with the keys taken; a partition costs the same for any count.  On
# (18, 900) blocks, one core of a 2-vCPU VM: 2 keys 18 us against 118 us,
# 16 keys about even at 95 us, 32 keys 179 us against 104 us.
ARGMAX_KEYS = 8


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


def _index(ids: np.ndarray):
    """Ascending ids as a slice when they form one run, else as given, so a
    gather or scatter through the result is a view or a plain block copy
    whenever it can be."""
    if len(ids) and ids[-1] - ids[0] == len(ids) - 1:
        return slice(int(ids[0]), int(ids[-1]) + 1)
    return ids


def multi_head_attention(
    q_in: np.ndarray,
    k_in: np.ndarray,
    v_in: np.ndarray,
    weights: MhaWeights,
    types: np.ndarray | None = None,
    reduce=None,
) -> np.ndarray:
    """Scaled dot-product attention, cross-type masked when given `types`.

    Without `types` every query sees every key.  With `types`, one query
    type per row of a self-attention (n_k == n_q), the rows are grouped by
    type: a row sees every key of the other types, plus its own key as one
    extra logit column.

    Returns the (n_q, d) output.  The attention weights are never stored:
    when given `reduce`, the kernel calls reduce(rows, keys, w, w_self) once
    per row block, where rows (B,) are the block's row ids, keys the
    ascending ids of its group's open keys, w (B, len(keys)) the mean over
    heads of the post-softmax weights of those keys, and w_self (B,) each
    row's weight on its own key when masked, else None.  A row's w and
    w_self sum to 1; a blocked key is not in keys, as no logit is formed
    for it.  The reducer may overwrite w.

    Each group's rows are taken in blocks whose logits over all heads fit in
    ATTN_BLOCK_BYTES.  1/sqrt(dh) is folded into q; a block's softmax
    numerators are normalized only after the value product, on the
    (h, B, dh) context, and its head mean is one contraction with
    1/(h * row sum).
    """
    q_in = np.asarray(q_in, dtype=np.float64)
    k_in = np.asarray(k_in, dtype=np.float64)
    v_in = np.asarray(v_in, dtype=np.float64)
    n_q, d = q_in.shape
    n_k = k_in.shape[0]
    if k_in.shape[1] != d or v_in.shape != k_in.shape:
        raise ShapeError("q/k/v feature dims do not match")
    h = weights.heads
    if d % h != 0:
        raise ConfigError(f"head count {h} does not divide model dim {d}")
    dh = d // h
    # (row ids, open key ids, self key) of each row group
    if types is None:
        groups = [(np.arange(n_q), np.arange(n_k), False)]
    else:
        types = np.asarray(types)
        if types.shape != (n_q,) or n_k != n_q:
            raise ShapeError(f"types of shape {types.shape} do not match a "
                             f"({n_q},{n_k}) self-attention")
        groups = [(np.flatnonzero(types == t), np.flatnonzero(types != t), True)
                  for t in np.unique(types)]

    q = q_in @ weights.wq.T + weights.bq
    q *= 1.0 / math.sqrt(dh)
    k = k_in @ weights.wk.T + weights.bk
    v = v_in @ weights.wv.T + weights.bv
    # head-major copies: q, v as (h, n, dh), k as (h, dh, n_k)
    qh = np.ascontiguousarray(q.reshape(n_q, h, dh).transpose(1, 0, 2))
    kt = np.ascontiguousarray(k.T).reshape(h, dh, n_k)
    vh = np.ascontiguousarray(v.reshape(n_k, h, dh).transpose(1, 0, 2))

    ctx = np.empty((n_q, h, dh))
    ctx_h = ctx.transpose(1, 0, 2)
    for row_ids, key_ids, self_key in groups:
        rows, keys = _index(row_ids), _index(key_ids)
        q_g, kt_g, v_g = qh[:, rows], kt[:, :, keys], vh[:, keys]
        n_open = v_g.shape[1]
        step = max(1, ATTN_BLOCK_BYTES // (8 * h * max(1, n_open + self_key)))
        # one logit buffer per group, reused by every block
        buf = np.empty(h * min(step, len(row_ids)) * n_open)
        for r0 in range(0, len(row_ids), step):
            blk = slice(r0, r0 + step)
            rb = _index(row_ids[blk])
            qb = q_g[:, blk]
            e = buf[:h * qb.shape[1] * n_open].reshape(h, qb.shape[1], n_open)
            np.matmul(qb, kt_g, out=e)
            if self_key:
                e_self = np.einsum("hbd,hdb->hb", qb, kt[:, :, rb])
                m = np.maximum(e.max(axis=-1), e_self) if n_open else e_self.copy()
                e_self -= m
                np.exp(e_self, out=e_self)
            else:
                m = e.max(axis=-1)
            e -= m[..., None]
            np.exp(e, out=e)
            total = e.sum(axis=-1)
            ctx_b = e @ v_g
            if self_key:
                total += e_self
                ctx_b += e_self[..., None] * vh[:, rb]
            inv = 1.0 / total
            ctx_b *= inv[..., None]
            ctx_h[:, rb] = ctx_b
            if reduce is not None:
                inv /= h
                # head mean: (B, 1, h) @ (B, h, n_open)
                mean = (inv.T[:, None, :] @ e.transpose(1, 0, 2))[:, 0]
                reduce(row_ids[blk], key_ids, mean,
                       np.einsum("hb,hb->b", e_self, inv) if self_key else None)

    return ctx.reshape(n_q, d) @ weights.wo.T + weights.bo


def top_keys(w: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's n largest entries: (columns, values), each (B, min(n, K)).

    A row's entries go by descending value, ties to the lower column.  An
    entry of -inf is not a key: a row with fewer than n others ends in
    column -1 with value 0.0.

    Up to ARGMAX_KEYS keys, each pass takes every row's first maximum and
    masks it.  Beyond, one partition of the block finds every row's n
    largest values; only a row whose n-th largest value is also held by an
    entry left out is sorted in full.
    """
    b, k = w.shape
    n = min(n, k)
    if n <= ARGMAX_KEYS:
        rest = w.copy()
        rows = np.arange(b)
        cols = np.empty((b, n), dtype=np.int64)
        vals = np.empty((b, n))
        for j in range(n):
            cols[:, j] = c = rest.argmax(axis=1)
            vals[:, j] = rest[rows, c]
            rest[rows, c] = -np.inf
    else:
        cols = np.argpartition(w, k - n, axis=1)[:, k - n:]
        vals = np.take_along_axis(w, cols, axis=1)
        kth = vals.min(axis=1)
        tied = np.flatnonzero(np.count_nonzero(w >= kth[:, None], axis=1) > n)
        if len(tied):
            cols[tied] = np.argsort(-w[tied], axis=1, kind="stable")[:, :n]
            vals[tied] = np.take_along_axis(w[tied], cols[tied], axis=1)
        order = np.lexsort((cols, -vals))
        cols = np.take_along_axis(cols, order, axis=1)
        vals = np.take_along_axis(vals, order, axis=1)
    none = vals == -np.inf
    cols[none] = -1
    vals[none] = 0.0
    return cols, vals


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

