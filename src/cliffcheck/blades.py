"""Blade-level combinatorics of the 16-dimensional exterior algebra over R^4.

A blade is encoded as a 4-bit mask: bit ``i`` set means the coordinate
covector number ``i`` participates, with factors always kept in ascending
index order.  Everything in this module is metric-free integer structure,
computed once at import time; the metric-dependent tables live in
:mod:`cliffcheck.algebra`.
"""

from __future__ import annotations

import numpy as np

DIM = 4
N_BLADES = 1 << DIM
FULL_MASK = N_BLADES - 1

GRADE = np.array([bin(m).count("1") for m in range(N_BLADES)], dtype=np.int64)
MASKS_BY_GRADE = tuple(
    tuple(m for m in range(N_BLADES) if GRADE[m] == k) for k in range(DIM + 1)
)
COVECTOR_MASKS = [1 << i for i in range(DIM)]  # the mask of covector i, an index list

# reversion (-1)^{k(k-1)/2} and grade involution (-1)^k, per blade
REVERSE_SIGN = np.array([(-1.0) ** (GRADE[m] * (GRADE[m] - 1) // 2) for m in range(N_BLADES)])
INVOLUTE_SIGN = np.array([(-1.0) ** GRADE[m] for m in range(N_BLADES)])


def indices(mask: int) -> tuple[int, ...]:
    """Ascending covector indices present in ``mask``."""
    return tuple(i for i in range(DIM) if mask >> i & 1)


def mask_of(idxs) -> int:
    mask = 0
    for i in idxs:
        mask |= 1 << i
    return mask


def _merge_sign(a: int, b: int) -> int:
    # parity of sorting concat(indices(a), indices(b)); masks assumed disjoint
    swaps = 0
    for j in indices(b):
        swaps += bin(a >> (j + 1)).count("1")
    return -1 if swaps & 1 else 1


def sort_parity(seq) -> int:
    seq = list(seq)
    swaps = 0
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                swaps += 1
    return -1 if swaps & 1 else 1


WEDGE_SIGN = np.zeros((N_BLADES, N_BLADES), dtype=np.int64)
for _a in range(N_BLADES):
    for _b in range(N_BLADES):
        if not _a & _b:
            WEDGE_SIGN[_a, _b] = _merge_sign(_a, _b)

# full exterior-product tensor: (A ^ B)_k = sum_{a,b} A_a B_b WEDGE_TENSOR[a,b,k]
WEDGE_TENSOR = np.zeros((N_BLADES, N_BLADES, N_BLADES))
for _a in range(N_BLADES):
    for _b in range(N_BLADES):
        if not _a & _b:
            WEDGE_TENSOR[_a, _b, _a | _b] = WEDGE_SIGN[_a, _b]

# wedge-by-single-covector operators: WEDGE_OP[i] @ x  ==  gamma^i ^ x, the
# covector rows of WEDGE_TENSOR as matrices, kept C-contiguous for the einsums
WEDGE_OP = np.ascontiguousarray(WEDGE_TENSOR[COVECTOR_MASKS].transpose(0, 2, 1))

# Interior product by gamma^i is the antiderivation
#   gamma^i _| (a_1^...^a_p) = sum_m (-1)^(m-1) g(gamma^i, a_m) a_1^..â_m..^a_p,
# linear in the metric row g[i,:]:  C[i] = sum_j g[i,j] * CONTRACT_STRUCT[j].
CONTRACT_STRUCT = np.zeros((DIM, N_BLADES, N_BLADES))
for _j in range(DIM):
    for _m in range(N_BLADES):
        if _m >> _j & 1:
            _pos = bin(_m & ((1 << _j) - 1)).count("1")
            CONTRACT_STRUCT[_j, _m ^ 1 << _j, _m] = (-1.0) ** _pos

# INDEX_SUB[i, r][m, m'] is the signed coefficient of component m' in the
# antisymmetrized component "m with covector i replaced by r"; zero when the
# replacement repeats an index.  Used by covariant derivatives of p-forms.
INDEX_SUB = np.zeros((DIM, DIM, N_BLADES, N_BLADES))
for _i in range(DIM):
    for _r in range(DIM):
        for _m in range(N_BLADES):
            if not _m >> _i & 1:
                continue
            if _r == _i:
                INDEX_SUB[_i, _r, _m, _m] = 1.0
                continue
            if _m >> _r & 1:
                continue  # repeated index: antisymmetric component vanishes
            _src = (_m ^ (1 << _i)) | (1 << _r)
            _tup = [_r if q == _i else q for q in indices(_m)]
            INDEX_SUB[_i, _r, _m, _src] = sort_parity(_tup)


def _place_in_group(keys: np.ndarray) -> np.ndarray:
    """For sorted ``keys``, the place of each entry among the entries of its key."""
    return np.arange(len(keys)) - np.searchsorted(keys, keys)


# INDEX_SUB by its non-zeros, which the covariant correction gathers instead
# of contracting the dense table.  SUB_POSITIONS: the 63 flat positions
# m * 16 + n where some INDEX_SUB[i, r, m, n] is non-zero, ascending.
# SUB_TAKE[t, p]: the t-th (i, r) term of position p, in (i, r) order, as a
# column of a signed table x of 33 columns: x[i * 4 + r] holds the (i, r)
# entry, x[16 + i * 4 + r] its negative and x[32] zero, which pads every
# position to the 4 terms of the fullest.  SUB_ROW_N[m]: row m's non-zero n
# ascending, padded with n = 0 to the width of the fullest row (5); an index
# substitution keeps the grade, so the scalar column n = 0 is zero in every row.
_flat, _ir = np.nonzero(INDEX_SUB.transpose(2, 3, 0, 1).reshape(N_BLADES ** 2, DIM ** 2))
_count = np.bincount(_flat)  # (i, r) terms per flat position
SUB_POSITIONS = np.flatnonzero(_count)
SUB_TAKE = np.full((_count.max(), len(SUB_POSITIONS)), 2 * DIM ** 2)
SUB_TAKE[_place_in_group(_flat), np.searchsorted(SUB_POSITIONS, _flat)] = (
    _ir + DIM ** 2 * (INDEX_SUB.reshape(DIM ** 2, -1)[_ir, _flat] < 0))
_row, _col = np.divmod(SUB_POSITIONS, N_BLADES)
SUB_ROW_N = np.zeros((N_BLADES, np.bincount(_row).max()), dtype=np.int64)
SUB_ROW_N[_row, _place_in_group(_row)] = _col

# static index scaffolding for batched Gram determinants: per grade k, the
# row/column coordinate arrays of every equal-grade blade pair
GRAM_PAIRS = {}
for _k in range(1, 5):
    _masks = MASKS_BY_GRADE[_k]
    _pairs = [(a, b) for a in _masks for b in _masks]
    _rows = np.array([[[i] * _k for i in indices(a)] for a, _ in _pairs])
    _cols = np.array([[list(indices(b))] * _k for _, b in _pairs])
    GRAM_PAIRS[_k] = (
        np.array([a for a, _ in _pairs]),
        np.array([b for _, b in _pairs]),
        _rows,
        _cols,
    )

# per grade k >= 2, every k-blade split into its lowest covector and the
# (k-1)-blade of the rest: (masks, lowest covector index, rest masks)
PEEL_STEPS = []
for _k in range(2, DIM + 1):
    _masks = MASKS_BY_GRADE[_k]
    _lowest = [(m & -m).bit_length() - 1 for m in _masks]
    PEEL_STEPS.append((
        np.array(_masks),
        np.array(_lowest),
        np.array([m ^ (1 << i) for m, i in zip(_masks, _lowest)]),
    ))


def blade_name(mask: int) -> str:
    if mask == 0:
        return "1"
    return "^".join(f"g{i}" for i in indices(mask))
