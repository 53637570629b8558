"""Blade-level combinatorics of the 16-dimensional exterior algebra over R^4.

A blade is encoded as a 4-bit mask: bit ``i`` set means the coordinate
covector number ``i`` participates, with factors always kept in ascending
index order.  Everything in this module is metric-free integer structure,
computed once at import time, each table from Python ints or in a few whole-array
numpy steps; the metric-dependent tables live in :mod:`cliffcheck.algebra`.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

DIM = 4
N_BLADES = 1 << DIM
FULL_MASK = N_BLADES - 1

_GRADES = [bin(m).count("1") for m in range(N_BLADES)]
GRADE = np.array(_GRADES, dtype=np.int64)
ALL_GRADES = frozenset(range(DIM + 1))
MASKS_BY_GRADE = tuple(
    tuple(m for m in range(N_BLADES) if _GRADES[m] == k) for k in range(DIM + 1)
)
COVECTOR_MASKS = [1 << i for i in range(DIM)]  # the mask of covector i, an index list

# reversion (-1)^{k(k-1)/2} and grade involution (-1)^k, per blade
REVERSE_SIGN = np.array([(-1.0) ** (k * (k - 1) // 2) for k in _GRADES])
INVOLUTE_SIGN = np.array([(-1.0) ** k for k in _GRADES])


def indices(mask: int) -> tuple[int, ...]:
    """Ascending covector indices present in ``mask``."""
    return tuple(i for i in range(DIM) if mask >> i & 1)


def mask_of(idxs) -> int:
    mask = 0
    for i in idxs:
        mask |= 1 << i
    return mask


def _table(shape, entries: dict, dtype=float) -> np.ndarray:
    """A zero table of ``shape`` with the ``entries`` (index tuple -> value) set."""
    table = np.zeros(shape, dtype=dtype)
    table[tuple(zip(*entries))] = list(entries.values())
    return table


def sort_parity(seq) -> int:
    seq = list(seq)
    swaps = 0
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                swaps += 1
    return -1 if swaps & 1 else 1


# blade a ^ blade b = WEDGE_SIGN[a, b] blade (a | b), 0 unless the masks are disjoint:
# the parity of sorting indices(a) + indices(b), one swap per index of a above one of b
_M = np.arange(N_BLADES)
_SWAPS = sum((_M >> j & 1) * GRADE[_M >> j + 1][:, np.newaxis] for j in range(DIM))
WEDGE_SIGN = np.where(_M[:, np.newaxis] & _M, 0, 1 - 2 * (_SWAPS & 1))

# full exterior-product tensor: (A ^ B)_k = sum_{a,b} A_a B_b WEDGE_TENSOR[a,b,k]
WEDGE_TENSOR = np.zeros((N_BLADES,) * 3)
_a, _b = np.nonzero(WEDGE_SIGN)
WEDGE_TENSOR[_a, _b, _a | _b] = WEDGE_SIGN[_a, _b]

# wedge-by-single-covector operators: WEDGE_OP[i] @ x  ==  gamma^i ^ x, the
# covector rows of WEDGE_TENSOR as matrices, kept C-contiguous for the einsums
WEDGE_OP = np.ascontiguousarray(WEDGE_TENSOR[COVECTOR_MASKS].transpose(0, 2, 1))

# Interior product by gamma^i is the antiderivation
#   gamma^i _| (a_1^...^a_p) = sum_m (-1)^(m-1) g(gamma^i, a_m) a_1^..â_m..^a_p,
# linear in the metric row g[i,:]:  C[i] = sum_j g[i,j] * CONTRACT_STRUCT[j].
CONTRACT_STRUCT = _table((DIM, N_BLADES, N_BLADES), {
    (j, m ^ 1 << j, m): (-1.0) ** _GRADES[m & ((1 << j) - 1)]
    for j in range(DIM) for m in range(N_BLADES) if m >> j & 1})

# INDEX_SUB[i, r][m, m'] is the signed coefficient of component m' in the
# antisymmetrized component "m with covector i replaced by r"; zero when the
# replacement repeats an index.  Used by covariant derivatives of p-forms.
# Putting r in the place of i and sorting moves r past the indices of m strictly
# between i and r, one swap each; r == i moves nothing.
def _between(i: int, r: int) -> int:
    """The mask of the covector indices strictly between ``i`` and ``r``."""
    return ((1 << max(i, r)) - 1) & ~((2 << min(i, r)) - 1)


INDEX_SUB = _table((DIM, DIM, N_BLADES, N_BLADES), {
    (i, r, m, m ^ 1 << i | 1 << r): (-1.0) ** _GRADES[m & _between(i, r)]
    for i in range(DIM) for r in range(DIM) for m in range(N_BLADES)
    if m >> i & 1 and (r == i or not m >> r & 1)})  # a repeated index: the component vanishes


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


class RowSet(NamedTuple):
    """The blade rows of a set of grades, and the index tables above restricted to them (:func:`row_set`)."""

    rows: np.ndarray  # the masks of those grades, ascending
    take: np.ndarray  # SUB_TAKE's columns of the positions in those rows, less the terms that pad all of them
    at: np.ndarray  # each such position's flat place j * 16 + n in the (len(rows), 16) block of those rows
    row_n: np.ndarray  # SUB_ROW_N at those rows


@cache
def row_set(grades: frozenset) -> RowSet:
    """The rows of the blades of ``grades``, built on first use, once per grade set.

    An index substitution keeps the grade, so a field of those grades meets
    ``INDEX_SUB`` only at its positions in these rows: 16 of the 63 for the
    1-forms, none for the scalars.
    """
    rows = np.flatnonzero(np.isin(GRADE, list(grades)))
    kept = np.isin(_row, rows)
    take = SUB_TAKE[:, kept]
    depth = max(1, int((take != 2 * DIM ** 2).sum(axis=0).max(initial=0)))
    tables = RowSet(rows, take[:depth], np.searchsorted(rows, _row[kept]) * N_BLADES + _col[kept], SUB_ROW_N[rows])
    for table in tables:
        table.flags.writeable = False  # shared by every caller
    return tables


# static index scaffolding for batched Gram determinants: per grade k, the
# masks and row/column coordinate arrays of every equal-grade blade pair
# (a, b), a-major: rows[p, x, y] is index x of a and cols[p, x, y] index y of b
GRAM_PAIRS = {}
for _k in range(1, 5):
    _masks = np.array(MASKS_BY_GRADE[_k])
    _idx = np.array([indices(m) for m in MASKS_BY_GRADE[_k]])  # (blades, k)
    GRAM_PAIRS[_k] = (
        np.repeat(_masks, len(_masks)),
        np.tile(_masks, len(_masks)),
        np.repeat(np.repeat(_idx, len(_masks), axis=0)[:, :, np.newaxis], _k, axis=2),
        np.repeat(np.tile(_idx, (len(_masks), 1))[:, np.newaxis, :], _k, axis=1),
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
