"""Mutual-information grids over probability and weight planes, CSV output."""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PROB_SWEEP_WEIGHTS, WEIGHT_SWEEP_PROBS, DimensionError, ValidationError
from .entropy import qutrit_mutual_information_closed_form

# phi1 and chi1 ranges per region; the complements are 1 - phi1, 1 - chi1
WEIGHT_REGIONS = {
    "a": ((0.5, 1.0), (0.0, 0.5)),
    "b": ((0.0, 0.5), (0.5, 1.0)),
}


@dataclass(frozen=True)
class SweepGrid:
    """Row-major grid of values; masked cells are outside the domain."""

    axis_names: tuple[str, str]
    axis_values: tuple[np.ndarray, np.ndarray]
    values: np.ndarray
    mask: np.ndarray


def _grid_size(grid_n) -> int:
    """``grid_n`` as an ``int`` of at least 1; raises ``ValidationError`` for any other value."""
    try:
        grid_n = operator.index(grid_n)
    except TypeError:
        raise ValidationError(f"grid_n must be an integer, got {grid_n!r}") from None
    if grid_n < 1:
        raise ValidationError(f"grid_n must be >= 1, got {grid_n}")
    return grid_n


def sweep_probabilities(
    grid_n: int,
    phi1: float = PROB_SWEEP_WEIGHTS[0],
    phi2: float = PROB_SWEEP_WEIGHTS[1],
    chi1: float = PROB_SWEEP_WEIGHTS[2],
    chi2: float = PROB_SWEEP_WEIGHTS[3],
) -> SweepGrid:
    """Mutual information over the (p1, p2) simplex interior.

    Axes sample the grid_n cell centers (k + 1/2) / grid_n, so no coordinate
    is ever exactly 0. Cells with p1 + p2 >= 1 are masked; the comparison is
    done in exact integer form, (2i + 1) + (2j + 1) >= 2 grid_n, so boundary
    cells never flip on rounding.
    """
    grid_n = _grid_size(grid_n)
    k = np.arange(grid_n)
    centers = (k + 0.5) / grid_n
    mask = (k[:, None] + k[None, :] + 1) >= grid_n
    values = np.full((grid_n, grid_n), np.nan)
    # runs on empty index arrays too: the closed form is where the weights are checked
    i, j = np.nonzero(~mask)
    values[i, j] = qutrit_mutual_information_closed_form(centers[i], centers[j], phi1, phi2, chi1, chi2)
    return SweepGrid(("p1", "p2"), (centers, centers.copy()), values, mask)


def sweep_weights(
    region: str,
    grid_n: int,
    p1: float = WEIGHT_SWEEP_PROBS[0],
    p2: float = WEIGHT_SWEEP_PROBS[1],
) -> SweepGrid:
    """Mutual information over a (phi1, chi1) rectangle, complements implied.

    Region "a" spans phi1 in [1/2, 1] with chi1 in [0, 1/2]; region "b" the
    mirror. Bounds are inclusive, so the sign condition holds everywhere
    including the boundary where it is an equality.
    """
    grid_n = _grid_size(grid_n)
    if region not in WEIGHT_REGIONS:
        raise ValidationError(f"region must be one of {sorted(WEIGHT_REGIONS)}, got {region!r}")
    (f_lo, f_hi), (c_lo, c_hi) = WEIGHT_REGIONS[region]
    phi1 = np.linspace(f_lo, f_hi, grid_n)
    chi1 = np.linspace(c_lo, c_hi, grid_n)
    f_grid, c_grid = np.meshgrid(phi1, chi1, indexing="ij")
    values = qutrit_mutual_information_closed_form(
        p1, p2, f_grid, 1.0 - f_grid, c_grid, 1.0 - c_grid
    )
    mask = np.zeros((grid_n, grid_n), dtype=bool)
    return SweepGrid(("phi1", "chi1"), (phi1, chi1), values, mask)


def grid_to_csv(grid: SweepGrid, comments: Sequence[str] = ()) -> str:
    """Render unmasked cells in row-major order, 17 significant digits.

    Each value is written as ``'%.17g' % x`` writes it. A float64 value
    whose text is ``0.`` and digits, that is ``1e-4 <= |x|`` with its
    17-digit rounding below 1, has its digits computed exactly in bulk (see
    ``_exact_digits``); every other value, and every value of another dtype,
    goes through printf. The body is assembled as bytes, 4,096 rows at a
    time: each row of a ``uint8`` block holds its cell's ``a,b,`` prefix,
    a 24-byte slot for the value's text and a newline, all padded with NULs,
    and each block is stripped of its NULs and decoded once. The prefixes
    are built once per layout, the two axes and the mask, and kept in a
    cache of three, keyed on each axis's dtype, shape and bytes and on the
    mask as bools, so ``-0.0`` and ``0.0``, or an integer and a float axis,
    never share one. Three layouts are one ``grid_n``'s figure set. A
    process that renders one grid, as the CLI does, builds its prefixes
    once, as it would without the cache. Comments and the header are
    written as given.

    Raises ``DimensionError`` unless both axes are 1-D and the values and the
    mask have the shape ``(len(axis 0), len(axis 1))``.
    """
    axes = [np.asarray(ax) for ax in grid.axis_values]
    values = np.asarray(grid.values)
    mask = np.asarray(grid.mask, dtype=bool)
    if not (axes[0].ndim == axes[1].ndim == 1 and values.shape == mask.shape == (axes[0].size, axes[1].size)):
        raise DimensionError(
            f"grid values {values.shape} and mask {mask.shape} must both have the shape "
            f"of the axes {tuple(ax.shape for ax in axes)}"
        )
    if any(ax.dtype.hasobject for ax in axes):
        raise ValidationError("grid axes must be numeric arrays, not object arrays")
    key = tuple((ax.dtype.str, ax.shape, ax.tobytes()) for ax in axes)
    prefixes = _row_prefixes(*key, (mask.shape, mask.tobytes()))
    width = prefixes.shape[1]
    values = values[~mask]
    texts = ["".join(f"# {c}\n" for c in comments) + f"{grid.axis_names[0]},{grid.axis_names[1]},I\n"]
    for start in range(0, values.size, _CHUNK):
        chunk = values[start:start + _CHUNK]
        # a value of another dtype stands in as a zero, which printf writes
        v = chunk if chunk.dtype == np.float64 else np.zeros(chunk.size)
        digits, e, slow = _exact_digits(v)
        rows = np.empty((chunk.size, width + 25), np.uint8)
        rows[:, :width] = prefixes[start:start + _CHUNK]
        rows[:, width:-1] = _digit_words()[_word_index(digits, 5 * (v < 0) + e + 4)].view(np.uint8)
        # '%.17g' of a double is at most 24 characters: -4.9406564584124654e-324
        printed = np.array(["%.17g" % x for x in chunk[slow].tolist()], "S24")
        rows[slow, width:-1] = printed.view(np.uint8).reshape(-1, 24)
        rows[:, -1] = ord("\n")
        texts.append(rows.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(texts)


@functools.lru_cache(maxsize=3)
def _row_prefixes(ax0: tuple, ax1: tuple, mask: tuple) -> np.ndarray:
    """Each unmasked cell's ``a,b,`` text in row-major order, one read-only ``uint8`` row per cell, from the
    ``(dtype, shape, bytes)`` of each axis and ``(shape, bytes)`` of the bool mask. ``a,`` and ``b,`` are
    each padded with NULs to the longest label of their axis."""
    labels0, labels1 = (np.array([f"{x:.17g}," for x in np.frombuffer(data, dtype).reshape(shape).tolist()], "S")
                        for dtype, shape, data in (ax0, ax1))
    w0, w1 = labels0.itemsize, labels1.itemsize
    cells = np.empty((labels0.size, labels1.size, w0 + w1), np.uint8)
    cells[:, :, :w0] = labels0.view(np.uint8).reshape(-1, 1, w0)
    cells[:, :, w0:] = labels1.view(np.uint8).reshape(1, -1, w1)
    prefixes = cells[~np.frombuffer(mask[1], dtype=bool).reshape(mask[0])]
    prefixes.flags.writeable = False
    return prefixes


_CHUNK = 4096
# 10**(16 - e) for the decimal exponents e = -4 .. -1, each an exact double
_SCALES = np.array([1e20, 1e19, 1e18, 1e17])


def _exact_digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits of each ``|x|`` in ``v`` as an integer, its decimal exponent ``e``, and the
    indices of the values left to printf: zeros, NaN, infinities and ``|x|`` below ``1e-4`` or rounding to 1
    or more.

    ``x * 10**(16 - e)`` is ``hi + lo`` exactly by Dekker's product, and ``e`` is corrected until ``hi + lo``
    lies in ``[1e16, 1e17)``, judged exactly: ``log10`` can be one off next to a power of ten. There ``hi``
    is an even integer and ``|lo| <= 8``, so ``hi + rint(lo)`` rounds half to even, as printf does.
    """
    x = np.abs(v)
    fast = (x >= 1e-4) & (x < 1.0)
    x = np.where(fast, x, 0.5)
    e = np.clip(np.floor(np.log10(x)), -4, -1).astype(np.intp)
    while True:
        hi, lo = _two_product(x, _SCALES[e + 4])
        low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
        high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
        if not (low.any() or high.any()):
            break
        e += np.subtract(high, low, dtype=np.intp)
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    up = digits == 10**17  # rounded up to the next power of ten
    digits[up] = 10**16
    e += up
    return digits, e, np.flatnonzero(~fast | (e == 0))


def _word_index(digits: np.ndarray, kind: np.ndarray) -> np.ndarray:
    """Each value's six words in ``_digit_words``: its head, for its ``kind`` of text and leading digit,
    then its other 16 digits in groups of four."""
    index = np.empty((digits.size, 6), np.intp)
    index[:, 0] = 20_000 + kind
    # the leading 1, 5, 9, 13 and 17 digits; numpy divides an int64 by a scalar faster than it takes the remainder
    q = [digits // 10**k for k in (16, 12, 8, 4)] + [digits]
    index[:, 1] = 20_010 + 10 * kind + q[0]
    # a group followed only by zeros is written from the second table, its trailing zeros as NULs
    for j in range(1, 5):
        index[:, j + 1] = q[j] - 10_000 * q[j - 1] + 10_000 * (q[j] * 10 ** (16 - 4 * j) == digits)
    return index


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``hi + lo == a * b`` exactly (Dekker), for products that neither overflow nor underflow. Each factor is
    split by ``2**27 + 1`` (Veltkamp) into halves of at most 26 bits, whose products are exact; no numpy
    ufunc fuses a multiply and an add, so each step rounds as written."""
    c_a, c_b = 134217729.0 * a, 134217729.0 * b
    a_hi, b_hi = c_a - (c_a - a), c_b - (c_b - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    hi = a * b
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


@functools.cache
def _digit_words() -> np.ndarray:
    """Four-byte words, read in a row of six: word ``g < 10,000`` is the four ASCII digits of ``g`` and
    word ``10,000 + g`` the same with its trailing zeros as NULs. For the kind of text,
    ``5 * negative + e + 4``, word ``20,000 + kind`` and word ``20,010 + 10 * kind + d`` hold the sign,
    ``0.``, ``-e - 1`` zeros and the leading digit ``d``, right-aligned with NULs."""
    n = np.arange(10_000, dtype=np.uint16)
    digits = (np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1) + ord("0")).astype(np.uint8)
    kept = np.logical_or.accumulate(digits[:, ::-1] != ord("0"), axis=1)[:, ::-1]
    heads = [("-" * neg + "0." + "0" * (-e - 1)).rjust(7, "\0") for neg in (0, 1) for e in range(-4, 1)]
    heads = [h[:4] for h in heads] + [h[4:] + str(d) for h in heads for d in range(10)]
    return np.concatenate([digits.view(np.uint32).ravel(), np.where(kept, digits, 0).view(np.uint32).ravel(),
                           np.frombuffer("".join(heads).encode(), np.uint32)])
