"""Mutual-information grids over probability and weight planes, CSV output."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

from .errors import DimensionError, ValidationError
from .entropy import qutrit_mutual_information_closed_form

PROB_SWEEP_WEIGHTS = (0.75, 0.25, 1.0 / 3.0, 2.0 / 3.0)
WEIGHT_SWEEP_PROBS = (0.25, 0.125)

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
    if grid_n < 1:
        raise ValidationError(f"grid_n must be >= 1, got {grid_n}")
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
    if grid_n < 1:
        raise ValidationError(f"grid_n must be >= 1, got {grid_n}")
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
    ``_cell_texts``); every other value, and every value of another dtype,
    goes through printf. The body is one template per layout, the two axes
    and the mask: each axis value is formatted once, each row is joined from
    a shared list of ``"b,%s"`` cells (masked cells are dropped only in rows
    that have any), and one ``%`` call fills in every unmasked value's text.
    The template is built once per layout and kept in a cache of three,
    keyed on each axis's dtype, shape and bytes and on the mask as bools, so
    ``-0.0`` and ``0.0``, or an integer and a float axis, never share one.
    Three layouts are one ``grid_n``'s figure set. A process that renders
    one grid, as the CLI does, builds its template once, as it would without
    the cache. Comments and the header stay outside the template, so a ``%``
    in a comment is written as given.

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
    head = "".join(f"# {c}\n" for c in comments) + f"{grid.axis_names[0]},{grid.axis_names[1]},I\n"
    return head + _body_template(*key, (mask.shape, mask.tobytes())) % _cell_texts(values[~mask])


@functools.lru_cache(maxsize=3)
def _body_template(ax0: tuple, ax1: tuple, mask: tuple) -> str:
    """The ``%s`` body of one layout, from the ``(dtype, shape, bytes)`` of each axis and ``(shape, bytes)``
    of the bool mask."""
    labels0, labels1 = ([f"{x:.17g}" for x in np.frombuffer(data, dtype).reshape(shape).tolist()]
                        for dtype, shape, data in (ax0, ax1))
    keep = ~np.frombuffer(mask[1], dtype=bool).reshape(mask[0])
    cells = [f"{b},%s" for b in labels1]
    rows = []
    for a, selectors, full in zip(labels0, keep.tolist(), keep.all(axis=1).tolist()):
        kept = cells if full else list(compress(cells, selectors))
        if kept:
            rows.append(a + "," + ("\n" + a + ",").join(kept) + "\n")
    return "".join(rows)


_CHUNK = 4096
# 10**(16 - e) for the decimal exponents e = -4 .. -1, each an exact double
_SCALES = np.array([1e20, 1e19, 1e18, 1e17])


def _cell_texts(values: np.ndarray) -> tuple[str, ...]:
    """``'%.17g' % x`` of each value in the 1-D ``values``: the ``0.ddd`` texts of float64 values in bulk,
    4,096 at a time, and the rest, and every value of another dtype, through printf."""
    if values.dtype != np.float64:
        return tuple("%.17g" % x for x in values.tolist())
    texts = []
    for start in range(0, values.size, _CHUNK):
        chunk = values[start:start + _CHUNK]
        digits, e, slow = _exact_digits(chunk)
        # six words a value: a comma and its text, padded with NULs
        rows = _digit_words()[_word_index(digits, 5 * (chunk < 0) + e + 4)].tobytes()
        bulk = rows.translate(None, b"\0").decode("ascii").split(",")[1:]
        for i, x in zip(slow.tolist(), chunk[slow].tolist()):
            bulk[i] = "%.17g" % x
        texts += bulk
    return tuple(texts)


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
    index[:, 1] = 20_010 + 10 * kind + digits // 10**16
    # a group followed only by zeros is written from the second table, its trailing zeros as NULs
    for j, k in enumerate((12, 8, 4, 0), 2):
        index[:, j] = digits // 10**k % 10_000 + 10_000 * (digits % 10**k == 0)
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
    ``5 * negative + e + 4``, word ``20,000 + kind`` and word ``20,010 + 10 * kind + d`` hold a comma,
    the sign, ``0.``, ``-e - 1`` zeros and the leading digit ``d``, right-aligned with NULs."""
    n = np.arange(10_000, dtype=np.uint16)
    digits = (np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1) + ord("0")).astype(np.uint8)
    kept = np.logical_or.accumulate(digits[:, ::-1] != ord("0"), axis=1)[:, ::-1]
    heads = [("," + "-" * neg + "0." + "0" * (-e - 1)).rjust(7, "\0") for neg in (0, 1) for e in range(-4, 1)]
    heads = [h[:4] for h in heads] + [h[4:] + str(d) for h in heads for d in range(10)]
    return np.concatenate([digits.view(np.uint32).ravel(), np.where(kept, digits, 0).view(np.uint32).ravel(),
                           np.frombuffer("".join(heads).encode(), np.uint32)])
