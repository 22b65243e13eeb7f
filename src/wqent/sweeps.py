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

    The body is one printf template per layout, the two axes and the mask:
    each axis value is formatted once, each row is joined from a shared list
    of ``"b,%.17g"`` cells (masked cells are dropped only in rows that have
    any), and one ``%`` call formats every unmasked value. The template is
    built once per layout and kept in a cache of three, keyed on each axis's
    dtype, shape and bytes and on the mask as bools, so ``-0.0`` and ``0.0``,
    or an integer and a float axis, never share one. Three layouts are one
    ``grid_n``'s figure set; at ``grid_n = 97`` they hold about 0.9 MB (38 to
    46 bytes per unmasked cell). A process that renders one grid, as the CLI
    does, builds its template once, as it would without the cache. Comments
    and the header stay outside the template, so a ``%`` in a comment is
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
    head = "".join(f"# {c}\n" for c in comments) + f"{grid.axis_names[0]},{grid.axis_names[1]},I\n"
    return head + _body_template(*key, (mask.shape, mask.tobytes())) % tuple(values[~mask].tolist())


@functools.lru_cache(maxsize=3)
def _body_template(ax0: tuple, ax1: tuple, mask: tuple) -> str:
    """The printf body of one layout, from the ``(dtype, shape, bytes)`` of each axis and ``(shape, bytes)``
    of the bool mask."""
    labels0, labels1 = ([f"{x:.17g}" for x in np.frombuffer(data, dtype).reshape(shape).tolist()]
                        for dtype, shape, data in (ax0, ax1))
    keep = ~np.frombuffer(mask[1], dtype=bool).reshape(mask[0])
    cells = [f"{b},%.17g" for b in labels1]
    rows = []
    for a, selectors, full in zip(labels0, keep.tolist(), keep.all(axis=1).tolist()):
        kept = cells if full else list(compress(cells, selectors))
        if kept:
            rows.append(a + "," + ("\n" + a + ",").join(kept) + "\n")
    return "".join(rows)
