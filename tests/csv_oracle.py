"""Per-cell CSV rendering of a sweep grid, as a test oracle.

This is the loop ``grid_to_csv`` used before it read its arrays in bulk: it
indexes every numpy scalar and formats both axis values once per cell.
Tests require the bulk renderer to produce the same text, byte for byte.
"""


def grid_to_csv_per_cell(grid, comments=()) -> str:
    lines = [f"# {c}" for c in comments]
    lines.append(f"{grid.axis_names[0]},{grid.axis_names[1]},I")
    ax0, ax1 = grid.axis_values
    n0, n1 = grid.values.shape
    for i in range(n0):
        for j in range(n1):
            if grid.mask[i, j]:
                continue
            lines.append(f"{ax0[i]:.17g},{ax1[j]:.17g},{grid.values[i, j]:.17g}")
    return "\n".join(lines) + "\n"
