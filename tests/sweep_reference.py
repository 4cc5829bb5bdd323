"""The sweep's rows as one tau-major table, rebuilt from its grid
report, for tests that check the grid point by point."""

from cavtel.cli import SWEEP_COLUMNS


def sweep_table(taus, accs, grid):
    """Row i * len(accs) + j of the CSV as Python floats: tau_i, a_j,
    then the grid report's fields of SWEEP_COLUMNS[2:] at (j, i)."""
    return [[tau, a] + [float(getattr(grid, c)[j, i]) for c in SWEEP_COLUMNS[2:]]
            for i, tau in enumerate(taus.tolist())
            for j, a in enumerate(accs.tolist())]
