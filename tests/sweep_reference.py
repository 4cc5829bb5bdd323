"""The sweep's rows as one tau-major table, rebuilt from its column
reports, for tests that check the grid point by point."""

from cavtel.cli import SWEEP_COLUMNS


def sweep_table(taus, accs, reports):
    """Row i * len(accs) + j of the CSV as Python floats: tau_i, a_j,
    then column j's report fields of SWEEP_COLUMNS[2:] at row i."""
    return [[tau, a] + [float(getattr(rep, c)[i]) for c in SWEEP_COLUMNS[2:]]
            for i, tau in enumerate(taus.tolist())
            for a, rep in zip(accs.tolist(), reports)]
