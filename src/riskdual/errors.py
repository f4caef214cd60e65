"""Exception types shared across the package."""


class RiskdualError(Exception):
    """Base class for every error raised by this package."""


class InputError(RiskdualError):
    """Malformed user input: config files, CSV data, breakpoints, shapes."""


class CapacityError(RiskdualError):
    """A configured size budget (cells, dense rows/columns, grid points)
    would be exceeded."""


class UnsupportedCellError(RiskdualError):
    """The operation needs a bounded cell in vertex form but the cell is
    unbounded or otherwise outside the supported geometry."""


class PartitionIncompatibleError(RiskdualError):
    """A function is not affine on the given cell: the cell straddles a
    slab boundary, a hinge, or the risk hyperplane."""


class SolverError(RiskdualError):
    """The LP engine failed to reach a certified answer: an iteration
    limit, a column-generation stop before a clean pricing sweep, or a
    status the caller cannot map.  Not an input error."""


class FactorizationError(SolverError):
    """Basis factorization failed inside the simplex engine."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        # estimated condition number of the offending basis, if known
        self.condition = condition


class ModelInfeasibleOnCell(RiskdualError):
    """No finite dual certificate exists on some cell, so the bound is
    +infinity (the objective grows along a recession direction of the cell)."""

    def __init__(self, message, cell_id=None):
        super().__init__(message)
        self.cell_id = cell_id
