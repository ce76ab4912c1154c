"""Exception hierarchy shared by every nama module."""


class NamaError(Exception):
    """Base class for all package-specific errors."""


# ---------------------------------------------------------------- polyhedra


class EmptyInput(NamaError):
    """An operation received zero input points."""


class DimensionUnsupported(NamaError):
    """Requested ambient dimension is outside the supported range."""


class DimensionMismatch(NamaError):
    """Operands live in different ambient dimensions."""


class DegenerateSpan(NamaError):
    """Base points do not affinely span the ambient space."""


# ---------------------------------------------------------------- toric


class DeltaMismatch(NamaError):
    """Operands are defined over different Newton polytopes."""


class WrongArity(NamaError):
    """A mixed operator received the wrong number of arguments."""


class EmptyLattice(NamaError):
    """The requested slope lattice contains no point of the polytope."""


class NotDominated(NamaError):
    """A candidate potential exceeds the function it must stay below."""


# ---------------------------------------------------------------- solver


class MassMismatch(NamaError):
    """Total target mass differs from the mass of the reference class."""


class ArityMismatch(NamaError):
    """A potential vector has the wrong length for its problem."""


class NotConverged(NamaError):
    """Iteration budget exhausted; carries the best iterate found.

    Attributes:
        solution: best `Solution` reached before giving up.
        iterations: number of iterations performed.
    """

    def __init__(self, solution, iterations):
        super().__init__(f"no convergence after {iterations} iterations")
        self.solution = solution
        self.iterations = iterations


# ---------------------------------------------------------------- curves


class SameVertex(NamaError):
    """Green functions need two distinct poles."""


class NotPsh(NamaError):
    """A graph potential has negative curvature mass somewhere.

    Attributes:
        witness: where ``omega + ddc(phi)`` is negative: a vertex index,
            or an (edge index, position) pair for an edge-interior atom.
    """

    def __init__(self, witness, value):
        where = (
            f"vertex {witness}" if isinstance(witness, int)
            else f"edge {witness[0]} at position {witness[1]}"
        )
        super().__init__(f"negative curvature mass {value} at {where}")
        self.witness = witness
        self.value = value


# ---------------------------------------------------------------- harness


class UnknownSuite(NamaError):
    """Requested check suite does not exist."""


class CandidateOutOfRange(NamaError):
    """A capacity candidate leaves the normalized band [-1, 0]."""


# ---------------------------------------------------------------- io


class ParseError(NamaError):
    """Instance text is not syntactically valid.

    Attributes:
        line: 1-based line number when known, else None.
    """

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
        self.message = message


class ValidationError(NamaError):
    """Instance is syntactically fine but semantically invalid.

    Attributes:
        field: dotted path of the offending field.
    """

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


# ---------------------------------------------------------------- internal


class ConsistencyError(NamaError):
    """An internal exactness certificate failed; indicates a bug."""
