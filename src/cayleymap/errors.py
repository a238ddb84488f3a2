"""Exception types raised by the numerical kernels, and raise_if, the one
compare-and-raise step of every numerical decision that fails loudly.

Everything derives from CayleyMapError so callers (and the CLI, which maps
these to exit code 3) can catch mathematical precondition failures without
swallowing programming errors.
"""


class CayleyMapError(Exception):
    """Base class for mathematical precondition / degeneracy failures; value and
    threshold are the numbers compared when raise_if raised it, else None."""

    value = threshold = None


def raise_if(failed, error, what: str, value, threshold) -> None:
    """If failed, the caller's own test (so NaN decides as it does there), raise
    error("<what> <value> > threshold <threshold>"), with < where value is below,
    carrying both numbers as floats; what ends with the compared quantity."""
    if failed:
        value, threshold = float(value), float(threshold)
        exc = error(f"{what} {value:.2e} {'<' if value < threshold else '>'} threshold {threshold:.2e}")
        exc.value, exc.threshold = value, threshold
        raise exc


class SingularMatrix(CayleyMapError):
    """Matrix singular: a solve or inverse met a zero pivot, or an eigenvalue vanishes."""


class ConvergenceFailure(CayleyMapError):
    """The underlying eigensolver did not converge."""


class DegenerateInput(CayleyMapError):
    """Operation undefined for this input (e.g. roots of the zero polynomial)."""


class DegenerateForm(CayleyMapError):
    """Trace form is singular on the given basis: no Cayley map exists."""


class NotEquivariant(CayleyMapError):
    """Conjugation by the element does not preserve the spanned algebra."""


class ClusterAmbiguity(CayleyMapError):
    """Eigenvalue gaps straddle the clustering tolerance; caller must adjust."""


class NotASubalgebra(CayleyMapError):
    """Selected basis subset is not closed under the commutator."""


class IncompatibleAlgebras(CayleyMapError):
    """Combinator applied to representations of different Lie algebras."""


class NotProportional(CayleyMapError):
    """Trace forms are not scalar multiples of each other."""


class DimensionMismatch(CayleyMapError):
    """Operands live in Clifford algebras over different vector spaces."""


class NotInSpin(CayleyMapError):
    """Element fails the spin-group membership conditions."""


class NotSkew(CayleyMapError):
    """Matrix is not skew-symmetric within tolerance."""


class SingularShift(CayleyMapError):
    """1 + b is singular, so the classical Cayley transform is undefined."""
