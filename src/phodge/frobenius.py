"""Complexes with a (semi)linear Frobenius structure.

The Frobenius is stored as a matrix per degree, read as a linear map from the
sigma-twisted complex; the honest additive action on a vector v is
phi(sigma(v)) with sigma applied entrywise.  With the identity automorphism
this is an ordinary chain self-map.  Twisting by n scales phi by p^n.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

from .complexes import Complex
from .errors import ValidationError
from .frames import CoefficientFrame
from .linalg import Matrix


def sigma_matrix(frame: CoefficientFrame, m: Matrix) -> Matrix:
    if frame.sigma_is_identity:
        return m
    return m.map_entries(frame.sigma)


class FrobeniusComplex:
    __slots__ = ("frame", "complex", "phi", "invertible_on_cohomology")

    def __init__(
        self,
        frame: CoefficientFrame,
        complex: Complex,
        phi: Dict[int, Matrix],
        *,
        require_invertible: bool = False,
        check: bool = True,
    ):
        phi = {int(n): m for n, m in phi.items()}
        for n in complex.dims:
            m = phi.get(n)
            if m is None:
                phi[n] = Matrix.zeros(complex.dim(n), complex.dim(n))
            elif m.rows != complex.dim(n) or m.cols != complex.dim(n):
                raise ValidationError(f"frobenius component at degree {n} has wrong shape")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "phi", phi)
        if check:
            for n in complex.dims:
                lhs = complex.diff(n) * self.phi_at(n)
                rhs = self.phi_at(n + 1) * sigma_matrix(frame, complex.diff(n))
                if lhs != rhs:
                    raise ValidationError(f"frobenius does not commute with d at degree {n}")
        inv = False
        if require_invertible:
            inv = all(
                self.induced_on_cohomology(n).rank == complex.cohomology(n).dim for n in complex.dims
            )
            if not inv:
                raise ValidationError("frobenius is not invertible on cohomology")
        object.__setattr__(self, "invertible_on_cohomology", inv)

    def __setattr__(self, *a):
        raise AttributeError("FrobeniusComplex is immutable")

    def phi_at(self, n: int) -> Matrix:
        m = self.phi.get(n)
        if m is None:
            return Matrix.zeros(self.complex.dim(n), self.complex.dim(n))
        return m

    def apply(self, n: int, vec) -> Tuple:
        """The additive Frobenius action phi(sigma(v)) in degree n."""
        if self.frame.sigma_is_identity:
            return self.phi_at(n).apply(vec)
        return self.phi_at(n).apply([self.frame.sigma(x) for x in vec])

    def induced_on_cohomology(self, n: int) -> Matrix:
        """Matrix of the induced action on chosen H^n representatives."""
        h = self.complex.cohomology(n)
        return h.class_matrix(self.phi_at(n) * sigma_matrix(self.frame, h.representatives))

    def eigenvalue_report(self, n: int) -> Dict[str, object]:
        """Exact eigenvalue data for the induced action; rational roots only
        when sigma is the identity."""
        m = self.induced_on_cohomology(n)
        report: Dict[str, object] = {"degree": n, "dimension": m.rows}
        if self.frame.sigma_is_identity and self.frame.extension is None:
            report["char_poly"] = [str(c) for c in m.char_poly()]
            report["rational_eigenvalues"] = [str(x) for x in m.rational_eigenvalues()]
        return report


def twist_frobenius(fc: FrobeniusComplex, n: int) -> FrobeniusComplex:
    """Scale the Frobenius by p^n degreewise."""
    factor = Fraction(fc.frame.p) ** n
    phi = {k: m.scale(factor) for k, m in fc.phi.items()}
    return FrobeniusComplex(fc.frame, fc.complex, phi, check=False)


def frobenius_on_cohomology(fc: FrobeniusComplex, n: int) -> Matrix:
    return fc.induced_on_cohomology(n)


def unit_frobenius(frame: CoefficientFrame) -> FrobeniusComplex:
    """The field in degree 0 with phi = sigma (matrix 1)."""
    return FrobeniusComplex(frame, Complex.single(0), {0: Matrix.identity(1)}, check=False)
