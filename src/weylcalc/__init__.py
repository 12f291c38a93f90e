"""Exact operator calculus for normal-ordered differential operators."""

from .coeffring import (
    CoeffRingError,
    Expr,
    MultiPoly,
    NotPolynomial,
    PolyRing,
    UnknownSymbol,
    ZeroDenominator,
    poly_gcd,
)

__all__ = [
    "CoeffRingError",
    "Expr",
    "MultiPoly",
    "NotPolynomial",
    "PolyRing",
    "UnknownSymbol",
    "ZeroDenominator",
    "poly_gcd",
]
