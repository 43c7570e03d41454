"""Sparse multivariate polynomials with exact integer coefficients.

Terms are kept as (coefficient, exponent-vector) pairs in graded
lexicographic order (total degree first, then lexicographic with the first
variable highest), with no zero coefficients and no duplicate exponent
vectors, so equal polynomials serialize to identical bytes.  A polynomial
is immutable and keeps its serialized text after the first `serialize()`.

Line format, one term per line: `<coefficient> <e_0> <e_1> ... <e_{n-1}>`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence


def _canonical(nvars: int, coeffs: Mapping[tuple[int, ...], int]):
    terms = []
    for exps, c in coeffs.items():
        if c == 0:
            continue
        if len(exps) != nvars or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent vector {exps} for {nvars} variables")
        terms.append((int(c), tuple(int(e) for e in exps)))
    terms.sort(key=lambda t: (sum(t[1]), t[1]), reverse=True)
    return tuple(terms)


@dataclass(frozen=True)
class PolynomialZZ:
    """Integer polynomial in nvars variables, canonical term order."""

    nvars: int
    terms: tuple[tuple[int, tuple[int, ...]], ...]

    @classmethod
    def from_dict(cls, nvars: int, coeffs: Mapping[tuple[int, ...], int]) -> "PolynomialZZ":
        return cls(nvars, _canonical(nvars, coeffs))

    @classmethod
    def zero(cls, nvars: int) -> "PolynomialZZ":
        return cls(nvars, ())

    @classmethod
    def constant(cls, nvars: int, c: int) -> "PolynomialZZ":
        return cls.from_dict(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], c: int = 1) -> "PolynomialZZ":
        return cls.from_dict(nvars, {tuple(exps): c})

    def _as_dict(self) -> dict[tuple[int, ...], int]:
        return {e: c for c, e in self.terms}

    def __add__(self, other: "PolynomialZZ") -> "PolynomialZZ":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        acc = self._as_dict()
        for c, e in other.terms:
            acc[e] = acc.get(e, 0) + c
        return PolynomialZZ.from_dict(self.nvars, acc)

    def __neg__(self) -> "PolynomialZZ":
        return PolynomialZZ(self.nvars, tuple((-c, e) for c, e in self.terms))

    def __sub__(self, other: "PolynomialZZ") -> "PolynomialZZ":
        return self + (-other)

    def __mul__(self, other: "PolynomialZZ") -> "PolynomialZZ":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        acc: dict[tuple[int, ...], int] = {}
        for c1, e1 in self.terms:
            for c2, e2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        return PolynomialZZ.from_dict(self.nvars, acc)

    def evaluate(self, values: Sequence[float]) -> float:
        if len(values) != self.nvars:
            raise ValueError(f"expected {self.nvars} values, got {len(values)}")
        total = 0.0
        for c, exps in self.terms:
            t = float(c)
            for v, e in zip(values, exps):
                if e:
                    t *= v**e
            total += t
        return total

    def serialize(self) -> str:
        # The instance is frozen, so its text is formatted once and kept
        # outside the dataclass fields (==, hash and repr do not see it).
        text = self.__dict__.get("_text")
        if text is None:
            # One %-template per polynomial formats a whole row in one call;
            # "%s" prints every int, float and bool exactly as str() does.
            row = "%s " + " ".join(["%s"] * self.nvars) + "\n"
            text = "".join([row % (c, *exps) for c, exps in self.terms])
            object.__setattr__(self, "_text", text)
        return text

    @classmethod
    def parse(cls, text: str) -> "PolynomialZZ":
        coeffs: dict[tuple[int, ...], int] = {}
        nvars = None
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) < 2:
                raise ValueError(f"bad term line: {line!r}")
            c, exps = int(fields[0]), tuple(int(f) for f in fields[1:])
            if nvars is None:
                nvars = len(exps)
            elif len(exps) != nvars:
                raise ValueError("inconsistent variable count between lines")
            if exps in coeffs:
                raise ValueError(f"duplicate exponent vector {exps}")
            coeffs[exps] = c
        if nvars is None:
            raise ValueError("empty polynomial text")
        return cls.from_dict(nvars, coeffs)
