"""Integer polynomials in the equivariant parameters w_1..w_n.

The ring S is the symmetric algebra of the weight lattice over Z; a weight in
fundamental-weight coordinates (a_1..a_n) is the linear polynomial
sum a_k w_k. Terms are a dict from exponent tuples to nonzero integers, so
equality, hashing-free comparison and byte-stable rendering are all exact.
"""

from __future__ import annotations

import re
from operator import add
from typing import Iterable, Mapping

from .rootsys import strict_int

_EXPONENTS = re.compile(r"[0-9]+(,[0-9]+)*")


def add_terms(pairs: Iterable[tuple], start: Mapping | None = None) -> dict:
    """Sum the values of (key, value) pairs by key, dropping every zero sum.

    `start` is copied, never changed. Values need only `+` and truth (int,
    SPoly); this is the one accumulate-and-drop-zeros loop of the package.
    """
    out = dict(start) if start else {}
    get = out.get
    for k, v in pairs:
        prev = get(k)
        if prev is not None:
            v = prev + v
        if v:
            out[k] = v
        elif prev is not None:
            del out[k]
    return out


class SPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int] | None = None):
        self.nvars = nvars
        self.terms: dict[tuple[int, ...], int] = {}
        if terms:
            for k, v in terms.items():
                if len(k) != nvars:
                    raise ValueError("exponent tuple has wrong length")
                if v:
                    self.terms[k] = v

    @classmethod
    def _of(cls, nvars: int, terms: dict) -> "SPoly":
        """Wrap `terms` as they are: a zero-free dict of nvars-long keys, such
        as add_terms returns from well-formed operands. Nothing is checked."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    def _same_arity(self, other: "SPoly") -> None:
        if other.nvars != self.nvars:
            raise ValueError(f"polynomials in {self.nvars} and {other.nvars} "
                             "variables do not combine")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "SPoly":
        return SPoly(nvars)

    @staticmethod
    def const(nvars: int, c: int) -> "SPoly":
        return SPoly(nvars, {(0,) * nvars: c})

    @staticmethod
    def one(nvars: int) -> "SPoly":
        return SPoly.const(nvars, 1)

    @staticmethod
    def var(nvars: int, k: int) -> "SPoly":
        """The variable w_k, 1-based."""
        return SPoly(nvars, {tuple(int(t == k - 1) for t in range(nvars)): 1})

    @staticmethod
    def weight(coords: Iterable[int]) -> "SPoly":
        coords = tuple(coords)
        n = len(coords)
        return SPoly._of(n, {(0,) * k + (1,) + (0,) * (n - 1 - k): c
                             for k, c in enumerate(coords) if c})

    # -- ring operations -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: "SPoly") -> "SPoly":
        if isinstance(other, int):
            other = SPoly.const(self.nvars, other)
        self._same_arity(other)
        return SPoly._of(self.nvars, add_terms(other.terms.items(), self.terms))

    def __neg__(self) -> "SPoly":
        return SPoly._of(self.nvars, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "SPoly") -> "SPoly":
        return self + (-other)

    def __mul__(self, other) -> "SPoly":
        if isinstance(other, int):
            if not other:
                return SPoly.zero(self.nvars)
            return SPoly._of(self.nvars, {k: v * other for k, v in self.terms.items()})
        self._same_arity(other)
        return SPoly._of(self.nvars, add_terms(
            (tuple(map(add, k1, k2)), v1 * v2)
            for k1, v1 in self.terms.items() for k2, v2 in other.terms.items()))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "SPoly":
        if e < 0:
            raise ValueError("negative power")
        if e == 0:
            return SPoly.one(self.nvars)
        out = self
        for _ in range(e - 1):
            out = out * self
        return out

    # -- inspection -------------------------------------------------------

    def degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def subst(self, images: list["SPoly"]) -> "SPoly":
        """Substitute w_k -> images[k-1]; images must share one variable count."""
        if len(images) != self.nvars:
            raise ValueError("substitution needs one image per variable")
        n_out = images[0].nvars if images else self.nvars
        pairs = []
        for k, v in self.terms.items():
            factors = [images[idx] ** e for idx, e in enumerate(k) if e]
            if not factors:
                pairs.append(((0,) * n_out, v))
                continue
            term = factors[0]
            for f in factors[1:]:
                term = term * f
            pairs.extend((m, c * v) for m, c in term.terms.items())
        return SPoly._of(n_out, add_terms(pairs))

    # -- rendering ---------------------------------------------------------

    def to_json(self) -> dict[str, int]:
        return {",".join(map(str, k)): self.terms[k] for k in sorted(self.terms)}

    @staticmethod
    def from_json(nvars: int, data: Mapping[str, int]) -> "SPoly":
        terms = {}
        for key, v in data.items():
            if key and not _EXPONENTS.fullmatch(key):
                raise ValueError("exponent key must be comma-separated "
                                 f"non-negative integers, got {key!r}")
            k = tuple(map(int, key.split(","))) if key else ()
            terms[k] = strict_int(v, "coefficient")
        return SPoly(nvars, terms)

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for k in sorted(self.terms, key=lambda t: (sum(t), t)):
            c = self.terms[k]
            factors = [f"w{i + 1}" + (f"^{e}" if e > 1 else "")
                       for i, e in enumerate(k) if e]
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            chunks.append(("- " if c < 0 else "+ ") + body)
        first = chunks[0].replace("+ ", "", 1) if chunks[0].startswith("+ ") \
            else "-" + chunks[0][2:]
        return " ".join([first] + chunks[1:])

    def __repr__(self) -> str:
        return f"SPoly({self.to_text()})"
