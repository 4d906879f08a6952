"""Integer polynomials in the equivariant parameters w_1..w_n.

The ring S is the symmetric algebra of the weight lattice over Z; a weight in
fundamental-weight coordinates (a_1..a_n) is the linear polynomial
sum a_k w_k. Terms are a dict from exponent tuples to nonzero integers, so
equality, hashing-free comparison and byte-stable rendering are all exact.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .rootsys import strict_int


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
        return SPoly(n, {tuple(int(t == k) for t in range(n)): coords[k]
                         for k in range(n) if coords[k]})

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
        out = dict(self.terms)
        for k, v in other.terms.items():
            c = out.get(k, 0) + v
            if c:
                out[k] = c
            else:
                out.pop(k, None)
        return SPoly(self.nvars, out)

    def __neg__(self) -> "SPoly":
        return SPoly(self.nvars, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "SPoly") -> "SPoly":
        return self + (-other)

    def __mul__(self, other) -> "SPoly":
        if isinstance(other, int):
            if not other:
                return SPoly.zero(self.nvars)
            return SPoly(self.nvars, {k: v * other for k, v in self.terms.items()})
        out: dict[tuple[int, ...], int] = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                c = out.get(k, 0) + v1 * v2
                if c:
                    out[k] = c
                else:
                    out.pop(k, None)
        return SPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "SPoly":
        if e < 0:
            raise ValueError("negative power")
        out = SPoly.one(self.nvars)
        for _ in range(e):
            out = out * self
        return out

    # -- inspection -------------------------------------------------------

    def degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.nvars, 0)

    def as_int(self) -> int:
        """The value when every variable is specialized to zero must be everything."""
        if self.degree() > 0:
            raise ValueError("polynomial has positive-degree terms")
        return self.constant_term()

    def subst(self, images: list["SPoly"]) -> "SPoly":
        """Substitute w_k -> images[k-1]; images must share one variable count."""
        if len(images) != self.nvars:
            raise ValueError("substitution needs one image per variable")
        n_out = images[0].nvars if images else self.nvars
        out = SPoly.zero(n_out)
        for k, v in self.terms.items():
            term = SPoly.const(n_out, v)
            for idx, e in enumerate(k):
                if e:
                    term = term * images[idx] ** e
            out = out + term
        return out

    # -- rendering ---------------------------------------------------------

    def to_json(self) -> dict[str, int]:
        return {",".join(map(str, k)): self.terms[k] for k in sorted(self.terms)}

    @staticmethod
    def from_json(nvars: int, data: Mapping[str, int]) -> "SPoly":
        terms = {}
        for key, v in data.items():
            k = tuple(int(t) for t in key.split(",")) if key else ()
            terms[k] = strict_int(v, "coefficient")
        return SPoly(nvars, terms)

    def to_text(self, prefix: str = "w") -> str:
        if not self.terms:
            return "0"
        chunks = []
        for k in sorted(self.terms, key=lambda t: (sum(t), t)):
            c = self.terms[k]
            factors = [f"{prefix}{i + 1}" + (f"^{e}" if e > 1 else "")
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
