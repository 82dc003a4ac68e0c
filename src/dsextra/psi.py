"""Approximation radius functions psi: {1..n_max} -> Q (nonnegative).

A PsiFunction is a lazily evaluated table over a generator tag plus an
optional explicit base table (file-backed or constructed).  Normalization
applies the clamp/drop rules once, after which the invariant is: every
value is 0 or lies in [1/n, 1/2] (for n = 1 the drop rule is vacuous, see
normalize_psi).
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from .arith import is_prime
from .errors import ConfigError, DomainError

class PsiFunction:
    """Radius table n -> psi(n) on 1..n_max, lazily filled from a generator."""

    __slots__ = ("n_max", "generator", "normalized", "_param", "_base", "_cache")

    def __init__(
        self,
        n_max: int,
        generator: str,
        base: dict[int, Fraction] | None = None,
        param: Fraction | None = None,
        normalized: bool = False,
    ):
        if n_max < 1:
            raise DomainError("psi needs n_max >= 1")
        self.n_max = n_max
        self.generator = generator
        self.normalized = normalized
        self._param = param
        self._base = base if base is not None else {}
        self._cache: dict[int, Fraction] = {}

    def _raw(self, n: int) -> Fraction:
        v = self._base.get(n)
        if v is not None:
            return v
        kind = self.generator.split(":", 1)[0]
        if kind == "half":
            return Fraction(1, 2)
        if kind == "recip":
            return Fraction(1, n)
        if kind == "primes":
            return self._param if is_prime(n) else Fraction(0)
        return Fraction(0)  # table-backed: absent means zero

    def value(self, n: int) -> Fraction:
        if not 1 <= n <= self.n_max:
            raise DomainError(f"psi defined on 1..{self.n_max}, asked for {n}")
        v = self._cache.get(n)
        if v is None:
            v = self._raw(n)
            if v < 0:
                raise DomainError(f"negative psi({n}) = {v}")
            if self.normalized:
                v = _normalize_value(n, v)
            self._cache[n] = v
        return v

    def __repr__(self) -> str:
        return (
            f"PsiFunction({self.generator!r}, n_max={self.n_max}, "
            f"normalized={self.normalized})"
        )


def _normalize_value(n: int, v: Fraction) -> Fraction:
    if v < 0:
        raise DomainError(f"negative psi({n}) = {v}")
    half = Fraction(1, 2)
    if v > half:
        v = half
    # Drop rule: radii below 1/n carry no full arc and are zeroed.  At
    # n = 1 the literal rule (v < 1 -> 0) would erase every admissible
    # radius, so the clamp alone applies there.
    if n >= 2 and 0 < v < Fraction(1, n):
        return Fraction(0)
    return v


def normalize_psi(psi: PsiFunction) -> PsiFunction:
    """Clamp values above 1/2 down to 1/2 and drop values below 1/n to 0.

    Idempotent; never increases a value; support only shrinks.
    """
    if psi.normalized:
        return psi
    return PsiFunction(
        psi.n_max,
        psi.generator,
        base=psi._base,
        param=psi._param,
        normalized=True,
    )


def make_psi(spec: str, n_max: int) -> PsiFunction:
    """Build a PsiFunction from a generator spec string.

    Specs: `half` (psi = 1/2), `recip` (psi(n) = 1/n), `primes:R`
    (radius R on primes, else 0), `file:PATH` (lines `n,num,den`).
    """
    kind, _, arg = spec.partition(":")
    if kind == "half" or kind == "recip":
        if arg:
            raise ConfigError(f"generator {kind} takes no parameter")
        return PsiFunction(n_max, kind)
    if kind == "primes":
        try:
            param = Fraction(arg)
        except (ValueError, ZeroDivisionError) as e:
            raise ConfigError(f"bad primes radius {arg!r}: {e}") from e
        if param < 0:
            raise ConfigError("primes radius must be >= 0")
        return PsiFunction(n_max, spec, param=param)
    if kind == "file":
        return PsiFunction(n_max, spec, base=_load_table(arg))
    raise ConfigError(f"unknown psi generator {spec!r}")


def _load_table(path: str) -> dict[int, Fraction]:
    table: dict[int, Fraction] = {}
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"psi table file not found: {path}")
    for lineno, line in enumerate(p.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [x.strip() for x in line.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"{path}:{lineno}: expected `n,num,den`")
        try:
            n = int(parts[0])
            v = Fraction(int(parts[1]), int(parts[2]))
        except (ValueError, ZeroDivisionError) as e:
            raise ConfigError(f"{path}:{lineno}: {e}") from e
        if n < 1:
            raise ConfigError(f"{path}:{lineno}: n must be >= 1")
        if v < 0:
            raise ConfigError(f"{path}:{lineno}: psi must be >= 0")
        if n in table:
            raise ConfigError(f"{path}:{lineno}: duplicate entry for n = {n}")
        table[n] = v
    return table
