"""Shared fixtures: the pin store, a few common psi functions and the
arc-set canonical-form check."""

import json
import math
import os
from fractions import Fraction
from pathlib import Path

import pytest

from dsextra import (
    CircleIntervalSet,
    DomainError,
    arith,
    circles,
    make_psi,
    normalize_psi,
)

PIN_PATH = Path(__file__).parent / "data" / "pins.json"


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def validate_arcs(s: CircleIntervalSet) -> None:
    """Raise DomainError unless s is in the canonical form of circles:
    arcs [l, r) with 0 <= l < r <= D, sorted and separated, D minimal."""
    d = s.denominator
    if d < 1:
        raise DomainError("nonpositive denominator")
    g = d
    prev_hi = None
    for l, r in s.ends:
        if not 0 <= l < r <= d:
            raise DomainError(f"arc ({l}, {r}) outside [0, {d}]")
        if prev_hi is not None and l <= prev_hi:
            raise DomainError("arcs out of order or not separated")
        prev_hi = r
        g = math.gcd(g, l, r)
    if s.ends and g != 1:
        raise DomainError("denominator not minimal")
    if not s.ends and d != 1:
        raise DomainError("empty set must have denominator 1")


class PinStore:
    """Regression pins: first run records, later runs assert exact equality.

    Values must be JSON-stable (strings, ints, bools, lists thereof);
    fractions travel as "num/den" strings.  DSEXTRA_REPIN=1 re-records
    every pin the run visits; pins not visited are left alone.
    """

    def __init__(self, path: Path):
        self.path = path
        self.repin = os.environ.get("DSEXTRA_REPIN") == "1"
        self.data = json.loads(path.read_text()) if path.exists() else {}
        self.dirty = False

    def check(self, key: str, value):
        if self.repin or key not in self.data:
            self.data[key] = value
            self.dirty = True
            return value
        assert self.data[key] == value, (
            f"pin {key!r}: recorded {self.data[key]!r}, observed {value!r} "
            f"(if the change is intended, re-record with DSEXTRA_REPIN=1)"
        )
        return value

    def flush(self):
        if self.dirty:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(
                json.dumps(self.data, indent=2, sort_keys=True) + "\n"
            )


@pytest.fixture(scope="session")
def pins():
    store = PinStore(PIN_PATH)
    yield store
    store.flush()


@pytest.fixture(scope="session")
def psi_half_300():
    return normalize_psi(make_psi("half", 300))


@pytest.fixture(scope="session")
def psi_recip_300():
    return normalize_psi(make_psi("recip", 300))


@pytest.fixture
def fresh_log_steps(monkeypatch):
    """An empty log_weight_integral step table for one test; the process's
    table comes back after it."""
    monkeypatch.setattr(arith, "_log_steps", (None, [0], [0], [0], [0]))


@pytest.fixture
def fresh_sieve(monkeypatch):
    """An empty prime list for one test; the process's list comes back
    after it."""
    monkeypatch.setattr(arith, "_primes", [])
    monkeypatch.setattr(arith, "_sieved", 2)


@pytest.fixture
def radius_checks(monkeypatch):
    """The list of n of every radius validation (circles._arc_radius) made
    during one test."""
    calls = []
    check = circles._arc_radius

    def counted(n, radius):
        calls.append(n)
        return check(n, radius)

    monkeypatch.setattr(circles, "_arc_radius", counted)
    return calls
