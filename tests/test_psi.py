"""Radius function generators, the normalization rules, and table files."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsextra.errors import ConfigError, DomainError
from dsextra.psi import PsiFunction, make_psi, normalize_psi


def test_half_generator():
    psi = make_psi("half", 10)
    assert psi.value(1) == F(1, 2) and psi.value(10) == F(1, 2)
    assert not psi.normalized


def test_recip_generator():
    psi = make_psi("recip", 10)
    assert psi.value(1) == 1
    assert psi.value(7) == F(1, 7)


def test_primes_generator():
    psi = make_psi("primes:1/3", 20)
    assert psi.value(7) == F(1, 3)
    assert psi.value(8) == 0
    assert psi.value(1) == 0
    assert make_psi("primes:2", 10).value(5) == 2


def test_file_generator_roundtrip(tmp_path):
    table = tmp_path / "psi.csv"
    table.write_text("# n,num,den\n1,1,4\n3,2,3\n5,1,11\n")
    psi = make_psi(f"file:{table}", 6)
    assert psi.value(1) == F(1, 4)
    assert psi.value(3) == F(2, 3)
    assert psi.value(5) == F(1, 11)
    assert psi.value(2) == 0 and psi.value(6) == 0   # absent rows are zero


def test_file_generator_rejects_bad_tables(tmp_path):
    missing = tmp_path / "nope.csv"
    with pytest.raises(ConfigError):
        make_psi(f"file:{missing}", 5)
    dup = tmp_path / "dup.csv"
    dup.write_text("2,1,3\n2,1,4\n")
    with pytest.raises(ConfigError):
        make_psi(f"file:{dup}", 5)
    neg = tmp_path / "neg.csv"
    neg.write_text("2,-1,3\n")
    with pytest.raises(ConfigError):
        make_psi(f"file:{neg}", 5)
    junk = tmp_path / "junk.csv"
    junk.write_text("2,one,3\n")
    with pytest.raises(ConfigError):
        make_psi(f"file:{junk}", 5)


def test_make_psi_rejects_unknown_spec():
    with pytest.raises(ConfigError):
        make_psi("gauss", 5)
    with pytest.raises(ConfigError):
        make_psi("primes:x", 5)
    with pytest.raises(ConfigError):
        make_psi("primes:-1/2", 5)


def test_value_domain_checks():
    psi = make_psi("half", 5)
    with pytest.raises(DomainError):
        psi.value(0)
    with pytest.raises(DomainError):
        psi.value(6)
    with pytest.raises(DomainError):
        PsiFunction(0, "half")


def test_negative_table_value_raises():
    psi = PsiFunction(5, "table", base={2: F(-1, 3)})
    with pytest.raises(DomainError):
        psi.value(2)


# ---------------------------------------------------------------------------
# normalization

def test_normalize_clamps_and_drops():
    base = {1: F(3, 4), 2: F(2), 3: F(1, 4), 4: F(1, 5), 5: F(1, 5)}
    psi = normalize_psi(PsiFunction(5, "table", base=base))
    assert psi.value(1) == F(1, 2)         # clamp above 1/2
    assert psi.value(2) == F(1, 2)         # clamp, then 1/2 >= 1/2 kept
    assert psi.value(3) == 0               # 1/4 < 1/3 drops
    assert psi.value(4) == 0               # 1/5 < 1/4 drops
    assert psi.value(5) == F(1, 5)         # exactly 1/5: kept


def test_normalize_keeps_n1_clamped_only():
    # at n = 1 the drop rule would erase every radius; only the clamp applies
    psi = normalize_psi(PsiFunction(2, "table", base={1: F(1, 4), 2: F(1, 4)}))
    assert psi.value(1) == F(1, 4)
    assert psi.value(2) == 0               # 1/4 < 1/2 = 1/n drops


def test_normalize_boundary_cases():
    psi = normalize_psi(PsiFunction(4, "table", base={
        2: F(1, 2),     # exactly 1/2: kept
        3: F(1, 3),     # exactly 1/n: kept
        4: F(1, 5),     # below 1/n: dropped
    }))
    assert psi.value(2) == F(1, 2)
    assert psi.value(3) == F(1, 3)
    assert psi.value(4) == 0


def test_normalize_idempotent_and_shares_base():
    psi = make_psi("recip", 50)
    n1 = normalize_psi(psi)
    assert normalize_psi(n1) is n1
    assert n1.normalized
    assert [n1.value(n) for n in (1, 2, 49)] == [F(1, 2), F(1, 2), F(1, 49)]


@settings(max_examples=80)
@given(
    st.integers(min_value=1, max_value=400),
    st.fractions(min_value=0, max_value=3, max_denominator=100),
)
def test_normalize_never_increases(n, v):
    psi = normalize_psi(PsiFunction(n, "table", base={n: v}))
    w = psi.value(n)
    assert 0 <= w <= min(v, F(1, 2))
    assert w == 0 or w >= F(1, n) or n == 1
