"""Block decomposition, scale counts, selection, and the thinned radii."""

from fractions import Fraction as F

import pytest

from dsextra import schedule
from dsextra.arith import exp_rational, log_bounds
from dsextra.errors import (
    CapExceededError,
    ConfigError,
    DomainError,
    PrecisionGuardError,
)
from dsextra.psi import PsiFunction, make_psi, normalize_psi
from dsextra.schedule import (
    block_bounds,
    block_of,
    scale_count,
    select_scale,
    thinned_psi,
)


# ---------------------------------------------------------------------------
# blocks

def test_block_bounds_base4():
    assert block_bounds(0) == (2, 16)
    assert block_bounds(1) == (16, 65536)
    # hi = 2^(4^3) = 2^64; the lo of each block is the previous hi
    assert block_bounds(2) == (65536, 1 << 64)


def test_block_bounds_base2():
    assert block_bounds(0, 2) == (2, 4)
    assert block_bounds(1, 2) == (4, 16)
    assert block_bounds(2, 2) == (16, 256)
    assert block_bounds(3, 2) == (256, 65536)


def test_block_bounds_cap_and_domain():
    with pytest.raises(CapExceededError):
        block_bounds(10, 4)     # exponent 4^11 overflows the cap
    with pytest.raises(DomainError):
        block_bounds(-1)
    with pytest.raises(DomainError):
        block_bounds(0, 1)


def test_block_of_partitions():
    assert block_of(1, 2) is None
    assert block_of(2, 2) == 0
    assert block_of(3, 2) == 0
    assert block_of(4, 2) == 1
    assert block_of(15, 2) == 1
    assert block_of(16, 2) == 2
    assert block_of(255, 2) == 2
    assert block_of(256, 2) == 3
    assert block_of(65535, 4) == 1
    assert block_of(65536, 4) == 2
    # consistency with the bounds over a full range
    for n in range(2, 3000):
        h = block_of(n, 2)
        lo, hi = block_bounds(h, 2)
        assert lo <= n < hi


# ---------------------------------------------------------------------------
# scale counts

def test_scale_count_values():
    assert scale_count(0, 3) == 1           # exact zero product, no enclosure
    assert scale_count(1, 3) == 4           # floor(3 * ln 4) = floor(4.158)
    assert scale_count(2, 3) == 8           # floor(6 * ln 4) = floor(8.317)
    assert scale_count(1, F(1, 10)) == 1    # floor(0.138) = 0, clamped to 1
    with pytest.raises(DomainError):
        scale_count(-1, 3)
    with pytest.raises(DomainError):
        scale_count(2, 0)


def test_scale_count_precision_guard():
    # continued-fraction convergent of ln 4: eps * ln 4 sits within 3.2e-21
    # of an integer, inside the 2^-64 floor guard at every precision
    eps = 40633044299010862123
    with pytest.raises(PrecisionGuardError):
        scale_count(1, eps)


# ---------------------------------------------------------------------------
# scale selection

def test_select_scale_tiny_block():
    psi = normalize_psi(make_psi("half", 40))
    report = select_scale(2, psi, 3, [(16, 18), (17, 19), (20, 30)], base=2)
    assert report.scale_count == 8
    assert report.chosen_k == 3
    assert report.pair_count == 3
    assert len(report.per_k_sums) == 8
    # S2 is k-independent
    assert len({s2 for _, _, s2 in report.per_k_sums}) == 1
    ks = [k for k, _, _ in report.per_k_sums]
    assert ks == list(range(1, 9))
    ratios = dict((k, s1 / s2) for k, s1, s2 in report.per_k_sums)
    assert min(ratios, key=lambda k: (ratios[k], k)) == 3


def test_select_scale_h0_single_pair():
    psi = normalize_psi(make_psi("half", 4))
    report = select_scale(0, psi, 3, [(2, 3)], base=2)
    assert report.scale_count == 1
    assert report.chosen_k == 1
    (k, s1, s2), = report.per_k_sums
    assert (k, s1) == (1, 0)    # scaled E_2 and E_3 are already disjoint
    assert s2 == F(1, 2) * F(2, 3)


def test_select_scale_empty_pairs_degenerates():
    psi = normalize_psi(make_psi("half", 300))
    report = select_scale(2, psi, 3, [], base=2)
    assert report.chosen_k == 1
    assert report.pair_count == 0


def test_select_scale_zero_s2_degenerates():
    # radii all drop to zero under normalization: S2 = 0
    psi = normalize_psi(PsiFunction(300, "table", base={17: F(1, 100), 19: F(1, 100)}))
    report = select_scale(2, psi, 3, [(17, 19)], base=2)
    assert report.chosen_k == 1
    assert all(s2 == 0 for _, _, s2 in report.per_k_sums)


def test_select_scale_rejects_bad_pairs():
    psi = normalize_psi(make_psi("half", 300))
    with pytest.raises(DomainError):
        select_scale(2, psi, 3, [(17, 17)], base=2)
    with pytest.raises(DomainError):
        select_scale(2, psi, 3, [(8, 17)], base=2)      # 8 below block lo
    with pytest.raises(DomainError):
        select_scale(2, psi, 3, [(17, 256)], base=2)    # 256 beyond block hi


# ---------------------------------------------------------------------------
# thinned radii

@pytest.fixture(scope="module")
def thinned_256():
    psi = normalize_psi(make_psi("half", 256))
    return psi, thinned_psi(psi, 3, {0: 1, 2: 6}, base=2)


def test_thinned_values_on_even_blocks(thinned_256):
    psi, star = thinned_256
    assert star.value(2) == F(1, 2) / exp_rational(1)     # h = 0 block
    assert star.value(3) == F(1, 2) / exp_rational(1)
    assert star.value(16) == F(1, 2) / exp_rational(6)    # h = 2 block
    assert star.value(255) == F(1, 2) / exp_rational(6)


def test_thinned_vanishes_off_even_blocks(thinned_256):
    psi, star = thinned_256
    assert star.value(1) == 0       # no block holds n = 1
    assert all(star.value(n) == 0 for n in range(4, 16))   # h = 1
    assert star.value(256) == 0     # h = 3
    assert star.generator == "thin:half"
    assert not star.normalized      # values are final, never re-normalized


def test_thinned_requires_normalized_input():
    with pytest.raises(DomainError):
        thinned_psi(make_psi("half", 50), 3, {0: 1}, base=2)


def test_thinned_rejects_missing_or_out_of_range_scale():
    psi = normalize_psi(make_psi("half", 256))
    with pytest.raises(ConfigError):
        thinned_psi(psi, 3, {0: 1}, base=2)               # h = 2 missing
    with pytest.raises(ConfigError):
        thinned_psi(psi, 3, {0: 1, 2: 9}, base=2)          # 9 > K(2) = 8
    with pytest.raises(ConfigError):
        thinned_psi(psi, 3, {0: 0, 2: 6}, base=2)          # k = 0 not allowed


def test_thinned_skips_zero_radii():
    # support shrinks with psi: dropped radii stay dropped
    psi = normalize_psi(PsiFunction(30, "table", base={2: F(1, 2), 17: F(1, 100)}))
    star = thinned_psi(psi, 3, {0: 1, 2: 6}, base=2)
    assert star.value(2) == F(1, 2) / exp_rational(1)
    assert star.value(17) == 0


def test_thinned_certifies_each_block_once(monkeypatch):
    # K(h) needs a log_bounds enclosure; block h = 2 holds 240 n
    calls = []

    def counting_log_bounds(*args):
        calls.append(args)
        return log_bounds(*args)

    monkeypatch.setattr(schedule, "log_bounds", counting_log_bounds)
    psi = normalize_psi(make_psi("half", 10_000))
    star = thinned_psi(psi, 3, {0: 1, 2: 6}, base=2)
    assert star.value(255) == F(1, 2) / exp_rational(6)
    assert len(calls) == 1
