import math

import pytest

from gggr.errors import CapExceededError
from gggr.partitions import (
    DEFAULT_CAP,
    Partition,
    conjugate,
    dominated,
    multiplicities,
    n_stat,
    partitions_of,
    weyl_centralizer_order,
)

# p(0)..p(20), OEIS A000041
PARTITION_COUNTS = [
    1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42,
    56, 77, 101, 135, 176, 231, 297, 385, 490, 627,
]


def test_counts_match_reference():
    for n in range(1, 21):
        assert len(partitions_of(n)) == PARTITION_COUNTS[n]


def test_enumeration_shape():
    """Every entry sums to n, is weakly decreasing, no duplicates."""
    for n in range(1, 13):
        parts = partitions_of(n)
        assert len(set(parts)) == len(parts)
        for la in parts:
            assert sum(la) == n
            assert all(a >= b for a, b in zip(la, la[1:]))
            assert all(p >= 1 for p in la)


def test_order_is_descending_lex():
    for n in range(1, 10):
        parts = partitions_of(n)
        assert parts[0] == Partition((n,))
        assert parts[-1] == Partition((1,) * n)
        assert parts == sorted(parts, reverse=True)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition((-1,))
    # a float, a character or a bool is refused, not truncated to an int
    for parts in [(2.5, 1), "21", (True,), (2, 1.0), (3, "1")]:
        with pytest.raises(ValueError, match="^parts must be integers, got "):
            Partition(parts)
    assert Partition(()) == ()
    assert Partition(x for x in (2, 1)) == (2, 1)


def test_cap():
    with pytest.raises(CapExceededError):
        partitions_of(DEFAULT_CAP + 1)
    assert len(partitions_of(DEFAULT_CAP)) == 5604


def test_n_stat_values():
    assert n_stat(Partition(())) == 0
    assert n_stat(Partition((3,))) == 0
    assert n_stat(Partition((2, 1))) == 1
    assert n_stat(Partition((1, 1, 1))) == 3
    assert n_stat(Partition((3, 2, 1))) == 4
    assert n_stat(Partition((1,) * 5)) == 10


def test_n_stat_of_conjugate():
    # n(la') = sum_i binom(la_i, 2)
    for n in range(1, 11):
        for la in partitions_of(n):
            assert n_stat(conjugate(la)) == sum(p * (p - 1) // 2 for p in la)


def test_conjugate_involution():
    for n in range(1, 11):
        for la in partitions_of(n):
            assert conjugate(conjugate(la)) == la
            assert sum(conjugate(la)) == n


def test_conjugate_values():
    assert conjugate(Partition((3, 1))) == Partition((2, 1, 1))
    assert conjugate(Partition((4,))) == Partition((1, 1, 1, 1))
    assert conjugate(Partition(())) == Partition(())


def test_dominance():
    # (3, 3) and (4, 1, 1) are incomparable: 3 < 4 but 6 > 5
    assert dominated((3, 3), (4, 2)) and not dominated((4, 2), (3, 3))
    assert not dominated((3, 3), (4, 1, 1)) and not dominated((4, 1, 1), (3, 3))
    assert dominated((1, 1, 1), (3,)) and not dominated((3,), (1, 1, 1))
    for n in range(1, 9):
        parts = partitions_of(n)
        for mu in parts:
            for la in parts:
                # conjugation reverses dominance, and the order refines it
                assert dominated(mu, la) == dominated(conjugate(la), conjugate(mu))
                if dominated(mu, la):
                    assert parts.index(la) <= parts.index(mu)


def test_multiplicities():
    assert multiplicities(Partition((3, 2, 2, 1))) == {3: 1, 2: 2, 1: 1}
    assert multiplicities(Partition(())) == {}


def test_weyl_centralizer_order():
    assert weyl_centralizer_order(Partition((1, 1, 1))) == 6
    assert weyl_centralizer_order(Partition((3,))) == 3
    assert weyl_centralizer_order(Partition((2, 1))) == 2
    assert weyl_centralizer_order(Partition((2, 2))) == 8
    # sizes of S_n conjugacy classes sum to n!
    for n in range(1, 9):
        total = sum(
            math.factorial(n) // weyl_centralizer_order(rho)
            for rho in partitions_of(n)
        )
        assert total == math.factorial(n)


def test_class_size_sum_identity():
    # sum over rho of 1/|W_rho| = 1, exactly
    from fractions import Fraction

    for n in range(1, 16):
        s = sum(Fraction(1, weyl_centralizer_order(rho)) for rho in partitions_of(n))
        assert s == 1


def test_partitions_of_refuses_a_negative_size():
    with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
        partitions_of(-1)


@pytest.mark.parametrize("n", [2.0, True, False])
def test_partitions_of_refuses_a_float_or_a_bool(n):
    with pytest.raises(ValueError) as info:
        partitions_of(n)
    assert str(info.value) == f"n must be an integer, got {n}"
