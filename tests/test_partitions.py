import math

import pytest

import gggr
import gggr.kawanaka as kawanaka
from gggr.errors import CapExceededError
from gggr.green import green_poly
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


def test_partition_of_a_partition_is_itself():
    # callers read every argument through Partition, so one already checked
    # is not checked again
    la = Partition((2, 1))
    assert Partition(la) is la
    assert type(Partition((2, 1))) is Partition and Partition((2, 1)) is not la


@pytest.mark.parametrize("parts", [(2, 1), (3,), ()])
def test_partition_prints_as_its_tuple(parts):
    # every message and report shows a partition as (2, 1), never wrapped
    la = Partition(parts)
    assert repr(la) == repr(parts) and str(la) == str(parts) and f"{la}" == f"{parts}"


def test_partition_and_its_tuple_share_a_cache_slot():
    kawanaka._endo_dim.cache_clear()
    kawanaka.endo_dim(Partition((2, 1)), 1)
    kawanaka._endo_dim((2, 1), 1)
    info = kawanaka._endo_dim.cache_info()
    assert (info.misses, info.hits) == (1, 1)


#: Each public function that takes partitions, called with its argument
#: under test from one tuple and valid partitions of 3 elsewhere (the
#: kawanaka ones are in test_values_refuse_a_tuple_that_is_no_partition).
PARTITION_READERS = {
    "torus_order": lambda p: gggr.torus_order(p, 1),
    "sgn_eps": lambda p: gggr.sgn_eps(p, -1),
    "centralizer_dim": gggr.centralizer_dim,
    "n_stat": n_stat,
    "class_size": lambda p: gggr.class_size(p, -1),
    "unipotent_centralizer_order": lambda p: gggr.unipotent_centralizer_order(p, 1),
    "green_poly-rho": lambda p: green_poly(p, (2, 1)),
    "green_poly-la": lambda p: green_poly((3,), p),
    "x_poly-rho": lambda p: gggr.x_poly(p, (2, 1)),
    "x_poly-la": lambda p: gggr.x_poly((3,), p),
    "mn_character-mu": lambda p: gggr.mn_character(p, (1, 1, 1)),
    "mn_character-rho": lambda p: gggr.mn_character((2, 1), p),
    "kostka_foulkes-mu": lambda p: gggr.kostka_foulkes(p, (1, 1, 1)),
    "kostka_foulkes-la": lambda p: gggr.kostka_foulkes((2, 1), p),
    "hall_littlewood_expand": gggr.hall_littlewood_expand,
}


@pytest.mark.parametrize("call", PARTITION_READERS.values(), ids=PARTITION_READERS)
def test_public_functions_read_partitions_through_partition(call):
    # a valid tuple works as its Partition does; any other is refused as
    # Partition refuses it, not misread or asked for .n
    assert call((2, 1)) == call(Partition((2, 1)))
    for parts, message in [
        ((1, 2), "parts must be weakly decreasing, got (1, 2)"),
        ((3, 0), "parts must be positive, got (3, 0)"),
    ]:
        with pytest.raises(ValueError) as info:
            call(parts)
        assert str(info.value) == message
