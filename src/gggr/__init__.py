"""Exact symbolic computation with generalised Gelfand-Graev characters of
the finite general linear and unitary groups, with a brute-force group-theory
oracle for cross-checking."""

from .errors import CapExceededError, ContractError, NonExactDivisionError
from .green import GreenTable, green_table, verify_orthogonality
from .grouporders import (
    class_size,
    centralizer_dim,
    group_order,
    sgn_eps,
    torus_order,
    unipotent_centralizer_order,
)
from .kawanaka import (
    GGGRCharacter,
    VerificationReport,
    endo_dim,
    gggr_character,
    gggr_value,
    verify_theorem,
)
from .oracle import (
    FiniteField,
    OracleGroup,
    enumerate_group,
    gelfand_graev_inner,
    oracle_report,
    regular_rep_inner,
)
from .partitions import Partition, n_stat, partitions_of
from .polyring import RationalPoly, poly_from_json, poly_to_json, pretty
from .symfunc import (
    hall_littlewood_expand,
    kostka_foulkes,
    mn_character,
    x_poly,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "ContractError",
    "FiniteField",
    "GGGRCharacter",
    "GreenTable",
    "NonExactDivisionError",
    "OracleGroup",
    "Partition",
    "RationalPoly",
    "VerificationReport",
    "centralizer_dim",
    "class_size",
    "endo_dim",
    "enumerate_group",
    "gelfand_graev_inner",
    "gggr_character",
    "gggr_value",
    "green_table",
    "group_order",
    "hall_littlewood_expand",
    "kostka_foulkes",
    "mn_character",
    "n_stat",
    "oracle_report",
    "partitions_of",
    "poly_from_json",
    "poly_to_json",
    "pretty",
    "regular_rep_inner",
    "sgn_eps",
    "torus_order",
    "unipotent_centralizer_order",
    "verify_orthogonality",
    "verify_theorem",
    "x_poly",
]
