"""Finite group theory on explicit operation tables: homomorphisms, direct
products, and the constructive factorization of finite abelian groups into
cyclic p-groups with verified uniqueness of the factor orders."""

from .core import (
    FiniteGroup,
    GroupAxiomError,
    check_group,
    cyclic,
    cyclic_group,
    subgroup,
    symmetric_group,
    validate_group,
)
from .errors import DomainError, ResourceError
from .gmaps import (
    GroupMap,
    classify,
    homomorphism_check,
    identity_map,
    map_from_function,
)
from .products import (
    direct_product,
    group_tuples,
    product_list_map,
    product_orders,
)
from .pgroup import (
    cyclicp,
    max_ord,
    p_groupp,
)
from .abelian import (
    AbelianFactorization,
    abelian_factorization,
)
from .uniqueness import (
    hits_diff,
    orders,
    permutationp,
    verify_unique_factorization,
)

# functions and classes only: the submodules bound by these imports stay
# reachable as attributes, not as exported names
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and callable(value)]
