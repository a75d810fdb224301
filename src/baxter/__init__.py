"""Computations with the Baxter combinatorial family.

Words up to the Baxter monoid congruence, insertion into pairs of twin
binary search trees, the lattice of twin pairs, and the Hopf algebra
spanned by class sums inside the algebra of permutations, all with
exact rational arithmetic.
"""

from .errors import InternalInvariantError, NotInSubalgebraError
from .insertion import (
    baxter_representative,
    class_of_pair,
    is_twin_pair,
    max_perm,
    min_perm,
    p_shape,
    p_symbol,
    q_symbol,
)
from .lattice import (
    baxter_covers,
    baxter_join,
    baxter_leq,
    baxter_meet,
    enumerate_tbt,
    hasse,
    hasse_dot,
)
from .perms import (
    inverse,
    is_baxter,
    is_connected,
    permutohedron_covers,
    permutohedron_leq,
    weak_order_join,
    weak_order_meet,
)
from .trees import (
    LNode,
    Node,
    canopy,
    graft_over,
    graft_under,
    left_rotate,
    pair_str,
    parse_pair,
    parse_tree,
    right_rotate,
    tamari_leq,
    tamari_vector,
    tree_str,
)
from .words import (
    evaluation,
    parse_word,
    restrict,
    schuetzenberger,
    shifted_shuffle,
    shuffle,
    standardize,
    word_str,
)

__version__ = "0.1.0"

# The functions and classes imported above; the submodules that importing
# them binds here are not part of the star-import.
__all__ = [name for name in dir() if not name.startswith("_") and callable(globals()[name])]
