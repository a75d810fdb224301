"""Error types shared across the package.

Contract violations (bad arguments, malformed text) raise plain
``ValueError``; the two classes here mark situations with more meaning.
"""


class NotInSubalgebraError(ValueError):
    """An element of the permutation algebra is not constant on some
    congruence class, so it cannot be rewritten in a class-sum basis.

    ``pair`` holds the offending class key in the target basis: a twin
    pair of unlabeled trees for ``P``, and a tuple with one such key per
    factor for a tensor.
    """

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class InternalInvariantError(RuntimeError):
    """A structural theorem the implementation relies on was falsified
    (non-complementary canopies from insertion, grafts of twin pairs that
    are not twin, an order-sum table without a join of some covers).
    Indicates a bug, not bad input.
    """
