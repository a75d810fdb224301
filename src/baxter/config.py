"""Runtime size caps for the enumeration-heavy operations.

Everything in this package is exact and exhaustive, so costs grow fast
with the degree.  The caps below guard against accidental huge runs; they
are ordinary module attributes and may be raised at runtime, e.g.::

    import baxter.config
    baxter.config.ENUM_DEGREE_CAP = 8

A cached operation checks its cap before its cache (:func:`capped_cache`),
so an answer cached under a raised cap is refused once the cap is
lowered again.  :func:`check_enum_degree` also refuses a negative n.
"""

from functools import lru_cache, wraps

# Largest n for which twin-pair enumeration, lattice construction, and
# primitive-element extraction will run without complaint.
ENUM_DEGREE_CAP = 7

# Largest total degree accepted by products and coproducts in the
# class-sum bases (products walk lattice intervals; the P coproduct cuts
# every member of a class).
PRODUCT_DEGREE_CAP = 6


def check_enum_degree(n):
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > ENUM_DEGREE_CAP:
        raise ValueError(
            f"degree {n} exceeds ENUM_DEGREE_CAP={ENUM_DEGREE_CAP}; "
            "raise baxter.config.ENUM_DEGREE_CAP to allow this"
        )


def check_product_degree(n):
    if n > PRODUCT_DEGREE_CAP:
        raise ValueError(
            f"total degree {n} exceeds PRODUCT_DEGREE_CAP={PRODUCT_DEGREE_CAP}; "
            "raise baxter.config.PRODUCT_DEGREE_CAP to allow this"
        )


def capped_cache(check, maxsize=None):
    """Decorator: an ``lru_cache`` of ``maxsize`` entries whose every
    call, hits included, first passes ``check`` on the same positional
    and keyword arguments.  The wrapper keeps the cache's ``cache_info``
    and ``cache_clear``."""
    def decorate(fn):
        cached = lru_cache(maxsize=maxsize)(fn)

        @wraps(fn)
        def checked(*args, **kwargs):
            check(*args, **kwargs)
            return cached(*args, **kwargs)

        checked.cache_info, checked.cache_clear = cached.cache_info, cached.cache_clear
        return checked
    return decorate
