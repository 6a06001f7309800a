"""The one check of a number or an array, and the diagnostics' quantiles.

``checked_integer``, ``checked_real``, ``checked_positive`` and
``checked_fraction`` check a number by name, ``checked_alpha`` a
miscoverage level, ``checked_dimension`` the order
of a (d, d) matrix and ``check_memory`` any matrix's size, and
``checked_reals`` turns every array from outside into floats, checked by
name, dtype and shape, whose first bad entry ``check_entries`` names; the
module imports nothing from the package, so every module can call them.

The quantiles call the ``scipy.special`` functions that ``scipy.stats``
wraps, so the package never loads ``scipy.stats`` and its import cost:
Student's t inverts with ``stdtrit`` and the chi-square with
``gammaincinv`` (the bodies of ``t.ppf`` and ``chi2.ppf``, bit for bit).
The discrete binomial quantile is pinned to the exact "smallest k with
CDF(k) >= q" convention that the order-statistic intervals require; it
bisects over k on the CDF ``betaincc(k + 1, n - k, p)``, the regularized
incomplete beta form of the binomial CDF.  All three quantiles are cached,
keyed by type too, so 3.0 or True never reads the entry of 3 or 1: an
interval's critical values depend only on N, alpha and p.
"""

from __future__ import annotations

import bisect
import functools
import math
import numbers
import os
from typing import Optional

import numpy as np
from scipy import special


def checked_integer(name: str, value, minimum: int, maximum: Optional[int] = None) -> int:
    """Returns ``value`` as a plain int; the one check of an integer setting.

    Raises a ``ValueError`` naming ``name`` for a bool, a value that is not
    an integer (a string, a float, None, ...) or one outside
    [minimum, maximum].
    """
    # int first: the ABC check costs a microsecond, and most values are ints
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be at most {maximum}, got {value}")
    return value


def checked_real(name: str, value) -> float:
    """Returns ``value`` as a plain float; the one check of a real setting.

    Raises a ``ValueError`` naming ``name`` for a bool, a value that is not
    a real number, or a non-finite one.  Ranges stay with each caller.
    """
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def checked_positive(name: str, value) -> float:
    """``checked_real`` for a budget, scale or coefficient that must be positive."""
    value = checked_real(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def checked_fraction(name: str, value) -> float:
    """``checked_real`` for a level or cutoff that must lie in (0, 1)."""
    value = checked_real(name, value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value}")
    return value


def checked_alpha(value) -> float:
    """``checked_fraction`` for ``alpha``, the miscoverage level of a two-sided
    interval, refused too at 2**-53 or below, where 1 - alpha/2 rounds to 1."""
    alpha = checked_fraction("alpha", value)
    if 1.0 - alpha / 2.0 == 1.0:
        raise ValueError(f"alpha must exceed 2**-53 (about 1.1e-16), so that 1 - alpha/2 "
                         f"is below 1, got {alpha}")
    return alpha


def checked_reals(name: str, value, shape: Optional[tuple] = None) -> np.ndarray:
    """Returns ``value`` as a float array; the one check of an array from outside.

    Raises a ``ValueError`` naming ``name`` unless it holds integers or floats
    (not bools, complex numbers, strings or objects) and, given ``shape``, has
    that shape, where a None axis takes any length.
    """
    array = np.asarray(value)
    if array.dtype.kind not in "fiu":
        raise ValueError(f"{name} must hold integers or floats, got dtype {array.dtype}")
    if shape is not None and (array.ndim != len(shape) or any(
            n not in (None, m) for n, m in zip(shape, array.shape))):
        wanted = str(tuple("any" if n is None else n for n in shape)).replace("'", "")
        raise ValueError(f"{name} must have shape {wanted}, got shape {array.shape}")
    return array.astype(float, copy=False)


def check_entries(name: str, values: np.ndarray, good: np.ndarray, wanted: str = "finite"):
    """The one refusal of an array's first entry where ``good`` is False, on one
    line: ``NAME must be WANTED, got V at coordinate I`` (``at (I, J)`` in a
    matrix), or, given one mark per row, ``got [row] in row I (counting from 0)``."""
    bad = np.argwhere(~good)
    if bad.size:
        at = tuple(int(i) for i in bad[0])
        got = (f"{values[at].tolist()} in row {at[0]} (counting from 0)" if good.ndim < values.ndim
               else f"{values[at]} at " + (f"coordinate {at[0]}" if len(at) == 1 else str(at)))
        raise ValueError(f"{name} must be {wanted}, got {got}")


def checked_dimension(name: str, value) -> int:
    """``checked_integer`` for the dimension d >= 1 of a (d, d) float matrix,
    held to ``check_memory``."""
    d = checked_integer(name, value, 1)
    check_memory(f"{name} {d}", (d, d))
    return d


def check_memory(what: str, shape: tuple, count: int = 1):
    """Refuses, before they are allocated, ``count`` float matrices of ``shape``
    whose 8 bytes an entry exceed this machine's physical memory, naming
    ``what`` and the bytes."""
    needed = 8 * count * math.prod(shape)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if needed > memory:
        held = f"one {shape} matrix" if count == 1 else f"{count} {shape} matrices"
        raise ValueError(f"{what} needs {needed:,} bytes for {held}, "
                         f"more than the {memory:,} bytes of this machine's memory")


@functools.lru_cache(maxsize=256, typed=True)
def student_t_quantile(p: float, df: int) -> float:
    """Quantile of Student's t distribution with ``df`` degrees of freedom.

    Args:
        p: Probability level in (0, 1).
        df: Degrees of freedom, at least 1.

    Returns:
        The value q with P(T <= q) = p.
    """
    p, df = checked_fraction("p", p), checked_integer("df", df, 1)
    return float(special.stdtrit(df, p))


@functools.lru_cache(maxsize=256, typed=True)
def chi_square_quantile(p: float, df: int) -> float:
    """Quantile of the chi-square distribution with ``df`` degrees of freedom."""
    p, df = checked_fraction("p", p), checked_integer("df", df, 1)
    return float(2 * special.gammaincinv(df / 2, p))


@functools.lru_cache(maxsize=256, typed=True)
def binomial_quantile(q: float, n: int, p: float) -> int:
    """Smallest integer k in [0, n] with Binomial(n, p) CDF(k) >= q.

    Args:
        q: Probability level in (0, 1).
        n: Number of trials, at least 1.
        p: Success probability in [0, 1].
    """
    q, n, p = checked_fraction("q", q), checked_integer("n", n, 1), checked_real("p", p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p == 0.0:
        return 0
    if p == 1.0:
        return n
    # CDF(n) = 1 >= q, so only k < n is searched, where CDF(k) is the
    # regularized incomplete beta I_{1-p}(n - k, k + 1)
    return bisect.bisect_left(range(n), True,
                              key=lambda k: special.betaincc(k + 1, n - k, p) >= q)


def sample_quantile(samples: np.ndarray, p: float) -> float:
    """Empirical p-quantile using the lower order statistic X_(ceil(N p)).

    Args:
        samples: (N,) vector; pass one column of an (N, d) ensemble.
        p: Probability level in (0, 1).
    """
    p, x = checked_fraction("p", p), checked_reals("samples", samples, (None,))
    if x.size < 1:
        raise ValueError(f"need a non-empty sample vector, got shape {x.shape}")
    n = x.size
    rank = max(1, math.ceil(n * p))
    return float(np.sort(x)[rank - 1])

