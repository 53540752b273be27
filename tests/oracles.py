"""Independent oracles for psi-class intersection numbers.

Nothing here imports kdvtau: these are the published recursions, written out
directly, so a test that compares them with the package compares routes that
share no code.

* `dvv(ks)`: <tau_{k_1} ... tau_{k_n}>_g by the Dijkgraaf-Verlinde-Verlinde
  (1991) recursion, seeded by <tau_0^3>_0 = 1 and <tau_1>_1 = 1/24.
* `genus0(ks)`: the genus-0 multinomial (n-3)! / prod k_i! for sum k_i = n-3.
* `valid_specs(budget)`: every sorted spec of genus >= 0 with
  sum (2 k_i + 1) <= budget.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def double_factorial(n: int) -> int:
    """n!! for odd n >= -1, with (-1)!! = 1."""
    return math.prod(range(n, 0, -2)) if n > 0 else 1


def genus_of(ks: tuple[int, ...]) -> int | None:
    """g with sum k_i = 3g - 3 + n, or None."""
    num = sum(ks) - len(ks) + 3
    if not ks or num < 0 or num % 3:
        return None
    return num // 3


@lru_cache(maxsize=None)
def dvv(ks: tuple[int, ...]) -> Fraction:
    """<tau_{k_1} ... tau_{k_n}>_g for a sorted spec (0 off the dimension constraint).

    With ks = S + (k+1,), k+1 the largest index:

        (2k+3)!! <tau_{k+1} tau_S>_g
          = sum_j (2k+2k_j+1)!!/(2k_j-1)!! <tau_{k+k_j} tau_{S\\j}>_g
          + 1/2 sum_{r+s=k-1} (2r+1)!!(2s+1)!! <tau_r tau_s tau_S>_{g-1}
          + 1/2 sum_{r+s=k-1} (2r+1)!!(2s+1)!! sum_{I+J=S} <tau_r tau_I> <tau_s tau_J>.
    """
    if genus_of(ks) is None:
        return Fraction(0)
    if ks == (0, 0, 0):
        return Fraction(1)
    if ks == (1,):
        return Fraction(1, 24)
    k, S = ks[-1] - 1, ks[:-1]
    if k < 0:
        return Fraction(0)
    total = Fraction(0)
    for j, kj in enumerate(S):
        rest = S[:j] + S[j + 1:]
        total += Fraction(double_factorial(2 * k + 2 * kj + 1), double_factorial(2 * kj - 1)) * dvv(
            tuple(sorted(rest + (k + kj,)))
        )
    for r in range(k):
        s = k - 1 - r
        weight = Fraction(double_factorial(2 * r + 1) * double_factorial(2 * s + 1), 2)
        split = Fraction(0)
        for mask in range(1 << len(S)):
            I = tuple(x for i, x in enumerate(S) if mask >> i & 1)
            J = tuple(x for i, x in enumerate(S) if not mask >> i & 1)
            split += dvv(tuple(sorted(I + (r,)))) * dvv(tuple(sorted(J + (s,))))
        total += weight * (dvv(tuple(sorted(S + (r, s)))) + split)
    return total / double_factorial(2 * k + 3)


def genus0(ks: tuple[int, ...]) -> Fraction:
    """<tau_{k_1} ... tau_{k_n}>_0 = (n-3)! / prod k_i! when sum k_i = n - 3."""
    n = len(ks)
    if n < 3 or sum(ks) != n - 3:
        return Fraction(0)
    return Fraction(math.factorial(n - 3), math.prod(math.factorial(k) for k in ks))


def valid_specs(budget: int) -> list[tuple[int, ...]]:
    """Sorted specs with a genus and sum (2 k_i + 1) <= budget."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], low: int, left: int) -> None:
        if genus_of(prefix) is not None:
            out.append(prefix)
        k = low
        while 2 * k + 1 <= left:
            rec(prefix + (k,), k, left - 2 * k - 1)
            k += 1

    rec((), 0, budget)
    return out
