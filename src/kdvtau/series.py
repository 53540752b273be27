"""Truncated formal Laurent series in 1/lam, and truncated 2x2-block series.

A `LaurentSeries` is a finite collection of exact rational coefficients
together with an explicit validity window.  The polynomial head (exponents
>= 0) is always finite and exact; tail coefficients are exact down to
lam^(-tail_order).  Coefficients below the window are *unknown* -- they are
never silently treated as zero, and asking for one raises
`InsufficientDepthError`.  A `tail_order` of None means the series is exact
at every order (a finite Laurent polynomial).

A series has no arithmetic: it is read coefficient by coefficient
(`coeff`), and written and read as JSON.  The callers that combine series
do it on the coefficients and state the window they certify:
`grassmann.build_G` puts a point in normal form while it interleaves the
loop matrix, the c/q and Kac-Schwarz verifiers sum over the stored
exponents, and `series_inverse` inverts a unit series through its window.
The window of a truncated product, min(O_a - h_b, O_b - h_a, O_a + O_b + 1)
with h the top exponent occupied (`_product_window`), is the rule
`schur.GradedPoly` propagates its degree bound by: the first unknown
coefficient of one factor (at lam^(-O-1)) meets the other factor's top term
or first unknown coefficient.

A 2x2 block is the row-major 4-tuple (a11, a12, a21, a22): integers on a
graded lift (`IntBlock`), exact `Fraction`s once `lower` reduces it
(`Block`), printed by `format_block`.  A `MatrixSeries` is the dense block
counterpart of a series: the blocks of x^0..x^O with no head and X_0 = I,
for the loop matrix G(lam) (x = 1/lam), its inverse, and the 3-spin R(z)
(x = z).  It is stored once, as its graded integer lift: one integer scale
E_k per grade, with E_i E_j dividing E_{i+j}, so that E_k X_k, E_k U_k for
the inverse U, and every sum of block products whose grades add up to k are
integer blocks.  The inverse is solved in these integers when first read.
A prefix X_0..X_m of a series (`MatrixSeries.prefix`) shares its grades,
and reads its ratios and inverse off the whole series, solved there once.
A table of blocks of grade k+l+1 (`grassmann.ZTable`: the Z table of G, or
the V table of the 3-spin R) is built on a series and keeps it, convolving
integer blocks with no gcd per rational add or multiply.  Every convolution
goes through one kernel, `block_sums`: the running totals of
sum c_i (a_i @ b_i) over three sequences, one call per entry (an inverse
block, a product checked in an identity) or per anti-diagonal whose entries
are running totals of one sum (the closed formula, the recursion's sweep,
the quotients below).  A block is reduced only when it is read, by a caller
or for the text of a failed check, which is computed on the lift and then
lowered.  Both bivariate quotients, (I - G(alpha) G(beta)^-1)/(alpha - beta)
for Z and (R*(w) R(z) - I)/(w + z) for V, are one division on the lift
(`linear_quotient`).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import cached_property

from .errors import InsufficientDepthError, NonUnitError, NotNormalizedError
from .exactnum import (Record, RationalLike, _setattr, as_rational, check_rational, format_rational,
                       parse_rational)

__all__ = [
    "LaurentSeries",
    "MatrixSeries",
    "series_inverse",
    "matrix_series_inverse",
    "IntBlock",
    "Block",
    "lower",
    "format_block",
    "block_sums",
    "linear_quotient",
    "series_to_json",
    "series_from_json",
]


_ZERO = Fraction(0)  # the shared zero coefficient, so a read of a missing term builds no Fraction


def _order_min(*orders: int | None) -> int | None:
    """Minimum of truncation orders, with None acting as +infinity."""
    finite = [o for o in orders if o is not None]
    return min(finite) if finite else None


def _product_window(
    bound_a: int | None, low_a: int | None, bound_b: int | None, low_b: int | None
) -> int | None:
    """Window of a product of factors known through `bound` (None: exact)
    whose lowest stored term is at `low` (None: no term), on the scale where
    unknown terms start at bound + 1 (-exponent for a `LaurentSeries`, degree
    for a `GradedPoly`); None if the product is exact."""
    candidates = []
    if bound_a is not None:
        if low_b is not None:
            candidates.append(bound_a + low_b)
        if bound_b is not None:
            candidates.append(bound_a + bound_b + 1)
    if bound_b is not None and low_a is not None:
        candidates.append(bound_b + low_a)
    return min(candidates) if candidates else None


class LaurentSeries(Record):
    """Sparse exact Laurent series with explicit truncation bookkeeping.

    coeffs holds (exponent, value) pairs, sorted by exponent, zeros dropped.
    tail_order O means coefficients of lam^e are known exactly for all
    e >= -O; None means known at every order.
    """

    __slots__ = ("coeffs", "tail_order", "__dict__")

    def __init__(self, coeffs: tuple[tuple[int, Fraction], ...], tail_order: int | None) -> None:
        _setattr(self, "coeffs", coeffs)
        _setattr(self, "tail_order", tail_order)

    @classmethod
    def from_dict(
        cls, data: Mapping[int, RationalLike], tail_order: int | None
    ) -> "LaurentSeries":
        items = []
        for e, v in data.items():
            v = as_rational(v)
            if v == 0:
                continue
            if tail_order is not None and e < -tail_order:
                raise ValueError(
                    f"coefficient at lam^{e} lies below the validity window "
                    f"(tail_order={tail_order})"
                )
            items.append((e, v))
        items.sort()
        if tail_order is not None and tail_order < 0:
            raise ValueError("tail_order must be >= 0 or None")
        return cls(tuple(items), tail_order)

    @cached_property
    def _map(self) -> dict[int, Fraction]:
        return dict(self.coeffs)

    def is_known(self, e: int) -> bool:
        return self.tail_order is None or e >= -self.tail_order

    def coeff(self, e: int) -> Fraction:
        """Exact coefficient of lam^e; error if e is below the window."""
        if not self.is_known(e):
            raise InsufficientDepthError(
                f"coefficient of lam^{e} is beyond tail_order {self.tail_order}"
            )
        return self._map.get(e, _ZERO)

    @property
    def max_exponent(self) -> int | None:
        """Top occupied exponent, None for the (stored-)zero series."""
        return self.coeffs[-1][0] if self.coeffs else None


def series_inverse(a: LaurentSeries, order: int | None = None) -> LaurentSeries:
    """Inverse of a series with constant term 1 and no positive powers.

    The product of a and its inverse is 1 through the retained window.
    For an exact input (tail_order None) the target `order` must be given,
    since the inverse generally has infinitely many terms.
    """
    if a.max_exponent is not None and a.max_exponent > 0:
        raise NonUnitError("series with positive powers of lam cannot be inverted here")
    if a.coeff(0) != 1:
        raise NonUnitError(f"constant term must be 1, got {format_rational(a.coeff(0))}")
    order = _order_min(a.tail_order, order)
    if order is None:
        raise NonUnitError("an explicit target order is required to invert an exact series")
    inv = [Fraction(1)] + [Fraction(0)] * order
    for k in range(1, order + 1):
        s = Fraction(0)
        for j in range(1, k + 1):
            aj = a._map.get(-j, Fraction(0))
            if aj:
                s += aj * inv[k - j]
        inv[k] = -s
    return LaurentSeries.from_dict({-k: v for k, v in enumerate(inv)}, order)


def series_to_json(s: LaurentSeries, tail_order: int | None = None) -> dict:
    """JSON form {"head": [[e, "p/q"], ...], "tail_order": O, "tail": [...]}.

    head lists the exponents > 0; tail[k] is the coefficient of lam^-k for
    k = 0..O.  An exact series needs an explicit serialization order.
    """
    order = s.tail_order if tail_order is None else tail_order
    if order is None:
        order = max(0, -(s.coeffs[0][0] if s.coeffs else 0))
    if s.tail_order is not None and order > s.tail_order:
        raise InsufficientDepthError(
            f"cannot serialize to order {order} beyond tail_order {s.tail_order}"
        )
    head = [[e, format_rational(v)] for e, v in s.coeffs if e > 0]
    tail = [format_rational(s.coeff(-k)) for k in range(order + 1)]
    return {"head": head, "tail_order": order, "tail": tail}


def series_from_json(data: object, name: str = "series", through: int | None = None) -> LaurentSeries:
    """Inverse of `series_to_json`, for the series called `name` in its file.

    The file must state every coefficient it certifies: a tail of exactly
    tail_order + 1 entries, and head exponents that are positive and distinct
    (the tail holds lam^0 and below).  Every field and every coefficient text
    is checked, in time linear in its length, and an error names the field
    (`a.tail_order`, `a.head[0]`, `a.tail[1]`): TypeError for a value of the
    wrong JSON type, ValueError otherwise.  Only the head and the tail through
    lam^-through are parsed (`through` None: the whole tail), and the series
    is cut there, so a coefficient that is never read costs no parse.
    """
    if not isinstance(data, dict):
        raise TypeError(f"{name}: expected an object with fields head, tail_order and tail, "
                        f"got {type(data).__name__}")
    for field in ("tail_order", "tail"):
        if field not in data:
            raise ValueError(f"missing field {name}.{field}")
    order = _json_int(data["tail_order"], f"{name}.tail_order")
    head, tail = data.get("head", []), data["tail"]
    if not isinstance(head, list):
        raise TypeError(f'{name}.head: expected a list of [exponent, "p/q"] pairs, got {head!r}')
    if not isinstance(tail, list):  # a string would be read character by character
        raise TypeError(f'{name}.tail: expected a list of "p/q" strings, got {tail!r}')
    if len(tail) != order + 1:
        raise ValueError(f"{name}.tail has {len(tail)} entries, tail_order {order} needs {order + 1}")
    texts: dict[int, str] = {}
    for i, pair in enumerate(head):
        where = f"{name}.head[{i}]"
        if not (isinstance(pair, list) and len(pair) == 2):
            raise TypeError(f'{where}: expected an [exponent, "p/q"] pair, got {pair!r}')
        e = _json_int(pair[0], where)
        if e <= 0 or e in texts:
            raise ValueError(f"{where}: exponent {e} is not positive or is repeated")
        texts[e] = _json_text(pair[1], where)
    for k, text in enumerate(tail):
        texts[-k] = _json_text(text, f"{name}.tail[{k}]")
    if through is not None:
        order = min(order, through)
    return LaurentSeries.from_dict({e: parse_rational(t) for e, t in texts.items() if e >= -order}, order)


def _json_int(value: object, where: str) -> int:
    if type(value) is not int:  # rejects floats, strings and bools
        raise TypeError(f"{where}: expected an integer, got {value!r}")
    return value


def _json_text(value: object, where: str) -> str:
    """A coefficient's "p/q" text, checked but not parsed."""
    if not isinstance(value, str):
        raise TypeError(f'{where}: expected a "p/q" string, got {value!r}')
    try:
        return check_rational(value)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


# ---------------------------------------------------------------------------
# 2x2 matrices and matrix-valued series
# ---------------------------------------------------------------------------


IntBlock = tuple[int, int, int, int]  # (a11, a12, a21, a22) of an integer 2x2 block
Block = tuple[Fraction, Fraction, Fraction, Fraction]  # the same layout, exact entries


def lower(block: IntBlock, scale: int) -> Block:
    """The exact block `block` / scale (E_d for a block of grade d) as a
    4-tuple of `Fraction`s, each entry reduced once."""
    return tuple(Fraction(n, scale) if n else _ZERO for n in block)


def format_block(block: Iterable[RationalLike]) -> str:
    """A block (a11, a12, a21, a22) as "[[a11, a12], [a21, a22]]", entries "p/q"."""
    a11, a12, a21, a22 = map(format_rational, block)
    return f"[[{a11}, {a12}], [{a21}, {a22}]]"


class MatrixSeries(Record):
    """Truncated series X = I + X_1 x + ... + X_O x^O of 2x2 blocks, kept as its
    graded integer lift, one scale per grade.

    x is lam^-1 for the loop matrix G(lam) and its inverse, and z for the
    3-spin R(z).  grades[k] = E_k with E_0 = 1 and
    E_k = lcm(den X_k, E_j E_{k-j} : 1 <= j <= k/2), so E_i E_j divides
    E_{i+j}; lifted[k] = E_k X_k is an integer block, and
    ratios[d][i] = E_d / (E_i E_{d-i}) is an exact integer.  A block of
    grade d (X_d, the inverse block U_d, Z_{k,l} with d = k+l+1, a product of
    two blocks whose grades add up to d) is carried as E_d times itself: the
    product of lifted blocks of grades i and j, times ratios[i+j][i], is the
    lift of the product, so sums of products stay in the integers.  Two
    blocks of one grade are equal when their lifts are, so identities of
    that grade are checked on the integers; a block is reduced, by `lower`,
    only to be read.  On a point with integer coefficients every E_k is 1.

    Every block through x^O is exact; block(k) beyond the window raises
    `InsufficientDepthError`.
    """

    __slots__ = ("grades", "lifted", "__dict__")

    def __init__(self, grades: tuple[int, ...], lifted: tuple[IntBlock, ...]) -> None:
        _setattr(self, "grades", grades)
        _setattr(self, "lifted", lifted)

    @classmethod
    def from_blocks(cls, blocks: Iterable[tuple[RationalLike, ...]]) -> "MatrixSeries":
        """The lift of the exact blocks X_0, X_1, ... (4-tuples of ints or
        `Fraction`s); requires X_0 = I."""
        x0, *rest = blocks
        if x0 != (1, 0, 0, 1):
            raise NotNormalizedError(f"leading block must be the identity, got {format_block(x0)}")
        grades, lifted = [1], [(1, 0, 0, 1)]
        for k, entries in enumerate(rest, 1):
            e = math.lcm(*(v.denominator for v in entries))
            for j in range(1, k // 2 + 1):
                p = grades[j] * grades[k - j]
                if e % p:
                    e = math.lcm(e, p)
            grades.append(e)
            lifted.append(tuple(v.numerator * (e // v.denominator) for v in entries))
        return cls(tuple(grades), tuple(lifted))

    @property
    def tail_order(self) -> int:
        return len(self.grades) - 1

    def block(self, k: int) -> Block:
        """Coefficient block of x^k (errors beyond the window)."""
        if not 0 <= k <= self.tail_order:
            raise InsufficientDepthError(
                f"block {k} requested, series known through block {self.tail_order}"
            )
        return lower(self.lifted[k], self.grades[k])

    def blocks(self, through: int) -> list[Block]:
        return [self.block(k) for k in range(through + 1)]

    def prefix(self, order: int) -> "MatrixSeries":
        """The series X_0..X_order, on the same grades, with `ratios` and
        `inverse` the prefixes of this series' (each solved at most once, on
        this series, when a prefix first reads it); `order` = tail_order
        gives this series itself."""
        if not 0 <= order <= self.tail_order:
            raise InsufficientDepthError(
                f"prefix through block {order} requested, series known through block {self.tail_order}"
            )
        if order == self.tail_order:
            return self
        view = MatrixSeries(self.grades[: order + 1], self.lifted[: order + 1])
        vars(view)["_whole"] = self  # not a field: equality and hash ignore it
        return view

    @cached_property
    def ratios(self) -> tuple[tuple[int, ...], ...]:
        """ratios[d][i] = E_d / (E_i E_{d-i}), for i = 0..d."""
        if whole := vars(self).get("_whole"):
            return whole.ratios[: len(self.grades)]
        E, out = self.grades, []
        for d, e in enumerate(E):
            half = [e // (E[i] * E[d - i]) for i in range(d // 2 + 1)]
            out.append(tuple(half + half[: (d + 1) // 2][::-1]))
        return tuple(out)

    @cached_property
    def inverse(self) -> tuple[IntBlock, ...]:
        """u_k = E_k U_k for the inverse U = X^-1, on the grades of X: from
        X U = I, u_k = -sum_{j=1..k} (E_k / (E_j E_{k-j})) x_j u_{k-j}, one
        `block_sums` call per block."""
        if whole := vars(self).get("_whole"):
            return whole.inverse[: len(self.grades)]
        x, ratios, u = self.lifted, self.ratios, [(1, 0, 0, 1)]
        for k in range(1, len(x)):
            s11, s12, s21, s22 = block_sums(ratios[k][1:], x[1:], u[::-1])[-1]
            u.append((-s11, -s12, -s21, -s22))
        return tuple(u)


def block_sums(
    coeffs: Sequence[int], left: Sequence[IntBlock], right: Sequence[IntBlock],
    start: IntBlock = (0, 0, 0, 0),
) -> list[IntBlock]:
    """The running totals start + sum_{i<=n} coeffs[i] (left[i] @ right[i]),
    n = 0, 1, ..., over the zipped sequences (as long as the shortest), on
    integer blocks: one call per entry, or per anti-diagonal whose entries
    are the running totals of one sum."""
    s11, s12, s21, s22 = start
    out = []
    for c, (a11, a12, a21, a22), (b11, b12, b21, b22) in zip(coeffs, left, right):
        s11 += c * (a11 * b11 + a12 * b21)
        s12 += c * (a11 * b12 + a12 * b22)
        s21 += c * (a21 * b11 + a22 * b21)
        s22 += c * (a21 * b12 + a22 * b22)
        out.append((s11, s12, s21, s22))
    return out


def linear_quotient(
    left: Sequence[IntBlock], right: Sequence[IntBlock], ratios: Sequence[Sequence[int]], sign: int, size: int
) -> tuple:
    """Divide N = L(x) R(y) - I by x - sign*y (sign = +1 or -1) on a graded lift.

    left[i] and right[j] are integer blocks on grades E with
    left[0] = right[0] = I, and ratios[d][i] = E_d / (E_i E_{d-i}), so that
    N_{i,j} = ratios[i+j][i] left[i] right[j] ((i, j) != (0, 0)) is the
    lifted coefficient of x^i y^j, of grade i+j.  Each anti-diagonal
    s = 1..2 size + 1 is one `block_sums` call, from i = s down to 0, whose
    running totals are the suffix sums S_s(k) = sum_{i>k} sign^i N_{i,s-i}.
    At the first s whose anti-diagonal sum S_s(-1) is not zero (no quotient)
    the result is (None, (s, that sum)); else it is (Q, None),
    Q[k][l] = sum_{r<=l} sign^r N_{k+1+r,l-r} = sign^(k+1) S_{k+l+1}(k)
    (grade k+l+1) for k, l <= size, the coefficient of x^k y^l; this needs
    left and right through 2 size + 1.
    """
    Q = [[] for _ in range(size + 1)]
    for s in range(1, 2 * size + 2):
        coeffs = ratios[s] if sign > 0 else [-c if (s - m) % 2 else c for m, c in enumerate(ratios[s])]
        totals = block_sums(coeffs, left[s::-1], right)  # ratios[s] is a palindrome
        if any(totals[-1]):
            return None, (s, totals[-1])
        for k in range(max(0, s - 1 - size), min(size, s - 1) + 1):
            total = totals[s - k - 1]
            Q[k].append(total if sign > 0 or k % 2 else tuple(-v for v in total))
    return tuple(map(tuple, Q)), None


def matrix_series_inverse(G: MatrixSeries, order: int | None = None) -> MatrixSeries:
    """Inverse of G = I + G_1/lam + ... as I + sum U_k lam^-k, through
    lam^-order (default and upper limit: the window of G), on the grades of G.

    G * U = I is solved block-recursively, U_0 = I and
    U_k = -sum_{j=1..k} G_j U_{k-j}, once per loop matrix
    (`MatrixSeries.inverse`); no block is reduced until it is read.
    """
    order = G.tail_order if order is None else min(G.tail_order, order)
    return MatrixSeries(G.grades[: order + 1], G.inverse[: order + 1])
