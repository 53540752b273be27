"""Independent oracles for psi-class intersection numbers and the loop-matrix layer.

Nothing here imports kdvtau: these are the published recursions and formulas,
written out directly, so a test that compares them with the package compares
routes that share no code.

* `dvv(ks)`: <tau_{k_1} ... tau_{k_n}>_g by the Dijkgraaf-Verlinde-Verlinde
  (1991) recursion, seeded by <tau_0^3>_0 = 1 and <tau_1>_1 = 1/24.
* `genus0(ks)`: the genus-0 multinomial (n-3)! / prod k_i! for sum k_i = n-3.
* `dijkgraaf(g)`: every two-point <tau_a tau_b>_g, by Dijkgraaf's closed
  two-point function.
* `valid_specs(budget)`: every sorted spec of genus >= 0 with
  sum (2 k_i + 1) <= budget.
* `conjugate(mu)`: the transposed partition, mu'_j = #{i : mu_i >= j}.
* `character(mu, rho)`: the symmetric-group character chi^mu(rho) by the
  Murnaghan-Nakayama recursion, the per-(mu, lam) route the rim-hook walk of
  `tau_truncated` replaced.
* `loop_blocks(a, b, depth)`, `loop_inverse(g)` and `closed_z(g, u, K, L)`:
  the loop matrix of a normalized point, its inverse U_k = -sum G_j U_{k-j}
  and the closed formula Z_{k,l} = -sum_{j<=k} G_j U_{k+l+1-j}, on nested
  lists of `Fraction`, one reduction per operation; `rows(block)` turns a
  4-tuple block into those lists.  `wk_cq(n)` gives the
  Witten-Kontsevich c_k and q_k from their closed forms.
* `v_matrices(size)`: V_{k,l} of the 3-spin R-matrix, as the quotient
  (R*(w) R(z) - I) / (w + z) solved block by block in `Fraction`s.
* `block_sum(terms, start)`: the per-product sum of integer 2x2 blocks
  start + sum c (a @ b), the package's kernel before it read sequences,
  and on it, one sum or product per entry, the lifted routines the
  package runs on running totals: `lifted_inverse`, `lifted_z_direct`,
  `lifted_z_recursive` and `lifted_quotient` (the division by x - sign y
  of N_{i,j} = ratios[i+j][i] left_i right_j, each quotient entry summed
  on its own).  They read plain tuples: the grades E_k, ratios[d][i] =
  E_d / (E_i E_{d-i}) and the lifted blocks E_k X_k.
* Graded-polynomial helpers only tests use: `graded_exp`, `graded_log`
  (the power series log(1 + x) = sum (-1)^(i+1) x^i / i), `pow_int`,
  `evaluate`, `degree_slice`.  They take any object with the `GradedPoly`
  interface (`kind`, `terms`, `bound`, arithmetic), so nothing is imported.
* `zhou_rescaled(row, col)`: Zhou's closed form for the rescaled
  coefficient B_{row,col}, written out term by term in `Fraction`s.
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


@lru_cache(maxsize=None)
def dijkgraaf(genus: int) -> tuple[Fraction, ...]:
    """<tau_a tau_b>_g for a = 0..3g-1, b = 3g-1-a, from Dijkgraaf's function

        sum <tau_a tau_b> x^a y^b
          = (exp((x^3+y^3)/24) sum_n n!/(2n+1)! (xy(x+y)/2)^n - 1) / (x + y).

    Its part of degree 3g - 1 is the numerator's part of degree 3g, a binary
    form sum_i c_i x^i y^(3g-i), divided by x + y: q_i = c_i - q_{i-1}.
    """
    c = [Fraction(-1 if genus == 0 else 0)] + [Fraction(0)] * (3 * genus)
    for n in range(genus + 1):
        j = genus - n  # (x^3+y^3)^j / (24^j j!) times n!/(2n+1)! x^n y^n (x+y)^n / 2^n
        scale = Fraction(math.factorial(n), math.factorial(2 * n + 1) * 2**n * 24**j * math.factorial(j))
        for i in range(j + 1):
            for k in range(n + 1):
                c[3 * i + n + k] += scale * math.comb(j, i) * math.comb(n, k)
    q: list[Fraction] = []
    for ci in c[:-1]:
        q.append(ci - (q[-1] if q else 0))
    if c[-1] != (q[-1] if q else 0):
        raise ArithmeticError("numerator not divisible by x + y")
    return tuple(q)


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


def conjugate(mu: tuple[int, ...]) -> tuple[int, ...]:
    """The conjugate partition: mu'_j = #{i : mu_i >= j}, j = 1..mu_1."""
    return tuple(sum(1 for p in mu if p >= j) for j in range(1, (mu[0] if mu else 0) + 1))


@lru_cache(maxsize=None)
def character(mu: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """chi^mu(rho): the irreducible character of S_n labelled by mu on the
    cycle type rho (|mu| = |rho| = n, both weakly decreasing).

    Murnaghan-Nakayama on beta-numbers: with beta_i = mu_i + l(mu) - i, a rim
    hook of size r is a beta-number b with b - r >= 0 not a beta-number, its
    removal replaces b by b - r, and its sign is (-1) to the number of
    beta-numbers strictly between.  Hooks of size rho_1 go first, so the
    memo key is mu with a suffix of rho.
    """
    if not rho:
        return 1
    r, rest = rho[0], rho[1:]
    top = len(mu) - 1
    beta = [p + top - i for i, p in enumerate(mu)]
    total = 0
    for i, b in enumerate(beta):
        c = b - r
        if c < 0 or c in beta:
            continue
        height = sum(1 for x in beta if c < x < b)
        moved = sorted(beta[:i] + [c] + beta[i + 1:], reverse=True)
        nu = tuple(x - (top - j) for j, x in enumerate(moved) if x > top - j)
        total += (-1) ** height * character(nu, rest)
    return total


def wk_cq(n: int) -> tuple[list[Fraction], list[Fraction]]:
    """c_k = (-1)^k (6k)! / (288^k (3k)! (2k)!) and q_k = (1+6k)/(1-6k) c_k, k < n."""
    f = math.factorial
    c = [Fraction((-1) ** k * f(6 * k), 288**k * f(3 * k) * f(2 * k)) for k in range(n)]
    return c, [Fraction(1 + 6 * k, 1 - 6 * k) * ck for k, ck in enumerate(c)]


def loop_blocks(a: list[Fraction], b: list[Fraction], depth: int) -> list[list[list[Fraction]]]:
    """G_k = [[a_2k, b_2k+1], [a_2k-1, b_2k]] for k <= depth, where a[i], b[i] are
    the coefficients of lam^-i of the spanning series (a_0 = b_0 = 1, b_1 = 0)."""
    return [[[a[2 * k], b[2 * k + 1]], [a[2 * k - 1] if k else Fraction(0), b[2 * k]]]
            for k in range(depth + 1)]


def rows(block) -> list:
    """A row-major 4-tuple block (a11, a12, a21, a22) as the nested lists used here."""
    return [list(block[:2]), list(block[2:])]


def _matmul(x, y):
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return [[a * e + b * g, a * f + b * h], [c * e + d * g, c * f + d * h]]


def _negsum(terms):
    """-(sum of the 2x2 blocks in terms)."""
    a = b = c = d = Fraction(0)
    for (p, q), (r, s) in terms:
        a, b, c, d = a - p, b - q, c - r, d - s
    return [[a, b], [c, d]]


def loop_inverse(g: list) -> list:
    """U_0..U_n of G^-1 for blocks g[0..n] with g[0] = I: G U = I termwise."""
    u = [[[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]]
    for k in range(1, len(g)):
        u.append(_negsum(_matmul(g[j], u[k - j]) for j in range(1, k + 1)))
    return u


def closed_z(g: list, u: list, max_k: int, max_l: int) -> list:
    """Z[k][l] = -sum_{j=0..k} G_j U_{k+l+1-j} for k <= max_k, l <= max_l and
    k + l + 1 < len(u): rows are cut short where U runs out."""
    return [[_negsum(_matmul(g[j], u[k + l + 1 - j]) for j in range(k + 1))
             for l in range(min(max_l + 1, len(u) - 1 - k))]
            for k in range(min(max_k + 1, len(u) - 1))]


def v_matrices(size: int) -> list:
    """V[k][l] for k, l <= size, from (R*(w) R(z) - I)/(w+z) = sum (-1)^(k+l) V_{k,l} w^k z^l.

    R_k = diag(q_k, c_k) at even k and [[0, -q_k], [-c_k, 0]] at odd k, and
    R*_k swaps the diagonal of R_k.  The quotient coefficient of w^k z^l is
    sum_{j<=l} (-1)^j R*_{k+1+j} R_{l-j}.
    """
    need = 2 * size + 1
    c, q = wk_cq(need + 1)
    zero = Fraction(0)
    r = [[[q[k], zero], [zero, c[k]]] if k % 2 == 0 else [[zero, -q[k]], [-c[k], zero]]
         for k in range(need + 1)]
    star = [[[x[1][1], x[0][1]], [x[1][0], x[0][0]]] for x in r]
    V = []
    for k in range(size + 1):
        row = []
        for l in range(size + 1):
            v = [[zero, zero], [zero, zero]]
            for j in range(l + 1):
                sign = (-1) ** (k + l + j)
                n = _matmul(star[k + 1 + j], r[l - j])
                v = [[v[a][b] + sign * n[a][b] for b in range(2)] for a in range(2)]
            row.append(v)
        V.append(row)
    return V


def block_sum(terms, start=(0, 0, 0, 0)) -> tuple:
    """start + sum c * (a @ b) over the terms (c, a, b), on integer blocks."""
    s11, s12, s21, s22 = start
    for c, (a11, a12, a21, a22), (b11, b12, b21, b22) in terms:
        s11 += c * (a11 * b11 + a12 * b21)
        s12 += c * (a11 * b12 + a12 * b22)
        s21 += c * (a21 * b11 + a22 * b21)
        s22 += c * (a21 * b12 + a22 * b22)
    return s11, s12, s21, s22


def _neg(block) -> tuple:
    return tuple(-v for v in block)


def lifted_inverse(x, ratios) -> tuple:
    """u_k = -sum_{j=1..k} ratios[k][j] x_j u_{k-j}, u_0 = I: the lift of X^-1."""
    u = [(1, 0, 0, 1)]
    for k in range(1, len(x)):
        u.append(_neg(block_sum((ratios[k][j], x[j], u[k - j]) for j in range(1, k + 1))))
    return tuple(u)


def lifted_z_direct(g, ratios, u, max_k: int, max_l: int) -> tuple:
    """z_{k,l} = -sum_{j=0..k} ratios[d][j] g_j u_{d-j}, d = k+l+1, one sum per entry."""
    return tuple(tuple(_neg(block_sum((ratios[k + l + 1][j], g[j], u[k + l + 1 - j]) for j in range(k + 1)))
                       for l in range(max_l + 1)) for k in range(max_k + 1))


def lifted_z_recursive(g, ratios, n: int) -> tuple:
    """The triangle z_{k,l}, k + l < n (row k holds l < n - k), by z_{k,0} = g_{k+1}
    and z_{k,l+1} = z_{k+1,l} - ratios[k+l+2][k+1] g_{k+1} z_{0,l}, one product
    per entry, column by column (column l is read by column l + 1)."""
    z = {(k, 0): g[k + 1] for k in range(n)}
    for l in range(n - 1):
        for k in range(n - 1 - l):
            z[k, l + 1] = block_sum(((-ratios[k + l + 2][k + 1], g[k + 1], z[0, l]),), z[k + 1, l])
    return tuple(tuple(z[k, l] for l in range(n - k)) for k in range(n))


def lifted_quotient(left, right, ratios, sign: int, size: int) -> tuple:
    """Divide N_{i,j} = ratios[i+j][i] left_i right_j ((i, j) != 0) by x - sign*y:
    (None, (s, sum_{i+j=s} sign^i N_{i,j})) at the first anti-diagonal s <= 2 size + 1
    whose sum is not zero, else (Q, None) with Q[k][l] = sum_{r<=l} sign^r N_{k+1+r,l-r}
    for k, l <= size; each N_{i,j} is one product, each Q[k][l] its own sum."""
    need = 2 * size + 1
    N = [[block_sum(((ratios[i + j][i], left[i], right[j]),)) for j in range(need + 1 - i)]
         for i in range(need + 1)]

    def signed(blocks):
        return tuple(map(sum, zip(*(b if r % 2 == 0 or sign > 0 else _neg(b) for r, b in enumerate(blocks)))))

    for s in range(1, need + 1):
        if any(total := signed(N[i][s - i] for i in range(s + 1))):
            return None, (s, total)
    return tuple(tuple(signed(N[k + 1 + r][l - r] for r in range(l + 1)) for l in range(size + 1))
                 for k in range(size + 1)), None


_VAR_DEGREE = {"theta": lambda j: j, "t": lambda k: 2 * k + 1}


def degree_slice(p, degree: int):
    """The terms of graded degree exactly `degree`, same bound."""
    w = _VAR_DEGREE[p.kind]
    kept = {m: c for m, c in p.terms.items() if sum(w(var) * exp for var, exp in m) == degree}
    return type(p)(p.kind, kept, p.bound)


def pow_int(p, e: int):
    """p^e for an integer e >= 0, by repeated products."""
    if e < 0:
        raise ValueError("negative powers are not defined here")
    out = type(p).const(p.kind, 1)
    for _ in range(e):
        out = out * p
    return out


def evaluate(p, values: dict[int, Fraction]) -> Fraction:
    """Plug exact values in for every variable that occurs."""
    total = Fraction(0)
    for mon, c in p.terms.items():
        prod = c
        for var, exp in mon:
            if var not in values:
                raise KeyError(f"no value supplied for variable {var}")
            prod *= Fraction(values[var]) ** exp
        total += prod
    return total


def graded_exp(p, degree: int | None = None):
    """exp of a polynomial with zero constant term, through `degree`."""
    if p.constant_term() != 0:
        raise ValueError("exp needs zero constant term")
    caps = [c for c in (p.bound, degree) if c is not None]
    if not caps:
        raise ValueError("an explicit degree cap is required to exponentiate an exact polynomial")
    cap = min(caps)
    x = p.truncate(cap)
    out = type(p).const(p.kind, 1, cap)
    power = type(p).const(p.kind, 1, cap)
    fact = 1
    i = 0
    mind = x.min_degree
    if mind is None:
        return out
    while (i + 1) * mind <= cap:
        i += 1
        fact *= i
        power = (power * x).truncate(cap)
        out = out + power.scale(Fraction(1, fact))
    return out


def graded_log(p, degree: int | None = None):
    """log of a polynomial with constant term 1, through `degree`, as the
    power series sum_i (-1)^(i+1) x^i / i in x = p - 1."""
    if p.constant_term() != 1:
        raise ValueError("log needs constant term 1")
    caps = [c for c in (p.bound, degree) if c is not None]
    if not caps:
        raise ValueError("an explicit degree cap is required for the log of an exact polynomial")
    cap = min(caps)
    x = (p - type(p).const(p.kind, 1)).truncate(cap)
    out = type(p).zero(p.kind, cap)
    power = type(p).const(p.kind, 1, cap)
    i = 0
    mind = x.min_degree
    if mind is None:
        return out
    while (i + 1) * mind <= cap:
        i += 1
        power = (power * x).truncate(cap)
        out = out + power.scale(Fraction((-1) ** (i + 1), i))
    return out


@lru_cache(maxsize=None)
def zhou_b(k: int) -> Fraction:
    """b_k = 2^k (6k+1)!! / (2k)!."""
    return Fraction(2**k * double_factorial(6 * k + 1), math.factorial(2 * k))


def zhou_B(n: int, x: int) -> Fraction:
    """B_n(x) = (1/6) sum_{j=1}^{n} 108^j b_{n-j} (x+n)_[j-1]."""
    total = Fraction(0)
    for j in range(1, n + 1):
        falling = math.prod(x + n - i for i in range(j - 1))
        total += 108**j * zhou_b(n - j) * falling
    return total / 6


def zhou_rescaled(row: int, col: int) -> Fraction:
    """B_{row,col} = sqrt(-2)^(row+col+1) A^Z_{row,col} from Zhou's closed form

        A^Z_{3m-1,3n} = A^Z_{3m-3,3n+2} = (-1)^n     P(m, n) (B_n(m) + b_n/(6m+1)),
        A^Z_{3m-2,3n+1}                 = (-1)^(n+1) P(m, n) (B_n(m) + b_n/(6m-1)),
        P(m, n) = (-sqrt(-2)/144)^(m+n) (6m+1)!!/(2(m+n))!
                  prod_{j=0}^{n-1} (m+j) prod_{j=1}^{n} (2m+2j-1),

    and A^Z = 0 off row + col = 2 (mod 3).  The powers of sqrt(-2) add up
    to an even exponent e, giving (-2)^(e/2); an odd one raises."""
    family = (row % 3, col % 3)
    if family == (2, 0):
        m, n, sign, shift = (row + 1) // 3, col // 3, (-1) ** (col // 3), 1
    elif family == (0, 2):
        m, n, sign, shift = row // 3 + 1, (col - 2) // 3, (-1) ** ((col - 2) // 3), 1
    elif family == (1, 1):
        m, n, sign, shift = (row + 2) // 3, (col - 1) // 3, (-1) ** ((col - 1) // 3 + 1), -1
    else:
        return Fraction(0)
    e = row + col + 1 + m + n
    if e % 2:
        raise ValueError(f"odd power of sqrt(-2) at ({row},{col})")
    P = Fraction(
        (-1) ** (m + n) * double_factorial(6 * m + 1)
        * math.prod(m + j for j in range(n)) * math.prod(2 * m + 2 * j - 1 for j in range(1, n + 1)),
        144 ** (m + n) * math.factorial(2 * (m + n)),
    )
    return (-2) ** (e // 2) * sign * P * (zhou_B(n, m) + zhou_b(n) / (6 * m + shift))
