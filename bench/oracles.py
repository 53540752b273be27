"""Output checkers for the benchmark, written without any code from kdvtau.

Each checker takes what the program printed and returns None when the output
is right, or a one-line reason when it is not.  The math is re-derived here
from first principles:

* intersection numbers from the Dijkgraaf-Verlinde-Verlinde recursion
  together with the string equation;
* affine coordinates by row-reducing the frame lam^(2k) a, lam^(2k+1) b of a
  point into the normal form w_n = lam^n + sum_m A[m, n] lam^(-m-1);
* tau coefficients on lines t_k = c_k x^(2k+1) from Giambelli minors of the
  exported table and numeric Jacobi-Trudi determinants (hook-length
  formula on the t_0 line);
* initial data from the univariate log of tau restricted to the t_0 line.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import factorial

# ---------------------------------------------------------------------------
# small exact helpers
# ---------------------------------------------------------------------------


def odd_double_factorial(n: int) -> int:
    """(n)!! for odd n >= -1, with (-1)!! = 1."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    m = [list(r) for r in rows]
    n = len(m)
    out = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            out = -out
        p = m[col][col]
        out *= p
        for r in range(col + 1, n):
            f = m[r][col] / p
            if f:
                for c in range(col + 1, n):
                    m[r][c] -= f * m[col][c]
    return out


def partitions(n: int, largest: int | None = None):
    """Partitions of n as weakly decreasing tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def conjugate(mu: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for p in mu if p > j) for j in range(mu[0])) if mu else ()


def hook_dimension(mu: tuple[int, ...]) -> int:
    """f^mu, the number of standard Young tableaux, by the hook-length formula."""
    conj = conjugate(mu)
    hooks = 1
    for i, row in enumerate(mu):
        for j in range(row):
            hooks *= (row - j - 1) + (conj[j] - i - 1) + 1
    return factorial(sum(mu)) // hooks


def giambelli(mu: tuple[int, ...], table: dict[tuple[int, int], Fraction]) -> Fraction:
    """A_mu = (-1)^(sum of legs) det(A[arm_i, leg_j]) over the diagonal hooks."""
    conj = conjugate(mu)
    rank = sum(1 for i, p in enumerate(mu) if p > i)
    arms = [mu[i] - i - 1 for i in range(rank)]
    legs = [conj[i] - i - 1 for i in range(rank)]
    rows = [[table.get((a, b), Fraction(0)) for b in legs] for a in arms]
    return (-1) ** sum(legs) * det(rows)


# ---------------------------------------------------------------------------
# intersection numbers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def wk_correlator(ks: tuple[int, ...]) -> Fraction:
    """<tau_k1 ... tau_kn>_g with g fixed by sum k = 3g - 3 + n (0 if none)."""
    ks = tuple(sorted(ks))
    n = len(ks)
    top = sum(ks) - n + 3
    if n == 0 or top < 0 or top % 3:
        return Fraction(0)
    if ks == (0, 0, 0):
        return Fraction(1)
    if ks == (1,):
        return Fraction(1, 24)
    if ks[0] == 0:  # string equation
        rest = ks[1:]
        return sum(
            (wk_correlator(rest[:j] + (k - 1,) + rest[j + 1:]) for j, k in enumerate(rest) if k),
            Fraction(0),
        )
    # DVV:  (2a+1)!! <tau_a tau_K>_g = sum_j (2k_j+2a-1)!!/(2k_j-1)!! <.. tau_{k_j+a-1} ..>_g
    #   + 1/2 sum_{r+s=a-2} (2r+1)!!(2s+1)!! [<tau_r tau_s tau_K>_{g-1}
    #                                         + sum_{I+J=K} <tau_r tau_I> <tau_s tau_J>]
    a, rest = ks[-1], ks[:-1]
    total = Fraction(0)
    for j, k in enumerate(rest):
        w = Fraction(odd_double_factorial(2 * k + 2 * a - 1), odd_double_factorial(2 * k - 1))
        total += w * wk_correlator(rest[:j] + (k + a - 1,) + rest[j + 1:])
    for r in range(a - 1):
        s = a - 2 - r
        w = Fraction(odd_double_factorial(2 * r + 1) * odd_double_factorial(2 * s + 1), 2)
        split = wk_correlator((r, s) + rest)
        for mask in range(1 << len(rest)):
            left = tuple(k for i, k in enumerate(rest) if mask >> i & 1)
            right = tuple(k for i, k in enumerate(rest) if not mask >> i & 1)
            split += wk_correlator((r,) + left) * wk_correlator((s,) + right)
        total += w * split
    return total / odd_double_factorial(2 * a + 1)


def check_intersect(spec: tuple[int, ...], out: bytes) -> str | None:
    doc = json.loads(out)
    if doc.get("spec") != sorted(spec):
        return f"spec {doc.get('spec')} != {sorted(spec)}"
    genus = (sum(spec) - len(spec) + 3) // 3
    if doc.get("genus") != genus:
        return f"genus {doc.get('genus')} != {genus}"
    want = wk_correlator(tuple(spec))
    if Fraction(doc["value"]) != want:
        return f"value {doc['value']} != {want} for {spec}"
    return None


# ---------------------------------------------------------------------------
# affine coordinates from a point
# ---------------------------------------------------------------------------


def affine_from_point(a: list[Fraction], b: list[Fraction], max_m: int, max_n: int) -> dict:
    """A[m, n] for m <= max_m, n <= max_n; a[k], b[k] are the lam^-k coefficients.

    w_n starts from lam^n a (n even) or lam^n b (n odd) and has the
    positive powers lam^(n-1) .. lam^0 cancelled by the earlier w_j.
    """
    lowest = -max_m - 1
    basis: list[dict[int, Fraction]] = []
    for n in range(max_n + 1):
        src = a if n % 2 == 0 else b
        if len(src) <= n - lowest:
            raise ValueError(f"point tail too short for A[{max_m}, {n}]")
        w = {n - k: src[k] for k in range(n - lowest + 1) if src[k]}
        for j in range(n - 1, -1, -1):
            f = w.get(j, 0)
            if f:
                for e, v in basis[j].items():
                    w[e] = w.get(e, 0) - f * v
        basis.append(w)
    return {
        (m, n): v
        for n, w in enumerate(basis)
        for m in range(max_m + 1)
        if (v := w.get(-m - 1, 0))
    }


def wk_series(count: int) -> tuple[list[Fraction], list[Fraction]]:
    """Tails of the Witten-Kontsevich point: a = sum c_k lam^-3k, b = sum q_k lam^-3k."""
    a = [Fraction(0)] * count
    b = [Fraction(0)] * count
    for k in range(0, (count + 2) // 3):
        c = Fraction((-1) ** k * factorial(6 * k), 288**k * factorial(3 * k) * factorial(2 * k))
        a[3 * k] = c
        b[3 * k] = c * Fraction(1 + 6 * k, 1 - 6 * k)
    return a, b


def parse_table(doc: dict) -> dict[tuple[int, int], Fraction]:
    table = {}
    for m, n, v in doc["entries"]:
        value = Fraction(v)
        if value == 0 or (m, n) in table:
            raise ValueError(f"entry ({m}, {n}) is zero or repeated")
        table[(m, n)] = value
    return table


def diff_tables(got: dict, want: dict, label: str) -> str | None:
    for key in sorted(set(got) | set(want)):
        if got.get(key, 0) != want.get(key, 0):
            return f"{label} A{list(key)} = {got.get(key, 0)}, expected {want.get(key, 0)}"
    return None


# ---------------------------------------------------------------------------
# tau on a line
# ---------------------------------------------------------------------------


def tau_on_line(terms: list, c: list[Fraction], degree: int) -> list[Fraction]:
    """Coefficients of x^0..x^degree of an exported tau under t_k = c_k x^(2k+1)."""
    out = [Fraction(0)] * (degree + 1)
    for mon, v in terms:
        w = sum((2 * k + 1) * e for k, e in mon)
        if w > degree:
            raise ValueError(f"monomial {mon} above degree {degree}")
        term = Fraction(v)
        for k, e in mon:
            term *= (c[k] if k < len(c) else 0) ** e
        out[w] += term
    return out


def tau_from_table_on_line(table: dict, c: list[Fraction], degree: int) -> list[Fraction]:
    """sum_{|mu|=n} A_mu s_mu on the line t_k = c_k x^(2k+1), n = 0..degree.

    theta_(2k+1) = -t_k / (2k+1)!! and even thetas vanish, so s_mu is x^|mu|
    times a Jacobi-Trudi determinant in the numbers h_j = [z^j] exp(sum theta_i z^i).
    """
    theta = [Fraction(0)] * (degree + 1)
    for k, ck in enumerate(c):
        if 2 * k + 1 <= degree:
            theta[2 * k + 1] = -ck / odd_double_factorial(2 * k + 1)
    h = [Fraction(1)]
    for j in range(1, degree + 1):
        h.append(sum((i * theta[i] * h[j - i] for i in range(1, j + 1)), Fraction(0)) / j)
    out = []
    for n in range(degree + 1):
        total = Fraction(0)
        for mu in partitions(n):
            a_mu = giambelli(mu, table)
            if a_mu:
                ell = len(mu)
                rows = [
                    [h[idx] if (idx := mu[i] - i + j) >= 0 else Fraction(0) for j in range(ell)]
                    for i in range(ell)
                ]
                total += a_mu * det(rows)
        out.append(total)
    return out


def tau_t0_from_table(table: dict, degree: int) -> list[Fraction]:
    """[t_0^n] tau = (-1)^n sum_{|mu|=n} A_mu f^mu / n!  (hook-length formula)."""
    return [
        Fraction((-1) ** n, factorial(n))
        * sum((giambelli(mu, table) * hook_dimension(mu) for mu in partitions(n)), Fraction(0))
        for n in range(degree + 1)
    ]


def series_log(p: list[Fraction]) -> list[Fraction]:
    """log of a univariate power series with p[0] = 1, same length."""
    if p[0] != 1:
        raise ValueError("constant term must be 1")
    out = [Fraction(0)] * len(p)
    for n in range(1, len(p)):  # n L_n = n p_n - sum_{k<n} k L_k p_{n-k}
        out[n] = p[n] - sum((k * out[k] * p[n - k] for k in range(1, n)), Fraction(0)) / n
    return out


# a fixed line on which every coefficient of tau has a nonzero weight
LINE = [Fraction((-1) ** k * (k + 2), k + 1) for k in range(16)]


def check_point_tau(point: dict, degree: int, out: bytes) -> str | None:
    """Output of `grassmann P --affine D-1 D-1 --tau D --initial-data D-2`."""
    doc = json.loads(out)
    if sorted(doc) != ["affine", "initial_data", "tau"]:
        return f"keys {sorted(doc)}"
    aff, tau, init = doc["affine"], doc["tau"], doc["initial_data"]
    size = degree - 1
    if (aff["max_m"], aff["max_n"], aff["source"]) != (size, size, "custom"):
        return f"table header {aff['max_m']}x{aff['max_n']} {aff['source']}"
    table = parse_table(aff)
    a = [Fraction(v) for v in point["a"]["tail"]]
    b = [Fraction(v) for v in point["b"]["tail"]]
    bad = diff_tables(table, affine_from_point(a, b, size, size), "table")
    if bad:
        return bad
    if (tau["degree"], tau["vars"]) != (degree, "t"):
        return f"tau header degree={tau['degree']} vars={tau['vars']}"
    t0 = tau_t0_from_table(table, degree)
    got_t0 = tau_on_line(tau["terms"], [Fraction(1)], degree)
    if got_t0 != t0:
        n = next(i for i in range(degree + 1) if got_t0[i] != t0[i])
        return f"[t0^{n}] tau = {got_t0[n]}, expected {t0[n]}"
    got_line = tau_on_line(tau["terms"], LINE, degree)
    want_line = tau_from_table_on_line(table, LINE, degree)
    if got_line != want_line:
        n = next(i for i in range(degree + 1) if got_line[i] != want_line[i])
        return f"tau on the test line, x^{n}: {got_line[n]}, expected {want_line[n]}"
    logt = series_log(t0)
    want = [factorial(n) * (n + 2) * (n + 1) * logt[n + 2] for n in range(degree - 1)]
    if [Fraction(v) for v in init] != want:
        return f"initial_data {init} != {[str(v) for v in want]}"
    return None


# ---------------------------------------------------------------------------
# tables and verify
# ---------------------------------------------------------------------------

# entries of the WK table checked against the row-reduced point
WK_CORNER = 15


def check_tables(size: int, out_grassmann: bytes, out_zhou: bytes) -> str | None:
    """Both sources of `affine --max-m M --max-n M --format json` at one M."""
    g, z = json.loads(out_grassmann), json.loads(out_zhou)
    if (g.get("source"), z.get("source")) != ("grassmann", "zhou"):
        return f"source tags {g.get('source')}, {z.get('source')}"
    if {k: v for k, v in g.items() if k != "source"} != {k: v for k, v in z.items() if k != "source"}:
        return "grassmann and zhou tables differ"
    if (g["max_m"], g["max_n"]) != (size, size):
        return f"table header {g['max_m']}x{g['max_n']}, expected {size}x{size}"
    table = parse_table(g)
    corner = min(size, WK_CORNER)
    a, b = wk_series(2 * corner + 3)
    want = affine_from_point(a, b, corner, corner)
    got = {k: v for k, v in table.items() if k[0] <= corner and k[1] <= corner}
    return diff_tables(got, want, "WK table")


def check_verify_all(returncode: int, out: bytes, suites: list[str]) -> str | None:
    if returncode != 0:
        return f"exit code {returncode}"
    lines = [ln for ln in out.decode().splitlines() if ln and not ln.startswith(" ")]
    names = [ln.split(":", 1)[0] for ln in lines]
    if names != suites:
        return f"report lines {names} != {suites}"
    for ln in lines:
        if not ln.split(":", 1)[1].startswith(" PASS "):
            return f"not a pass: {ln}"
    return None
