"""Truncated tau functions, coupling-constant form, and intersection numbers.

A tau series is assembled from a Z table as

    tau(theta) = sum over |mu| <= D of A_mu s_mu(theta),

graded-exact through degree D.  The minors A_mu are integers on the
table's lift, and the coefficients of each weight are read off by applying
the rim-hook operators p_r^perp to the whole integer vector of that weight's
minors (see `tau_truncated`) rather than from expanded Schur polynomials;
only a coefficient is a `Fraction`.  The KdV coupling constants are
t_k = -(2k+1)!! theta_{2k+1} (the even thetas enter tau only through an
exp-linear factor and are set to zero before any work in t).  With Z(t)
the tau series in t variables, the correlators are the coefficients of the
free energy

    <tau_{k_1} ... tau_{k_n}> = (prod multiplicities!) x
                                [coefficient of prod t_{k_i}] log Z,

nonzero only when sum k_i = 3g - 3 + n for an integer genus g >= 0
(`intersection_number`).  `correlator`, the `intersect` route, builds no
tau: it reduces a spec by the string and dilaton equations, then reads the
rest by Zhou's n-point functions (`log_tau_derivative`) off the integer
lift of the Z triangle the rest reads.  Both return the correlator as a
plain `Fraction`; its genus and dimension check are properties of the
`CorrelatorSpec`.  A tau of degree D, likewise, reads only the triangle
Z_{k,l}, k + l <= (D - 1)//2 (`tau_truncated`).

Differential identities (string equation, the flows of the hierarchy) are
verified on the residual polynomial; the graded reliability bound of the
residual is computed by the polynomial arithmetic itself, so a report never
asserts vanishing on coefficients contaminated by truncation.  For the
flows, u = d^2/dt_0^2 log Z and the inverse derivative inside the recursion
operator 2u + u_x d^-1 + (1/4) d^2 is resolved exactly as
d^-1 u_{t_{p-1}} = d_{t_{p-1}} d_{t_0} log Z, which is an antiderivative
with no free constant.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Container, Iterator
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import groupby

from .errors import DegreeExceededError, ExactComputationError, InsufficientTableError
from .exactnum import Record, _setattr, format_rational, odd_double_factorial
from .grassmann import ZTable, wk_z_table
from .report import VerificationReport, first_failures
from .schur import (
    GradedPoly,
    Monomial,
    beads,
    frobenius,
    giambelli_coeff,
    graded_log,
    p_perp,
    partitions_up_to,
)

__all__ = [
    "TauSeries",
    "CorrelatorSpec",
    "table_order",
    "tau_truncated",
    "to_t_variables",
    "free_energy",
    "intersection_number",
    "correlator",
    "log_tau_derivative",
    "verify_string_equation",
    "verify_kdv_flow",
    "verify_dimension_filter",
    "verify_string_recursion",
    "initial_data",
]


class TauSeries(Record):
    """Tau series in theta variables, exact through graded degree `degree`.

    `parts` is the set of part sizes its monomials were walked on
    (`tau_truncated`); None means every part, so `poly` is the whole series.
    """

    __slots__ = ("poly", "degree", "parts", "__dict__")

    def __init__(self, poly: GradedPoly, degree: int, parts: Container[int] | None = None) -> None:
        if poly.constant_term() != 1:
            raise ValueError("a tau series has constant term 1")
        _setattr(self, "poly", poly)
        _setattr(self, "degree", degree)
        _setattr(self, "parts", parts)

    def truncate(self, degree: int) -> "TauSeries":
        """The same series, exact through the lower graded degree `degree`.

        Schur polynomials are homogeneous, so this equals the tau series
        assembled at `degree` from the same table.
        """
        if degree > self.degree:
            raise DegreeExceededError(f"tau series is exact only through degree {self.degree}")
        return TauSeries(self.poly.truncate(degree), degree, self.parts)

    def theta_poly(self) -> GradedPoly:
        """The series in theta, refused for a series walked on some parts only,
        which lacks the monomials with the other parts."""
        if self.parts is not None:
            raise ExactComputationError("tau was walked on some parts only; its theta form is incomplete")
        return self.poly

    @cached_property
    def in_t(self) -> GradedPoly:
        """The series in t (`to_t_variables`), converted once per series: read
        by `log` and by `verify_string_equation`."""
        return to_t_variables(self)

    @cached_property
    def log(self) -> GradedPoly:
        """log Z in t, computed once per series: the memo behind `free_energy`,
        which several verifiers of one tau read."""
        return graded_log(self.in_t)


def table_order(degree: int) -> int:
    """The order of the Z triangle a tau of `degree` reads (`tau_truncated`):
    hooks with m + n < degree, so Z_{k,l} with k + l <= (degree - 1)//2."""
    return max(degree - 1, 0) // 2 + 1


def tau_truncated(table: ZTable, degree: int, parts: Container[int] | None = None) -> TauSeries:
    """sum_{|mu| <= degree} A_mu s_mu(theta) with Giambelli minors from `table`,
    its theta^lam terms for the lam with every part in `parts` (None: all).

    With p_j = j theta_j, the coefficient of theta^lam in a symmetric
    function f of weight |lam| is <p_lam, f> / prod_j m_j(lam)!, and
    <p_lam, f> = p_{lam_l}^perp ... p_{lam_1}^perp f, where p_r^perp removes
    an r-rim hook from each Schur term.  A minor of rank k is the integer
    E^k A_mu, E the grade fixed below (`giambelli_coeff`), and no partition
    of weight n has rank above r = isqrt(n).  So the integer vector
    (E^r A_mu)_{|mu|=n}, keyed by the bead mask of mu with n beads (`beads`),
    is walked depth-first over the parts of lam in weakly decreasing order,
    one p_r^perp on the whole vector per step (`p_perp`):

        [theta^lam] tau = (p_lam^perp v)_() / (E^r prod_j m_j(lam)!).

    Zero entries are dropped and a branch stops as soon as its vector is
    empty.  Each [theta^lam] tau is read independently of the others, so the
    walk applies p_r^perp only for r in `parts` and reaches exactly the lam
    with parts there, with unchanged values.  The t-variable consumers read no
    even theta (`to_t_variables` drops them), so they pass the odd parts
    range(1, degree + 1, 2); even parts vanish at the Witten-Kontsevich point,
    but not at a general point.  The series records `parts`, and its theta
    form (`TauSeries.theta_poly`) is refused unless every part was walked.

    A hook of a partition of weight <= D has arm + leg <= D - 1, so the
    minors read Z_{k,l} for k + l <= (D - 1) // 2 only: the triangle of
    order n = `table_order(D)`, which the table must hold, and E = E_n,
    whatever the table's size.  The minors are memoised for this call only.
    """
    order = table_order(degree)
    if not table.holds(order - 1, 0):
        raise InsufficientTableError(
            f"Z table does not hold the triangle k + l < {order} that tau degree {degree} reads")
    top = table.series.grades[order]
    minors: dict = {}
    terms: dict[Monomial, Fraction] = {}
    for weight, group in groupby(partitions_up_to(degree), key=sum):
        rank = math.isqrt(weight)
        vector = {beads(mu, weight): a * top ** (rank - len(arms))
                  for mu in group for arms, legs in [frobenius(mu)]
                  if (a := giambelli_coeff(arms, legs, table, top, minors))}
        for lam, total in _rim_hook_walk(vector, weight, (), parts):
            mults = Counter(lam)
            scale = math.prod(math.factorial(m) for m in mults.values())
            terms[tuple(sorted(mults.items()))] = Fraction(total, top ** rank * scale)
    return TauSeries(GradedPoly("theta", terms, degree), degree, parts)


def _rim_hook_walk(
    vector: dict[int, int], weight: int, lam: tuple[int, ...], parts: Container[int] | None
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (lam + rest, c) for every partition `rest` of `weight` with parts
    in `parts` (None: any) and at most lam's last, where
    c = (p_rest^perp vector)_() is nonzero.  `vector` maps the bead masks
    (`beads`) of partitions of `weight` to nonzero integer Schur coefficients."""
    if not weight:
        (total,) = vector.values()
        yield lam, total
        return
    for r in range(min(weight, lam[-1] if lam else weight), 0, -1):
        if parts is not None and r not in parts:
            continue
        if out := p_perp(vector, r):
            yield from _rim_hook_walk(out, weight - r, lam + (r,), parts)


@lru_cache(maxsize=None)
def _theta_to_t_factor(j: int) -> Fraction:
    # theta_{2k+1} = -t_k / (2k+1)!!
    return Fraction(-1) / odd_double_factorial(j)


def to_t_variables(tau: TauSeries) -> GradedPoly:
    """Substitute theta_{2k+1} = -t_k/(2k+1)!! and drop the even thetas.

    Grading is preserved: deg t_k = 2k + 1 = deg theta_{2k+1}.
    """
    out: dict[Monomial, Fraction] = {}
    for mon, c in tau.poly.terms.items():
        if any(var % 2 == 0 for var, _ in mon):
            continue
        coeff = c
        new = []
        for var, exp in mon:
            coeff *= _theta_to_t_factor(var) ** exp
            new.append(((var - 1) // 2, exp))
        key = tuple(sorted(new))
        out[key] = out.get(key, Fraction(0)) + coeff
    return GradedPoly.make("t", out, tau.poly.bound)


def free_energy(tau: TauSeries) -> GradedPoly:
    """log Z in the coupling constants t, computed once per tau series."""
    return tau.log


# ---------------------------------------------------------------------------
# Correlators
# ---------------------------------------------------------------------------


class CorrelatorSpec(Record):
    """Multiset of insertion indices k_1 <= ... <= k_n."""

    __slots__ = ("exponents",)

    def __init__(self, exponents: tuple[int, ...]) -> None:
        _setattr(self, "exponents", exponents)

    @classmethod
    def of(cls, ks: tuple[int, ...] | list[int]) -> "CorrelatorSpec":
        ks = tuple(sorted(int(k) for k in ks))
        if any(k < 0 for k in ks):
            raise ValueError("insertion indices must be >= 0")
        return cls(ks)

    @property
    def size(self) -> int:
        return len(self.exponents)

    @property
    def genus(self) -> int | None:
        """g with sum k_i = 3g - 3 + n, or None if no such integer g >= 0 (or
        no insertion: the empty <>_1 is unstable)."""
        num = sum(self.exponents) - self.size + 3
        if not self.exponents or num % 3 != 0 or num < 0:
            return None
        return num // 3

    @property
    def is_valid(self) -> bool:
        return self.genus is not None

    @property
    def t_weight(self) -> int:
        return sum(2 * k + 1 for k in self.exponents)

    def monomial(self) -> Monomial:
        return tuple(sorted(Counter(self.exponents).items()))

    def multiplicity_factor(self) -> int:
        return math.prod(math.factorial(e) for e in Counter(self.exponents).values())

    def __str__(self) -> str:
        return "<" + " ".join(f"tau_{k}" for k in self.exponents) + ">"


def intersection_number(spec: CorrelatorSpec, tau: TauSeries) -> Fraction:
    """Exact correlator for `spec`, read off the free energy of `tau`.

    A spec that violates the dimension constraint (`spec.is_valid` False)
    yields 0: a structural zero, not an error.
    """
    if not spec.is_valid:
        return Fraction(0)
    F = free_energy(tau)
    if F.bound is not None and spec.t_weight > F.bound:
        raise DegreeExceededError(
            f"spec {spec} needs degree {spec.t_weight}, free energy reliable to {F.bound}"
        )
    return _from_free_energy(F, spec)


def _from_free_energy(F: GradedPoly, spec: CorrelatorSpec) -> Fraction:
    return F.coefficient(spec.monomial()) * spec.multiplicity_factor()


def correlator(spec: CorrelatorSpec) -> Fraction:
    """Exact correlator for `spec` at the Witten-Kontsevich point, read off
    its Z table without assembling tau; 0 for a spec that violates the
    dimension constraint.

    The spec is first reduced exactly by the string and dilaton equations,

        <tau_0 prod tau_{k_i}>_g = sum_j <.. tau_{k_j - 1} ..>_g,
        <tau_1 prod_{i<=n} tau_{k_i}>_g = (2g - 2 + n) <prod tau_{k_i}>_g,

    as long as the reduced spec stays stable (2g - 2 + n > 0).  Each step
    removes one insertion, so the reduction runs level by level, from n
    insertions down, on a {spec: integer coefficient} dict with the sorted
    multisets merged.  That leaves every k_i >= 2 (so n <= 3g - 3) or the
    bases <tau_0^3>_0 and <tau_1>_1, each evaluated once as

        <prod tau_{k_i}> = prod_i (-1/(2k_i+1)!!) d^n log tau / prod d theta_{2k_i+1}

    by `log_tau_derivative` on one table, the triangle Z_{k,l},
    k + l <= N = (W-1)//2 with W the largest t-weight left, on wk_G(N + 1)
    (`wk_z_table`): <tau_1^n>_1 reads Z_{k,l}, k + l <= 1, only.
    """
    if not spec.is_valid:
        return Fraction(0)
    genus, level, irreducible = spec.genus, {spec.exponents: 1}, Counter()
    while level:
        below: Counter[tuple[int, ...]] = Counter()
        for ks, c in level.items():
            rest, stable = ks[1:], 2 * genus - 2 + len(ks) - 1
            if ks[0] == 1 and stable > 0:
                below[rest] += stable * c
            elif ks[0] == 0 and stable > 0:
                # rest is sorted, so lowering the first k of each value keeps it sorted
                for k, m in Counter(rest).items():
                    if k >= 1:
                        below[rest[:(i := rest.index(k))] + (k - 1,) + rest[i + 1:]] += m * c
            else:  # keyed by the theta indices 2 k_i + 1
                irreducible[tuple(2 * k + 1 for k in ks)] += c
        level = below
    table = wk_z_table((max(map(sum, irreducible)) - 1) // 2 + 1)
    return sum((c * math.prod(map(_theta_to_t_factor, a)) * log_tau_derivative(table, list(a))
                for a, c in irreducible.items()), Fraction(0))


def log_tau_derivative(table: ZTable, thetas: list[int]) -> Fraction:
    """d^n log tau / d theta_{a_1} ... d theta_{a_n} at theta = 0, for the tau
    function of any big-cell point with Z table `table` (Zhou, Emergent
    geometry of KP hierarchy), its A_{m,n} read by `ZTable.affine`.

    With A(x, y) = sum A_{m,n} x^{-m-1} y^{-n-1}:

    * n = 1: sum_{m+n=a-1} A_{m,n};
    * n >= 2: (-1)^{n-1} times the sum, over the (n-1)! cyclic orders c with
      c_1 = 1, of the coefficient of prod_i x_i^{-a_i-1} in
      prod_i [A(x_{c_i}, x_{c_{i+1}}) - 1/(x_{c_i} - x_{c_{i+1}})], every
      1/(x_i - x_j) expanded where |x_1| > ... > |x_n|.

    Each factor x -> y of a cycle contributes x^{-p-1} y^{-q-1}: A_{p,q}
    (p, q >= 0), or from the pole q = -p-1 with coefficient -1 when x comes
    first (p >= 0) and +1 when it comes later (p < 0).  A variable with
    exponent a takes q from the factor entering it and passes p = a - 1 - q to
    the factor leaving it, so the coefficient is a transfer sum along the
    cycle whose state is p.  Each factor uses p + q + 2 >= 1 of the total
    W + n (W = sum a_i), so only A_{m,n} with m + n < W enter, and a state
    p >= W can never close the cycle.  The variables are ordered by a_i, so
    the first, whose p starts the cycle, has the fewest start states.  The
    (n-1)! cycles are summed over subsets (2^(n-1) n partial paths), since
    the factor weights depend only on the two variables they join.  The last
    factor, u -> the first variable, must bring p back to the start state, so
    it closes the cycle by one lookup per state, not a walk over a row:
    A_{p,q} with q = a_1 - 1 - start when p >= 0, and the pole term, with
    sign +1 (u comes later), when p < 0 and a_1 + p = start.  The rows are
    keyed by q for that lookup.  n = 1 keeps its own sum over the W entries
    of one anti-diagonal, since the cycle pass would build every row, about
    W^2/2 entries.

    The entries read are Z_{k,l} with k + l <= N = (W - 1) // 2, the triangle
    of order N + 1.  Every weight is an integer over den = E_{N+1}: an entry
    read has grade d <= N + 1, and E_d divides E_{N+1}, so A_{m,n} is its
    lift times E_{N+1} / E_d over den.  Only the result is a `Fraction`.
    """
    a = sorted(thetas)
    if not a or a[0] < 1:
        raise ValueError("theta indices must be >= 1")
    W = sum(a)
    N = (W - 1) // 2
    if not table.holds(N, 0):
        raise InsufficientTableError(
            f"Z table does not hold the triangle k + l <= {N} that theta weight {W} reads")
    den = table.series.grades[N + 1]

    def weight(m: int, n: int) -> int:
        lifted, grade = table.affine(m, n)
        return lifted * (den // grade)

    if len(a) == 1:
        return Fraction(sum(weight(m, W - 1 - m) for m in range(W)), den)
    rows = [{q: v for q in range(W - p) if (v := weight(p, q))} for p in range(W)]

    def step(states: dict[tuple[int, int], int], u: int, v: int, out: dict[tuple[int, int], int]) -> None:
        """Add to `out` the states after factor u -> v, keyed (start p, p at v)."""
        for (start, p), w in states.items():
            if 0 <= p:
                for q, A in rows[p].items():
                    key = (start, a[v] - 1 - q)
                    out[key] = out.get(key, 0) + w * A
            if (p >= 0) == (u < v) and a[v] + p < W:  # the pole term
                key = (start, a[v] + p)
                out[key] = out.get(key, 0) + (-w if u < v else w) * den

    # the paths from variable 0 with the same set of variables and the same
    # last one share all later factors, so they are summed before extending
    n = len(a)
    full = (1 << n) - 1
    paths: dict[tuple[int, int], dict[tuple[int, int], int]] = {(1, 0): {(p, p): 1 for p in range(a[0])}}
    total = 0
    for mask in range(1, full + 1, 2):  # every subset of a mask comes before it
        for u in range(n):
            states = {key: w for key, w in paths.pop((mask, u), {}).items() if w}
            if mask == full:  # the factor u -> 0 returns to p = start by one entry
                for (start, p), w in states.items():
                    total += w * (rows[p].get(a[0] - 1 - start, 0) if p >= 0 else den * (a[0] + p == start))
            for v in range(1, n):
                if states and not mask >> v & 1:
                    step(states, u, v, paths.setdefault((mask | 1 << v, v), {}))
    return Fraction((-1) ** (n - 1) * total, den ** n)


# ---------------------------------------------------------------------------
# Differential identities
# ---------------------------------------------------------------------------


def verify_string_equation(tau: TauSeries) -> VerificationReport:
    """Residual of  sum_{p>=1} t_p dZ/dt_{p-1} + (t_0^2/2) Z - dZ/dt_0."""
    suite = "string-equation"
    Z = tau.in_t
    residual = -Z.derivative(0)
    t0sq = GradedPoly.make("t", {((0, 2),): Fraction(1, 2)}, None)
    residual = residual + t0sq * Z
    for p in range(1, max(Z.variables(), default=0) + 2):
        dz = Z.derivative(p - 1)
        if dz.is_zero() and p - 1 not in Z.variables():
            continue
        tp = GradedPoly.variable("t", p)
        residual = residual + tp * dz
    if residual.bound is not None and residual.bound < 0:
        raise DegreeExceededError(
            f"tau degree {tau.degree} leaves no certifiable residual for the string equation"
        )
    return _residual_report(suite, residual)


def verify_kdv_flow(tau: TauSeries, flow: int) -> VerificationReport:
    """Residual of the flow-`flow` equation of the hierarchy on u = d^2 log Z.

    flow 1:  u_{t_1} = u u_x + (1/12) u_xxx.
    flow p>=2:  u_{t_p} = (2u v + u_x w + (1/4) v_xx) / (1 + 2p)  with
    v = u_{t_{p-1}} and w = d_{t_{p-1}} d_{t_0} log Z (so w_x = v).
    """
    suite = f"kdv-flow-{flow}"
    if flow < 1:
        raise ValueError("flow index starts at 1")
    F = free_energy(tau)
    u = F.derivative(0).derivative(0)
    ux = u.derivative(0)
    if flow == 1:
        rhs = u * ux + ux.derivative(0).derivative(0).scale(Fraction(1, 12))
        residual = u.derivative(1) - rhs
    else:
        v = u.derivative(flow - 1)
        w = F.derivative(0).derivative(flow - 1)
        rhs = (u.scale(2) * v + ux * w + v.derivative(0).derivative(0).scale(Fraction(1, 4)))
        residual = u.derivative(flow) - rhs.scale(Fraction(1, 1 + 2 * flow))
    if residual.bound is not None and residual.bound < 1:
        raise DegreeExceededError(
            f"tau degree {tau.degree} leaves no certifiable residual for flow {flow}"
        )
    return _residual_report(suite, residual)


def _residual_report(suite: str, residual: GradedPoly) -> VerificationReport:
    """Pass if the residual vanishes through its bound, else fail on the
    coefficient of its least monomial."""
    failures = []
    if not residual.is_zero():
        mon = min(residual.terms)
        failures.append(f"coefficient {format_rational(residual.terms[mon])} at monomial {mon}")
    depth = f"residual certified through t-degree {residual.bound}"
    return VerificationReport(suite, depth, failures=failures)


def verify_dimension_filter(tau: TauSeries) -> VerificationReport:
    """Every monomial of log Z must obey the dimension constraint."""
    suite = "dimension-filter"
    F = free_energy(tau)
    failures = first_failures(
        f"{spec} has coefficient {format_rational(c)}"
        for mon, c in sorted(F.terms.items())
        if not (spec := CorrelatorSpec.of([var for var, exp in mon for _ in range(exp)])).is_valid
    )
    return VerificationReport(suite, f"all stored monomials through degree {F.bound}", failures=failures)


def _specs_with_weight_at_most(budget: int) -> list[tuple[int, ...]]:
    """Nonempty multisets (k_1 <= ... <= k_n) with sum (2 k_i + 1) <= budget."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], low: int, left: int) -> None:
        if prefix:
            out.append(prefix)
        k = low
        while 2 * k + 1 <= left:
            rec(prefix + (k,), k, left - (2 * k + 1))
            k += 1

    rec((), 0, budget)
    return out


def verify_string_recursion(tau: TauSeries) -> VerificationReport:
    """<tau_0 tau_{k_1}..tau_{k_n}> = sum_i <.. tau_{k_i - 1} ..> for every
    spec with some k_i >= 1 whose padded weight fits in the free energy."""
    suite = "string-recursion"
    F = free_energy(tau)
    bound = F.bound if F.bound is not None else tau.degree
    checked = 0

    def mismatches():
        nonlocal checked
        for ks in _specs_with_weight_at_most(bound - 1):
            if all(k == 0 for k in ks):
                continue
            lhs = _from_free_energy(F, CorrelatorSpec.of(ks + (0,)))
            rhs = Fraction(0)
            for i, k in enumerate(ks):
                if k >= 1:
                    rhs += _from_free_energy(F, CorrelatorSpec.of(ks[:i] + (k - 1,) + ks[i + 1:]))
            checked += 1
            if lhs != rhs:
                yield f"{CorrelatorSpec.of(ks + (0,))}: {format_rational(lhs)} vs {format_rational(rhs)}"

    failures = first_failures(mismatches())
    if not checked:
        return VerificationReport(suite, f"0 specs within t-degree {bound}", skipped=True,
                                  notes="empty window: no spec with some k_i >= 1 fits")
    return VerificationReport(suite, f"{checked} specs within t-degree {bound}", failures=failures)


# ---------------------------------------------------------------------------
# Initial data
# ---------------------------------------------------------------------------


def initial_data(tau: TauSeries, n_max: int) -> list[Fraction]:
    """Taylor coefficients s_0..s_n_max of u(x) = u|_{t_{>=1}=0} = sum s_n x^n / n!.

    x is identified with t_0.  Setting t_{>=1} = 0 commutes with the log and
    keeps the graded bound, so the log is taken on the t_0 line only.
    """
    line = to_t_variables(tau).drop_variables(lambda var: var >= 1)
    u0 = graded_log(line).derivative(0).derivative(0)
    if u0.bound is not None and n_max > u0.bound:
        raise DegreeExceededError(
            f"initial data through x^{n_max} needs tau degree {n_max + 2}, have {tau.degree}"
        )
    out = []
    fact = 1
    for n in range(n_max + 1):
        if n:
            fact *= n
        mon: Monomial = ((0, n),) if n else ()
        out.append(u0.terms.get(mon, Fraction(0)) * fact)
    return out
