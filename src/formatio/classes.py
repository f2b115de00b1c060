"""Group-class specs and their membership algebra.

A ClassSpec is a declarative, parseable description of a class of finite
groups.  Membership of a concrete group is decided structurally (derived
series, counts of pi-elements for nilpotence and Sylow towers, chief factors,
residuals, subnormal chains) and memoized by the group's exact table key
(`FiniteGroup.fingerprint`), so repeated sweeps over materialized subgroups
stay cheap.  Supersolubility needs no chief series: a climb inside the
group's table moves up one normal subgroup of prime index over the last at a
time (`_is_supersoluble`).

Class flags (`formation`, `hereditary`, `saturated`, `soluble_only`) record
which closure laws each spec is declared to satisfy; sweep tests spot-verify
the declarations on the whole catalog.
"""

from __future__ import annotations

from .arith import factorize, is_prime, p_part, prime_divisors
from .errors import (
    EmptyClass,
    NotAFormationWitness,
    SizeCapExceeded,
    SpecSyntaxError,
    UnsupportedParameter,
)
from .groups import (
    MAX_ORDER,
    FiniteGroup,
    Subgroup,
    TableKey,
    _closure,
    _coset_extension,
    conjugations,
    derived_series,
    derived_subgroup,
    quotient,
)
from .records import record
from .structure import (
    all_subgroups,
    chief_series,
    elems_soluble,
    exponent,
    normal_subgroups,
    zuppos,
)
from .supernatural import (
    ExponentFunction,
    Supernatural,
    check_nesting,
    divides_int,
    format_supernatural,
    parse_entries,
    parse_exponent_function,
    parse_prime,
    parse_supernatural,
    split_args,
)


class ClassSpec:
    """Base class; concrete variants are frozen records below."""

    formation = False
    hereditary = False
    saturated = False
    soluble_only = False

    def text(self) -> str:
        raise NotImplementedError

    def _member(self, G: FiniteGroup) -> bool:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.text()


# Verdicts are shared by every instance with an equal table: materialized
# subgroups and quotients rebuild the same small groups many times over.
_MEMBER_CACHE: dict[tuple[TableKey, ClassSpec], bool] = {}


def is_member(G: FiniteGroup, spec: ClassSpec) -> bool:
    """Whether G belongs to the class, memoized by table key and spec."""
    if G.order > MAX_ORDER:
        raise SizeCapExceeded(
            f"group of order {G.order} exceeds the cap {MAX_ORDER}")
    key = (G.fingerprint, spec)
    got = _MEMBER_CACHE.get(key)
    if got is None:
        got = _MEMBER_CACHE[key] = spec._member(G)
    return got


# ---------------------------------------------------------------------------
# Structural predicates


def _pi_element_count(orders: list[int] | tuple[int, ...], m: int) -> int:
    """The number of elements whose order divides m, among a group's element
    `orders`.  Element orders divide the group's order, so for m its pi-part
    these are the pi-elements."""
    return sum(1 for o in orders if m % o == 0)


def _orders_nilpotent(orders: list[int] | tuple[int, ...]) -> bool:
    """Whether the group with element `orders` is nilpotent: every Sylow
    subgroup is normal iff for each p the p-elements are exactly a full
    Sylow subgroup, which is a pure counting condition."""
    n = len(orders)
    return all(_pi_element_count(orders, pa) == pa
               for pa in (p_part(n, p) for p in prime_divisors(n)))


def _is_supersoluble(G: FiniteGroup) -> bool:
    """Whether G has a normal series with prime-order factors (Huppert),
    climbed inside G's own table.

    From Z = 1, each level tries the elements g outside Z whose order modulo
    Z is prime, least first.  S = <Z, g> is normal in G exactly when every
    greedy generator h of G has h*g*h^-1 in S, as Z is normal and
    h*S*h^-1 = <Z, h*g*h^-1>; the climb then moves up to S.  Every element of
    S outside Z generates S over Z, so a failed S is marked tried as a whole.

    Exact: a supersoluble G/Z is supersoluble, and its minimal normal
    subgroups have prime order, so it has a normal S/Z of prime order, and
    some tried g generates it; a climb that ends at G has built a normal
    series with prime factors.  So G is supersoluble exactly when no level
    runs out of candidates.
    """
    table = G.table
    rows = conjugations(G)
    elems: tuple[int, ...] = (0,)
    z_gens: tuple[int, ...] = ()
    while len(elems) < G.order:
        inside = set(elems)
        tried = set(inside)
        for g in range(G.order):
            if g in tried:
                continue
            x, k = g, 1  # x = g^k, until k is the order of g modulo Z
            while x not in inside:
                x, k = table[x][g], k + 1
            if not is_prime(k):
                continue
            step = _coset_extension(table, elems, z_gens, g)
            step_set = set(step)
            if all(row[g] in step_set for row in rows):
                elems, z_gens = step, z_gens + (g,)
                break
            tried |= step_set
        else:
            return False
    return True


def _is_p_nilpotent(G: FiniteGroup, p: int) -> bool:
    m = G.order // p_part(G.order, p)
    coprime = [x for x in range(G.order) if G.element_order[x] % p != 0]
    if len(coprime) > m:
        return False
    return len(_closure(G.table, tuple(coprime))) == m


@record
class PrimeOrdering:
    """A linear ordering of all primes: the listed ones first, in the order
    given, then all unlisted primes in increasing natural order."""

    listed: tuple[int, ...]

    def __post_init__(self):
        if not self.listed:
            raise UnsupportedParameter("ordering lists no prime")
        if len(set(self.listed)) != len(self.listed):
            raise UnsupportedParameter("ordering lists a prime twice")
        for p in self.listed:
            if not is_prime(p):
                raise UnsupportedParameter(f"{p} is not prime")

    def sort_key(self, p: int):
        if p in self.listed:
            return (0, self.listed.index(p))
        return (1, p)

    def text(self) -> str:
        return ">".join(map(str, self.listed))


def _has_sylow_tower(G: FiniteGroup, ordering: PrimeOrdering) -> bool:
    """Whether G has normal subgroups 1 = H_0 < ... < H_k = G, each H_i/H_(i-1)
    a Sylow p_i-subgroup of G/H_(i-1), for p_1, ..., p_k the prime divisors
    of |G| in the ordering.

    With pi_i = {p_1, ..., p_i}: exactly when G has |G|_pi_i pi_i-elements
    for each i < k.  By induction, H = H_(i-1) is the set of
    pi_(i-1)-elements.  g is a pi_i-element exactly when gH is a p_i-element
    of G/H (the order of gH divides that of g and is prime to pi_(i-1); if
    g^(p_i^a) lies in H, it is a pi_(i-1)-element), so G has |H| times as
    many pi_i-elements as G/H has p_i-elements.  By Sylow, a Sylow
    p_i-subgroup of G/H is normal exactly when the p_i-elements number its
    order, and its preimage H_i is then the set of pi_i-elements.
    """
    primes = sorted(prime_divisors(G.order), key=ordering.sort_key)
    m = 1
    for p in primes[:-1]:
        m *= p_part(G.order, p)
        if _pi_element_count(G.element_order, m) != m:
            return False
    return True


# ---------------------------------------------------------------------------
# Named specs


@record
class TrivialClass(ClassSpec):
    formation = True
    hereditary = True
    saturated = True
    soluble_only = True

    def text(self):
        return "trivial"

    def _member(self, G):
        return G.order == 1


@record
class AbelianClass(ClassSpec):
    formation = True
    hereditary = True
    saturated = False
    soluble_only = True

    def text(self):
        return "abelian"

    def _member(self, G):
        t = G.table
        return all(t[a][b] == t[b][a] for a in range(G.order) for b in range(a))


@record
class NilpotentClass(ClassSpec):
    formation = True
    hereditary = True
    saturated = True
    soluble_only = True

    def text(self):
        return "nilpotent"

    def _member(self, G):
        return _orders_nilpotent(G.element_order)


@record
class PGroupsClass(ClassSpec):
    p: int
    formation = True
    hereditary = True
    saturated = True
    soluble_only = True

    def text(self):
        return f"p_groups:{self.p}"

    def _member(self, G):
        return G.order == p_part(G.order, self.p)


@record
class SolubleClass(ClassSpec):
    formation = True
    hereditary = True
    saturated = True
    soluble_only = True

    def text(self):
        return "soluble"

    def _member(self, G):
        return elems_soluble(G, tuple(range(G.order)))


@record
class SupersolubleClass(ClassSpec):
    formation = True
    hereditary = True
    saturated = True
    soluble_only = True

    def text(self):
        return "supersoluble"

    def _member(self, G):
        return _is_supersoluble(G)


@record
class PNilpotentClass(ClassSpec):
    p: int
    formation = True
    hereditary = True
    saturated = True
    soluble_only = False

    def text(self):
        return f"p_nilpotent:{self.p}"

    def _member(self, G):
        return _is_p_nilpotent(G, self.p)


@record
class SolublePiClass(ClassSpec):
    """Soluble groups whose prime divisors lie in the given set (or in its
    complement when `complement` is set)."""

    primes: tuple[int, ...]
    complement: bool = False
    formation = True
    hereditary = True
    saturated = True
    soluble_only = True

    def contains_prime(self, p: int) -> bool:
        return (p in self.primes) != self.complement

    def text(self):
        mark = "'" if self.complement else ""
        return f"S_pi{mark}:{{{','.join(map(str, self.primes))}}}"

    def _member(self, G):
        return (all(self.contains_prime(p) for p in prime_divisors(G.order))
                and is_member(G, SOLUBLE))


@record
class SylowTowerClass(ClassSpec):
    ordering: PrimeOrdering
    formation = True
    hereditary = True
    saturated = True
    soluble_only = True

    def text(self):
        return f"sylow_tower:{self.ordering.text()}"

    def _member(self, G):
        return _has_sylow_tower(G, self.ordering)


@record
class AllGroupsClass(ClassSpec):
    formation = True
    hereditary = True
    saturated = True
    soluble_only = False

    def text(self):
        return "all"

    def _member(self, G):
        return True


@record
class VSupersolubleClass(ClassSpec):
    """Groups whose cyclic prime-power subgroups all sit at the top of a
    chain of prime-index steps."""

    formation = True
    hereditary = True
    saturated = True
    soluble_only = True

    def text(self):
        return "vU"

    def _member(self, G):
        # U is inside vU: every subgroup of a supersoluble group tops a chain
        # of prime-index steps
        from .subnormality import vu_member

        return _is_supersoluble(G) or vu_member(G)


# ---------------------------------------------------------------------------
# Composite specs


@record
class ExponentBoundedClass(ClassSpec):
    """Members of `base` whose exponent divides `omega`."""

    base: ClassSpec
    omega: Supernatural

    @property
    def formation(self):  # type: ignore[override]
        return self.base.formation

    @property
    def hereditary(self):  # type: ignore[override]
        return self.base.hereditary

    @property
    def soluble_only(self):  # type: ignore[override]
        return self.base.soluble_only

    def text(self):
        if isinstance(self.base, SolubleClass):
            return f"S({format_supernatural(self.omega)})"
        return f"bounded({self.base.text()};{format_supernatural(self.omega)})"

    def _member(self, G):
        return divides_int(exponent(G), self.omega) and is_member(G, self.base)


@record
class ProductClass(ClassSpec):
    """Groups whose residual for `outer` falls inside `inner`."""

    inner: ClassSpec
    outer: ClassSpec

    @property
    def formation(self):  # type: ignore[override]
        return self.inner.formation and self.outer.formation

    @property
    def soluble_only(self):  # type: ignore[override]
        return self.inner.soluble_only and self.outer.soluble_only

    def text(self):
        return f"prod({self.inner.text()},{self.outer.text()})"

    def _member(self, G):
        return product_member(G, self.inner, self.outer)


@record
class IntersectionClass(ClassSpec):
    parts: tuple[ClassSpec, ...]

    @property
    def formation(self):  # type: ignore[override]
        return all(s.formation for s in self.parts)

    @property
    def hereditary(self):  # type: ignore[override]
        return all(s.hereditary for s in self.parts)

    @property
    def saturated(self):  # type: ignore[override]
        return all(s.saturated for s in self.parts)

    @property
    def soluble_only(self):  # type: ignore[override]
        return any(s.soluble_only for s in self.parts)

    def text(self):
        return f"cap({','.join(s.text() for s in self.parts)})"

    def _member(self, G):
        return all(is_member(G, s) for s in self.parts)


@record
class LocalClass(ClassSpec):
    """Groups whose chief-factor automizers lie in h(p) for each prime p
    dividing the factor order."""

    entries: tuple[tuple[int, ClassSpec], ...]
    default: ClassSpec
    formation = True
    saturated = True

    @property
    def hereditary(self):  # type: ignore[override]
        return (self.default.hereditary
                and all(s.hereditary for _, s in self.entries))

    def spec_at(self, p: int) -> ClassSpec:
        for q, s in self.entries:
            if q == p:
                return s
        return self.default

    def text(self):
        parts = [f"{p}->{s.text()}" for p, s in self.entries]
        parts.append(f"default->{self.default.text()}")
        return f"local({','.join(parts)})"

    def _member(self, G):
        return local_member(G, self.spec_at)


@record
class VStarClass(ClassSpec):
    """Groups whose cyclic prime-power subgroups are all reachable by chains
    of steps that are normal or have core-quotient inside `inner`.

    A formation F lies inside vstar(F): for G in F and H <= G, G/Core_G(H)
    is a quotient of G, so H <= G is a one-step chain.  So when `inner` is
    flagged formation, a member of it is a member here without the chain
    search, and without G's subgroup lattice; this trusts the flag.  Any
    other group is decided by the search (`vstar_member`), which enumerates
    the lattice.  An inner spec not flagged hereditary is refused first.
    """

    inner: ClassSpec

    # vstar(F) is a hereditary formation, and saturated when F is soluble
    # only; it is a class at all only when F is flagged hereditary
    @property
    def formation(self):  # type: ignore[override]
        return self.inner.hereditary

    @property
    def hereditary(self):  # type: ignore[override]
        return self.inner.hereditary

    @property
    def saturated(self):  # type: ignore[override]
        return self.inner.hereditary and self.inner.soluble_only

    @property
    def soluble_only(self):  # type: ignore[override]
        return self.inner.soluble_only

    def text(self):
        return f"vstar({self.inner.text()})"

    def _member(self, G):
        from .subnormality import check_vstar_inner, vstar_member

        check_vstar_inner(self.inner)
        if self.inner.formation and is_member(G, self.inner):
            return True
        return vstar_member(G, self.inner)


@record
class ExponentFormationClass(ClassSpec):
    """The soluble class cut out per prime p by: the residual for
    exponent-dividing-f(p) soluble groups must be a p'-group."""

    fn: ExponentFunction
    formation = True
    hereditary = True
    saturated = True
    soluble_only = True

    def text(self):
        return f"reg({self.fn})"

    def _member(self, G):
        return exponent_formation_member(G, self.fn)


TRIVIAL = TrivialClass()
ABELIAN = AbelianClass()
NILPOTENT = NilpotentClass()
SOLUBLE = SolubleClass()
SUPERSOLUBLE = SupersolubleClass()
ALL_GROUPS = AllGroupsClass()
V_SUPERSOLUBLE = VSupersolubleClass()


def p_groups(p: int) -> PGroupsClass:
    return PGroupsClass(p)


def p_nilpotent(p: int) -> PNilpotentClass:
    return PNilpotentClass(p)


def soluble_pi(primes, complement: bool = False) -> SolublePiClass:
    return SolublePiClass(tuple(sorted(set(primes))), complement)


def sylow_tower(*primes: int) -> SylowTowerClass:
    return SylowTowerClass(PrimeOrdering(tuple(primes)))


def sigma(omega: Supernatural) -> ExponentBoundedClass:
    """Soluble groups of exponent dividing omega."""
    return ExponentBoundedClass(SOLUBLE, omega)


def vstar(inner: ClassSpec) -> VStarClass:
    return VStarClass(inner)


def cap(*parts: ClassSpec) -> IntersectionClass:
    return IntersectionClass(tuple(parts))


def regular_formation(fn: ExponentFunction) -> ExponentFormationClass:
    return ExponentFormationClass(fn)


# ---------------------------------------------------------------------------
# Residuals and derived membership operations


def residual(G: FiniteGroup, spec: ClassSpec) -> Subgroup:
    """Least normal subgroup with quotient in the class.

    Three kinds of spec have a closed form, closed inside G's own table
    (`_closed_residual`):
    - soluble: the last term of the derived series.  G/N is soluble exactly
      when N contains that term, which is perfect, so it has no soluble
      quotient but the trivial one.
    - abelian: the derived subgroup.  G/N is abelian exactly when N holds
      every commutator.
    - exponent-bounded, B of exponent dividing omega: the product of B's
      residual and of the residual for exponent dividing omega, since a
      quotient lies in an intersection of formations exactly when it lies in
      each.  The latter is generated by the powers g^n(g), n(g) the largest
      divisor of o(g) that divides omega: gN has order dividing omega exactly
      when its order divides n(g), that is when g^n(g) lies in N.  The powers
      are closed under conjugation, so with a normal residual they generate a
      normal subgroup.  This applies when B has a closed form itself.
    Every other spec is computed as the intersection of all normal subgroups
    with member quotient, and the result's own quotient is re-checked, which
    catches classes that are not really formations (`_residual_by_quotients`).
    """
    if not spec.formation:
        raise NotAFormationWitness(
            f"residuals need a formation-flagged spec, got {spec.text()}")
    elems = _closed_residual(G, spec)
    if elems is None:
        return _residual_by_quotients(G, spec)
    return Subgroup(G, elems)


def _omega_part(n: int, omega: Supernatural) -> int:
    """The largest divisor of n that divides omega."""
    out = 1
    for p, e in factorize(n).items():
        out *= p ** min(e, omega.v(p))
    return out


def _closed_residual(G: FiniteGroup, spec: ClassSpec) -> tuple[int, ...] | None:
    """The residual's element tuple by its closed form (see `residual`), or
    None when the spec has none."""
    if isinstance(spec, SolubleClass):
        return derived_series(G, tuple(range(G.order)))[-1]
    if isinstance(spec, AbelianClass):
        return derived_subgroup(G, tuple(range(G.order)))
    if isinstance(spec, ExponentBoundedClass):
        base = _closed_residual(G, spec.base)
        if base is None:
            return None
        table = G.table
        power_of = {o: _omega_part(o, spec.omega) for o in set(G.element_order)}
        seed = list(base)
        for g, o in enumerate(G.element_order):
            if (n := power_of[o]) < o:  # else g^n(g) is the identity
                x = g
                for _ in range(n - 1):
                    x = table[x][g]
                seed.append(x)
        return _closure(table, seed)
    return None


def _residual_by_quotients(G: FiniteGroup, spec: ClassSpec) -> Subgroup:
    """The residual as the intersection of the normal subgroups with member
    quotient, with the formation law re-checked on the result."""
    good = []
    for N in normal_subgroups(G):
        Q, _ = quotient(G, N)
        if is_member(Q, spec):
            good.append(N)
    if not good:
        raise EmptyClass(f"no quotient of {G.name} lies in {spec.text()}")
    common = set(good[0].elems)
    for N in good[1:]:
        common &= N.elem_set
    R = Subgroup(G, tuple(sorted(common)))
    Q, _ = quotient(G, R)
    if not is_member(Q, spec):
        for i, N1 in enumerate(good):
            for N2 in good[:i]:
                M = Subgroup(G, tuple(sorted(N1.elem_set & N2.elem_set)))
                QM, _ = quotient(G, M)
                if not is_member(QM, spec):
                    raise NotAFormationWitness(
                        f"{spec.text()} is not a formation: quotients by normals of "
                        f"orders {N1.order} and {N2.order} are members, "
                        f"the quotient by their intersection is not")
        raise NotAFormationWitness(
            f"{spec.text()} violates the formation law on {G.name}")
    return R


def product_member(G: FiniteGroup, inner: ClassSpec, outer: ClassSpec) -> bool:
    """Whether the `outer`-residual of G lies in `inner`."""
    return is_member(residual(G, outer).as_group(), inner)


def local_member(G: FiniteGroup, h) -> bool:
    """Local-definition membership: for every chief factor and every prime p
    dividing its order, G modulo the factor's centralizer lies in h(p)."""
    series = chief_series(G)
    for i, order in enumerate(series.factor_orders):
        Q, _ = quotient(G, series.centralizers[i])
        for p in prime_divisors(order):
            if not is_member(Q, h(p)):
                return False
    return True


def exponent_formation_member(G: FiniteGroup, fn: ExponentFunction) -> bool:
    """Membership in the soluble class defined by an exponent function:
    soluble, and for each prime p dividing |G| the residual R for soluble
    groups of exponent dividing fn(p) is a soluble p'-group.

    R is closed in G's own table (see `residual`) and only its order is read:
    as a subgroup of the soluble G it is soluble, so it is a soluble p'-group
    exactly when p does not divide |R|.  Primes not dividing |G| are skipped:
    a soluble p'-group lies in that factor class automatically.
    """
    if not is_member(G, SOLUBLE):
        return False
    for p in prime_divisors(G.order):
        if len(_closed_residual(G, sigma(fn.at(p)))) % p == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Criticality


def is_minimal_non(G: FiniteGroup, spec: ClassSpec) -> bool:
    """G is outside the class while every proper subgroup is inside.

    This is the definition, decided over G's whole subgroup lattice; it
    serves any spec, and it is the oracle for `is_schmidt`.
    """
    if is_member(G, spec):
        return False
    return all(is_member(H.as_group(), spec)
               for H in all_subgroups(G).subgroups if not H.is_full())


def is_schmidt(G: FiniteGroup) -> bool:
    """Non-nilpotent with every proper subgroup nilpotent, decided by a scan
    of zuppo pairs inside G's table, with no subgroup lattice.

    G is a Schmidt group exactly when it is not nilpotent and no pair of
    zuppo generators (`structure.zuppos`), x a p-element and y a q-element with
    p != q, generates a proper non-nilpotent subgroup.  Nilpotence of
    U = <x, y> is counted in G's element orders (`_orders_nilpotent`).

    Exact: a witness is a proper non-nilpotent subgroup.  Conversely a
    proper non-nilpotent U contains a Schmidt subgroup S, and by Schmidt's
    theorem (O. Yu. Schmidt, 1924; Huppert, Endliche Gruppen I, Satz
    III.5.2) S = P<y>, with P its normal Sylow p-subgroup, <y> a cyclic
    Sylow q-subgroup, and P/Phi(P) a chief factor of S.  For x in P outside
    Phi(P), the y-conjugates of x span a nonzero <y>-invariant subspace of
    P/Phi(P), so they generate P modulo Phi(P), hence P, and S = <x, y>.
    The least generators of <x> and <y> are again such a pair, with the
    same closure.
    """
    if is_member(G, NILPOTENT):
        return False
    table = G.table
    orders = G.element_order
    by_prime: dict[int, list[int]] = {}
    for z in zuppos(G):
        by_prime.setdefault(prime_divisors(orders[z])[0], []).append(z)
    per_prime = sorted(by_prime.items())
    # <x, y> = <y, x>, so each pair of primes is scanned once
    for i, (_, xs) in enumerate(per_prime):
        for _, ys in per_prime[i + 1:]:
            for x in xs:
                for y in ys:
                    U = _closure(table, (x, y))
                    if (len(U) < G.order
                            and not _orders_nilpotent([orders[u] for u in U])):
                        return False
    return True


# ---------------------------------------------------------------------------
# Text syntax
#
#   spec := trivial | abelian | A | nilpotent | N | soluble | S | supersoluble
#         | U | all | vU
#         | p_groups:P | p_nilpotent:P
#         | S_pi:{P,..} | S_pi:P | S_pi':{P,..} | S_pi':P
#         | sylow_tower:P>P>..
#         | S(sn) | bounded(spec;sn)
#         | prod(spec,spec) | cap(spec,..) | vstar(spec)
#         | local(P->spec,..,default->spec) | reg(expfn)


_NAMED = {
    "trivial": TRIVIAL,
    "abelian": ABELIAN,
    "A": ABELIAN,
    "nilpotent": NILPOTENT,
    "N": NILPOTENT,
    "soluble": SOLUBLE,
    "S": SOLUBLE,
    "supersoluble": SUPERSOLUBLE,
    "U": SUPERSOLUBLE,
    "all": ALL_GROUPS,
    "vU": V_SUPERSOLUBLE,
}


def parse_spec(text: str) -> ClassSpec:
    check_nesting(text)
    return _parse_spec(text)


def _parse_spec(text: str) -> ClassSpec:
    s = text.strip()
    if not s:
        raise SpecSyntaxError("empty class spec")
    if s in _NAMED:
        return _NAMED[s]
    if "(" in s and s.endswith(")"):
        head, _, rest = s.partition("(")
        head = head.strip()
        body = rest[:-1]
        if head == "S":
            if body.strip().startswith("omega="):
                body = body.strip()[len("omega="):]
            return sigma(parse_supernatural(body))
        if head == "bounded":
            # omega holds no ')' but may hold ';default=...', so the spec ends
            # at the first ';' after the last ')'
            tail = body.rfind(")") + 1
            spec_tail, sep, sn_text = body[tail:].partition(";")
            spec_text = body[:tail] + spec_tail
            if not (sep and spec_text):
                raise SpecSyntaxError(f"bounded needs 'spec;omega' in {text!r}")
            return ExponentBoundedClass(_parse_spec(spec_text), parse_supernatural(sn_text))
        if head == "prod":
            args = split_args(body)
            if len(args) != 2:
                raise SpecSyntaxError(f"prod takes two specs in {text!r}")
            return ProductClass(_parse_spec(args[0]), _parse_spec(args[1]))
        if head == "cap":
            args = split_args(body)
            if len(args) < 2:
                raise SpecSyntaxError(f"cap needs at least two specs in {text!r}")
            return IntersectionClass(tuple(_parse_spec(a) for a in args))
        if head == "vstar":
            return VStarClass(_parse_spec(body))
        if head == "reg":
            return ExponentFormationClass(parse_exponent_function(body))
        if head == "local":
            entries, default = parse_entries(split_args(body), text, repr(text), _parse_spec)
            if default is None:
                raise SpecSyntaxError(f"local needs a default entry in {text!r}")
            return LocalClass(tuple(sorted(entries.items())), default)
        raise SpecSyntaxError(f"unknown spec constructor {head!r}")
    if ":" in s:
        head, _, arg = s.partition(":")
        head = head.strip()
        arg = arg.strip()
        if head == "p_groups":
            return PGroupsClass(parse_prime(arg, text))
        if head == "p_nilpotent":
            return PNilpotentClass(parse_prime(arg, text))
        if head in ("S_pi", "S_pi'"):
            inner = arg[1:-1] if arg.startswith("{") and arg.endswith("}") else arg
            primes = [parse_prime(t, text) for t in inner.split(",")]
            return soluble_pi(primes, complement=head.endswith("'"))
        if head == "sylow_tower":
            primes = [parse_prime(t, text) for t in arg.split(">")]
            return SylowTowerClass(PrimeOrdering(tuple(primes)))
        raise SpecSyntaxError(f"unknown spec family {head!r}")
    raise SpecSyntaxError(f"cannot parse class spec {text!r}")
