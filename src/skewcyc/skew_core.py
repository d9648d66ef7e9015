"""Skew morphisms of Z_n as verified value objects.

A skew morphism of the cyclic group Z_n (written additively) is a
permutation f of {0, ..., n-1} with f(0) = 0 such that for every a
there is an exponent i_a with

    f(a + x) = f(a) + f^{i_a}(x)   (mod n)   for all x,

where f^i is the i-th iterate.  The map a -> i_a, normalised into
[1, ord(f)], is the power function pi.  Automorphisms are exactly the
skew morphisms with pi identically 1.

`verify` checks the defining identity exhaustively and returns an
immutable `SkewMorphism` carrying the permutation together with its
power function, order, kernel, periodicity and classification flags.
It needs no table of all iterates: at x = 1 the identity reads
f(a + 1) - f(a) = f^{i_a}(1), so i_a is fixed modulo the length of the
orbit of 1 by the position of that difference on the orbit, and each
remaining candidate exponent is confirmed or refuted by comparing one
whole row.  For a skew morphism the orbit of 1 has exactly ord(f)
points, so one candidate is left.  All cached fields are computed (and
cross-checked) eagerly, so a constructed value satisfies every
structural invariant by construction.

Conjugation by a unit of Z_n maps skew morphisms to skew morphisms with
the same order, kernel order, periodicity and flags, so `conjugates`
builds the whole orbit of a verified value by gathers, with no further
`verify`; it is the one way conjugates are built, and
`equivalence_classes` builds one such orbit per class.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cache, lru_cache
from math import gcd, lcm
from operator import index, itemgetter

from .cyclic_arith import euler_phi, mult_order, units


class SkewMorphismError(Exception):
    """A candidate permutation failed skew-morphism verification."""


class NotPermutationError(SkewMorphismError):
    """The image list is not a permutation of [0, n)."""


class IdentityNotFixedError(SkewMorphismError):
    """The image of 0 is not 0."""


class NoPowerExponentError(SkewMorphismError):
    """No exponent works for some element; `element` is the witness."""

    def __init__(self, element: int):
        self.element = element
        super().__init__(f"no power exponent exists for element {element}")


class NotInKernelError(SkewMorphismError):
    """Requested subgroup is not contained in the kernel."""


class NotPreservedError(SkewMorphismError):
    """Requested subgroup is not preserved by the morphism."""


class InternalCheckError(AssertionError):
    """A theorem-backed postcondition failed: an implementation bug."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InternalCheckError(msg)


@dataclass(frozen=True)
class SkewMorphism:
    """A verified skew morphism of Z_n.  Construct via `verify`.

    Immutable; safe to share freely.  `images[a]` is f(a), `pi[a]` is
    the power-function value in [1, order].  The kernel is the set
    {a : pi[a] = 1}; for Z_n it is always the subgroup of order
    `kernel_order`, i.e. the multiples of n // kernel_order.
    """

    n: int
    images: tuple[int, ...]
    pi: tuple[int, ...]
    order: int
    kernel_order: int
    periodicity: int
    coset_preserving: bool
    automorphism: bool

    @property
    def is_identity(self) -> bool:
        return self.order == 1

    @property
    def proper(self) -> bool:
        return not self.automorphism

    def canonical_str(self) -> str:
        """Canonical textual form: comma-separated image list."""
        return ",".join(map(str, self.images))

    def __repr__(self) -> str:  # compact: full image list is available via str form
        kind = "automorphism" if self.automorphism else "proper skew morphism"
        return (
            f"<{kind} of Z_{self.n}: [{self.canonical_str()}], "
            f"order={self.order}, kernel={self.kernel_order}>"
        )


def _cycles(images: tuple[int, ...]) -> tuple[list[list[int]], int]:
    """The cycles of a permutation of [0, n), each listed from its least
    element and in order of that element, and the order of the
    permutation: the lcm of the cycle lengths."""
    n = len(images)
    seen = bytearray(n)
    cycles = []
    order = 1
    for start in range(n):
        if seen[start]:
            continue
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = 1
            cycle.append(x)
            x = images[x]
        cycles.append(cycle)
        order = lcm(order, len(cycle))
    return cycles, order


def _check_permutation(n: int, images: tuple[int, ...]) -> None:
    if len(images) != n:
        raise NotPermutationError(f"expected {n} images, got {len(images)}")
    if sorted(images) != list(range(n)):
        raise NotPermutationError(f"images are not a permutation of [0, {n})")
    if images[0] != 0:
        raise IdentityNotFixedError(f"images[0] = {images[0]} != 0")


def power_table(images: tuple[int, ...], count: int) -> list[tuple[int, ...]]:
    """The iterates f^0, ..., f^{count-1} as image tuples.

    f^(k+1) = f^k o f, so each row is one gather of the previous row at
    the images (n < 2 has only the identity row, and itemgetter of one
    index would return a bare item).
    """
    n = len(images)
    step = itemgetter(*images) if n >= 2 else tuple
    table = [tuple(range(n))]
    for _ in range(count - 1):
        table.append(step(table[-1]))
    return table


def verify(n: int, images) -> SkewMorphism:
    """Verify the defining identity and build the SkewMorphism value.

    Images are converted with `operator.index`: ints and numpy integers
    pass, anything else (a float, a string) is not a permutation.  At
    x = 1 the identity says d = f(a+1) - f(a) is f^i(1), so if d is off
    the orbit of 1, a is the witness; otherwise i is the number of steps
    from 1 to d modulo L1, the length of that orbit.  Each such i below
    ord(f) is checked on the whole row, f(a+x) = f(a) + f^i(x) for all x,
    with f^i read off the cycles once per exponent that occurs.  The
    iterates below ord(f) are distinct, so at most one candidate matches;
    normalised into [1, ord], it is pi[a].  Raises NotPermutationError /
    IdentityNotFixedError / NoPowerExponentError (the latter carrying the
    least witness element) when the candidate is not a skew morphism.
    """
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n}")
    try:
        images = tuple(map(index, images))
    except TypeError:
        raise NotPermutationError(f"images are not a permutation of [0, {n})") from None
    _check_permutation(n, images)
    cycles, order = _cycles(images)
    if n == 1:  # the identity of Z_1, whose iterates are all `images`; the row
        # check below needs n >= 2, where itemgetter returns tuples
        return _finish(n, images, (1,), order, lambda i: images)

    where = [0] * n  # where[x]: the position of x in the cycles laid end to end
    k = 0
    for cycle in cycles:
        for x in cycle:
            where[x] = k
            k += 1
    read_back = itemgetter(*where)
    rows: dict[int, tuple[int, ...]] = {}

    def iterate(i: int) -> tuple[int, ...]:
        """Images of f^i: each cycle rotated by i, read back in place."""
        row = rows.get(i)
        if row is None:
            rotated = []
            for cycle in cycles:
                r = i % len(cycle)
                rotated += cycle[r:]
                rotated += cycle[:r]
            row = rows[i] = read_back(rotated)
        return row

    # cycles[1] is the orbit 1, f(1), f^2(1), ...; steps[y] = t for y = f^t(1)
    steps = [-1] * n
    for t, y in enumerate(cycles[1]):
        steps[y] = t
    l1 = len(cycles[1])
    add = tuple(range(n)) * 2
    img2 = images + images
    # checks[i](add[c:c+n]) is the row (c + f^i(x)) mod n over x in [0, n), so the
    # identity holds at a with exponent i iff it equals img2[a:a+n], the row f(a+x)
    checks: list = [None] * order

    pi: list[int] = []
    for a in range(n):
        c = images[a]
        # the difference lies in (-n, n): a negative index reads steps[d + n]
        i = steps[img2[a + 1] - c]
        if i < 0:
            raise NoPowerExponentError(a)
        shifted, want = add[c : c + n], img2[a : a + n]
        while i < order:
            check = checks[i]
            if check is None:
                check = checks[i] = itemgetter(*iterate(i))
            if check(shifted) == want:
                break
            i += l1
        else:
            raise NoPowerExponentError(a)
        pi.append(i or order)

    return _finish(n, images, tuple(pi), order, iterate)


def _finish(
    n: int,
    images: tuple[int, ...],
    pi: tuple[int, ...],
    order: int,
    iterate: Callable[[int], tuple[int, ...]],
) -> SkewMorphism:
    """Kernel, flags and periodicity, with theorem-backed postconditions."""
    _require(pi[0] == 1, "pi(0) must be 1")

    kord = pi.count(1)
    _require(n % kord == 0, f"kernel size {kord} does not divide {n}")
    step = n // kord
    # kord points have pi = 1 and there are kord multiples of step, so the
    # kernel is the subgroup of order kord iff pi is 1 on every multiple
    _require(pi[::step] == (1,) * kord, "kernel is not the subgroup of its order")
    _require(
        sorted(images[::step]) == list(range(0, n, step)),
        "kernel is not preserved by the morphism",
    )

    if n >= 2:
        _require(order < n, f"order {order} not below group order {n}")
        _require(kord >= 2, "kernel must be non-trivial")
    _require(n * euler_phi(n) % order == 0, f"order {order} does not divide n*phi(n)")

    automorphism = kord == n
    _require(gcd(order, n) != 1 or automorphism, "order coprime to n forces an automorphism")
    # pi o f, as one gather (map, since itemgetter of one index returns a bare item)
    coset_preserving = tuple(map(pi.__getitem__, images)) == pi

    if order == 1:
        periodicity = 1
    else:
        # periodicity of the generator 1 first ...
        p1, x = 1, images[1]
        while pi[x] != pi[1]:
            x = images[x]
            p1 += 1
        _require(p1 < order, "periodicity must be below the order")
        # ... which must already work for every element
        _require(
            itemgetter(*iterate(p1))(pi) == pi,
            "periodicity of the generator differs from global periodicity",
        )
        periodicity = p1
    _require(coset_preserving == (periodicity == 1), "flag mismatch for periodicity 1")

    return SkewMorphism(
        n=n,
        images=images,
        pi=pi,
        order=order,
        kernel_order=kord,
        periodicity=periodicity,
        coset_preserving=coset_preserving,
        automorphism=automorphism,
    )


def automorphism_of(n: int, s: int) -> SkewMorphism:
    """The automorphism a -> s*a of Z_n, for s a unit mod n, in closed form:
    pi is 1 everywhere, the order is that of s mod n, the periodicity 1."""
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n}")
    if gcd(s, n) != 1:
        raise ValueError(f"{s} is not a unit mod {n}")
    return SkewMorphism(
        n=n,
        images=tuple(s * a % n for a in range(n)),
        pi=(1,) * n,
        order=mult_order(s, n),
        kernel_order=n,
        periodicity=1,
        coset_preserving=True,
        automorphism=True,
    )


def power(phi: SkewMorphism, e: int) -> tuple[int, ...]:
    """Images of the e-fold iterate f^e (a raw permutation, not checked skew)."""
    if e < 0:
        raise ValueError(f"expected e >= 0, got {e}")
    e %= phi.order
    result = tuple(range(phi.n))
    if phi.n < 2:  # only the identity; itemgetter of one index returns a bare item
        return result
    base = phi.images
    while e:  # square and multiply, each composition one gather: (g o h)(x) = g[h[x]]
        if e & 1:
            result = itemgetter(*result)(base)
        base = itemgetter(*base)(base)
        e >>= 1
    return result


def induced_on_quotient(phi: SkewMorphism, n_order: int) -> SkewMorphism:
    """The skew morphism induced on Z_n / N for N the subgroup of order n_order.

    N must lie in the kernel and be preserved by f; the result acts on
    residues mod n // n_order.
    """
    n = phi.n
    if n_order < 1 or n % n_order != 0:
        raise ValueError(f"no subgroup of order {n_order} in Z_{n}")
    gen = n // n_order  # N = <gen>, and x + N is determined by x mod gen
    for a in range(0, n, gen):
        if phi.pi[a] != 1:
            raise NotInKernelError(f"subgroup of order {n_order} not inside the kernel")
    for a in range(0, n, gen):
        if phi.images[a] % gen != 0:
            raise NotPreservedError(f"subgroup of order {n_order} not preserved")
    q = gen
    reduced = tuple(x % q for x in phi.images)
    images_bar = reduced[:q]
    # f(a) mod q depends on a mod q alone: the reduced images repeat with period q
    _require(reduced == images_bar * n_order, "induced map is not well-defined on cosets")
    return _verified_once(q, images_bar)


@cache
def _verified_once(n: int, images: tuple[int, ...]) -> SkewMorphism:
    """`verify(n, images)`, once per distinct argument and process (a
    failure is not cached).  The morphisms of one census share few
    quotients and induced maps, so this caches both; it calls `verify` by
    its module-global name, so a patched `verify` sees every miss."""
    return verify(n, images)


@lru_cache(maxsize=1)
def _unit_gathers(n: int) -> list[tuple[tuple[int, ...], itemgetter]]:
    """For each unit t of Z_n, n >= 2, in ascending order: the images of
    a -> t*a, and the gather that reads any tuple x at the points t^{-1}*a,
    giving (x[t^{-1} a])_a."""
    times = {t: tuple(t * a % n for a in range(n)) for t in units(n)}
    return [(times[t], itemgetter(*times[pow(t, -1, n)])) for t in times]


def conjugates(phi: SkewMorphism) -> dict[tuple[int, ...], SkewMorphism]:
    """Every conjugate of phi under Aut(Z_n), keyed by image tuple.

    Theorem: for a unit t of Z_n, g(a) = t*f(t^{-1} a) is again a skew
    morphism, with power function pi_g(a) = pi(t^{-1} a).  Indeed
    g^i(x) = t*f^i(t^{-1} x), so
    g(a + x) = t*f(t^{-1}a) + t*f^{pi(t^{-1}a)}(t^{-1}x) = g(a) + g^{pi(t^{-1}a)}(x).
    Conjugation keeps the order, and it maps the kernel onto t*kernel, of
    the same order, and kernel cosets onto kernel cosets, so the kernel
    order, the periodicity and both flags are unchanged.  The values are
    therefore built, not verified: two gathers give g, one gives pi_g.
    """
    if phi.n == 1:
        return {phi.images: phi}
    orbit: dict[tuple[int, ...], SkewMorphism] = {}
    for times_t, at_tinv in _unit_gathers(phi.n):
        images = itemgetter(*at_tinv(phi.images))(times_t)
        if images not in orbit:
            orbit[images] = SkewMorphism(
                n=phi.n,
                images=images,
                pi=at_tinv(phi.pi),
                order=phi.order,
                kernel_order=phi.kernel_order,
                periodicity=phi.periodicity,
                coset_preserving=phi.coset_preserving,
                automorphism=phi.automorphism,
            )
    return orbit


@dataclass(frozen=True)
class EquivalenceClass:
    """An orbit under conjugation by Aut(Z_n), with its canonical key."""

    representative: tuple[int, ...]  # lexicographically least image tuple in the orbit
    members: tuple[SkewMorphism, ...] = field(repr=False)


def equivalence_classes(morphisms: list[SkewMorphism]) -> list[EquivalenceClass]:
    """Partition into conjugation orbits, sorted by canonical representative.

    Each orbit is built once by `conjugates`, from the least listed
    morphism not yet placed, and every listed morphism in it joins that
    class.  The representative is the least image tuple of the whole
    orbit, which a list not closed under conjugation may lack; members are
    the listed morphisms of the orbit, sorted by images, repeats kept.
    """
    if not morphisms:
        return []
    n = morphisms[0].n
    if any(phi.n != n for phi in morphisms):
        raise ValueError("all morphisms must act on the same group")
    unplaced: dict[tuple[int, ...], list[SkewMorphism]] = {}
    for phi in sorted(morphisms, key=lambda m: m.images):
        unplaced.setdefault(phi.images, []).append(phi)
    classes = []
    for least in list(unplaced):
        if least not in unplaced:
            continue  # placed with an earlier orbit
        orbit = conjugates(unplaced[least][0])
        members = [phi for key in sorted(orbit) if key in unplaced for phi in unplaced.pop(key)]
        classes.append(EquivalenceClass(min(orbit), tuple(members)))
    return sorted(classes, key=lambda c: c.representative)
