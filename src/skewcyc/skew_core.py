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
All cached fields are computed (and cross-checked) eagerly, so a
constructed value satisfies every structural invariant by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, lcm

from .cyclic_arith import euler_phi, units


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


def perm_order(images: tuple[int, ...] | list[int]) -> int:
    """Order of a permutation of [0, n): lcm of its cycle lengths."""
    n = len(images)
    seen = bytearray(n)
    order = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = 1
            x = images[x]
            length += 1
        order = lcm(order, length)
    return order


def _check_permutation(n: int, images: tuple[int, ...]) -> None:
    if len(images) != n:
        raise NotPermutationError(f"expected {n} images, got {len(images)}")
    seen = bytearray(n)
    for v in images:
        if not isinstance(v, int) or not 0 <= v < n or seen[v]:
            raise NotPermutationError(f"images are not a permutation of [0, {n})")
        seen[v] = 1
    if images[0] != 0:
        raise IdentityNotFixedError(f"images[0] = {images[0]} != 0")


def power_table(images: tuple[int, ...], count: int) -> list[tuple[int, ...]]:
    """The iterates f^0, ..., f^{count-1} as image tuples."""
    n = len(images)
    table = [tuple(range(n))]
    for _ in range(count - 1):
        prev = table[-1]
        table.append(tuple(images[x] for x in prev))
    return table


def verify(n: int, images) -> SkewMorphism:
    """Verify the defining identity and build the SkewMorphism value.

    The exponent test precomputes all iterates f^0..f^{ord-1}, indexes
    them by their full image tuple, and checks for each a that the
    difference map x -> f(a+x) - f(a) is one of them.  The matching
    iterate index, normalised into [1, ord], is pi[a].  Raises
    NotPermutationError / IdentityNotFixedError / NoPowerExponentError
    (the latter carrying the witness element) when the candidate is
    not a skew morphism.
    """
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n}")
    images = tuple(int(v) for v in images)
    _check_permutation(n, images)
    order = perm_order(images)

    pows = power_table(images, order)
    index = {row: j for j, row in enumerate(pows)}
    img2 = images + images
    # difference values lie in (-n, n); table lookup beats a Python-level %.
    mod = [k % n for k in range(-n + 1, n)]
    shift = n - 1

    pi: list[int] = []
    for a in range(n):
        off = shift - images[a]
        row = tuple(mod[img2[a + x] + off] for x in range(n))
        j = index.get(row)
        if j is None:
            raise NoPowerExponentError(a)
        pi.append(order if j == 0 else j)

    return _finish(n, images, tuple(pi), order, pows)


def _finish(
    n: int,
    images: tuple[int, ...],
    pi: tuple[int, ...],
    order: int,
    pows: list[tuple[int, ...]],
) -> SkewMorphism:
    """Kernel, flags and periodicity, with theorem-backed postconditions."""
    _require(pi[0] == 1, "pi(0) must be 1")

    kernel = [a for a in range(n) if pi[a] == 1]
    kord = len(kernel)
    _require(n % kord == 0, f"kernel size {kord} does not divide {n}")
    step = n // kord
    _require(
        all(a % step == 0 for a in kernel),
        "kernel is not the subgroup of its order",
    )
    _require(
        all(images[a] % step == 0 for a in kernel),
        "kernel is not preserved by the morphism",
    )

    if n >= 2:
        _require(order < n, f"order {order} not below group order {n}")
        _require(kord >= 2, "kernel must be non-trivial")
    _require(n * euler_phi(n) % order == 0, f"order {order} does not divide n*phi(n)")

    automorphism = kord == n
    _require(gcd(order, n) != 1 or automorphism, "order coprime to n forces an automorphism")
    coset_preserving = all(pi[images[a]] == pi[a] for a in range(n))

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
        fp = pows[p1]
        _require(
            all(pi[fp[a]] == pi[a] for a in range(n)),
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
    """The automorphism a -> s*a of Z_n, for s a unit mod n."""
    if n < 1:
        raise ValueError(f"expected n >= 1, got {n}")
    if gcd(s, n) != 1:
        raise ValueError(f"{s} is not a unit mod {n}")
    phi = verify(n, tuple(s * a % n for a in range(n)))
    _require(phi.automorphism, "multiplication by a unit must be an automorphism")
    return phi


def power(phi: SkewMorphism, e: int) -> tuple[int, ...]:
    """Images of the e-fold iterate f^e (a raw permutation, not checked skew)."""
    if e < 0:
        raise ValueError(f"expected e >= 0, got {e}")
    e %= phi.order
    result = tuple(range(phi.n))
    base = phi.images
    while e:
        if e & 1:
            result = tuple(base[x] for x in result)
        base = tuple(base[x] for x in base)
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
    images_bar = tuple(phi.images[x] % q for x in range(q))
    for a in range(n):
        _require(
            phi.images[a] % q == images_bar[a % q],
            "induced map is not well-defined on cosets",
        )
    return verify(q, images_bar)


def conjugate_images(phi: SkewMorphism, t: int) -> tuple[int, ...]:
    """Images of a -> t * f(t^{-1} a), without verification."""
    n = phi.n
    tinv = pow(t, -1, n)
    return tuple(t * phi.images[tinv * a % n] % n for a in range(n))


@dataclass(frozen=True)
class EquivalenceClass:
    """An orbit under conjugation by Aut(Z_n), with its canonical key."""

    representative: tuple[int, ...]  # lexicographically least image tuple in the orbit
    members: tuple[SkewMorphism, ...] = field(repr=False)


def equivalence_classes(morphisms: list[SkewMorphism]) -> list[EquivalenceClass]:
    """Partition into conjugation orbits, sorted by canonical representative."""
    if not morphisms:
        return []
    n = morphisms[0].n
    if any(phi.n != n for phi in morphisms):
        raise ValueError("all morphisms must act on the same group")
    us = units(n) or [1]
    buckets: dict[tuple[int, ...], list[SkewMorphism]] = {}
    for phi in morphisms:
        canon = min(conjugate_images(phi, t) for t in us)
        buckets.setdefault(canon, []).append(phi)
    return [
        EquivalenceClass(rep, tuple(sorted(members, key=lambda m: m.images)))
        for rep, members in sorted(buckets.items())
    ]
