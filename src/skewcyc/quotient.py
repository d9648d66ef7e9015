"""Quotients of skew morphisms of Z_n.

Every skew morphism f of Z_n with order m induces a skew morphism of
Z_m relative to a chosen generator g of Z_n, called the quotient of f.
With the generator orbit t_i = f^i(g), the quotient is given in closed
form by partial sums of power-function values:

    Q(k) = sum_{i<k} pi(t_i)   (mod m),   k in [0, m).

The quotient classifies f: it is the identity exactly when f is an
automorphism, and (for proper f) a non-trivial automorphism exactly
when f is coset-preserving.  `check_quotient_laws` exposes the three
compatibility laws between f and Q as a checkable report, and
`quotient_for_generator` uses them to compute the quotient for any other
generator from the quotient for 1 alone.

Many morphisms share a quotient: the 24,385 skew morphisms of Z_n for
n in 2..161 have 1,312 distinct quotients for the generator 1.  `verify`
is a pure function of (m, images), so each distinct quotient is verified
once per process, through `skew_core._verified_once`, an unbounded cache
that the census bounds; the postconditions that relate f to its quotient
still run on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import gcd

from .skew_core import (
    InternalCheckError,
    SkewMorphism,
    SkewMorphismError,
    _require,
    _verified_once,
)


class QuotientNotSkewError(InternalCheckError):
    """The partial-sum quotient failed verification: an implementation bug."""


def generator_orbit(phi: SkewMorphism, g: int) -> list[int]:
    """The orbit g, f(g), ..., f^{ord-1}(g); always of length ord(f)."""
    orbit = [g % phi.n]
    for _ in range(phi.order - 1):
        orbit.append(phi.images[orbit[-1]])
    _require(len(set(orbit)) == phi.order, "generator orbit must have ord(f) elements")
    return orbit


def quotient_of(phi: SkewMorphism, g: int = 1) -> SkewMorphism:
    """The quotient of f on Z_ord(f) with respect to the generator g (default 1)."""
    n = phi.n
    if gcd(g, n) != 1:
        raise ValueError(f"{g} is not a unit mod {n}")
    m = phi.order
    orbit = generator_orbit(phi, g)
    imgs = []
    acc = 0
    for i in range(m):
        imgs.append(acc % m)
        acc += phi.pi[orbit[i]]
    try:
        q = _verified_once(m, tuple(imgs))
    except SkewMorphismError as exc:
        raise QuotientNotSkewError(f"quotient of {phi!r} failed verification: {exc}") from exc

    _require(q.order == n // phi.kernel_order, "ord of quotient must be n/|kernel|")
    _require(q.is_identity == phi.automorphism, "identity quotient iff automorphism")
    if phi.proper:
        _require(
            q.automorphism == phi.coset_preserving,
            "automorphism quotient iff coset-preserving (proper case)",
        )
    return q


def quotient_for_generator(rho: SkewMorphism, u: int) -> tuple[int, ...]:
    """Images of the quotient for the generator u of any f whose quotient
    for the generator 1 is rho, computed from rho alone.

    Theorem: let m = rho.n = ord(f), R = ord(rho) and c_y = rho^y(1).  Law
    (a) gives pi(a) = c_(a mod R) (mod m), and law (c) gives
    f^j(1) = pi_rho(j) (mod R).  The kernel of f is the subgroup of order
    n/R, so f maps the coset x + K to f(x) + K, and
    f(x) = sum_{y<x} f^(pi(y))(1) gives the induced map on Z_R,
    fbar(x) = sum_{y<x} pi_rho(c_y) (mod R).  Then f^i(u) = x_i (mod R)
    with x_0 = u mod R, x_(i+1) = fbar(x_i), and
    Q^(u)(k) = sum_{i<k} pi(f^i(u)) = sum_{i<k} c_(x_i)   (mod m).
    The value depends on u mod R only.  For a unit t of Z_n, g = t*f*t^{-1}
    has pi_g(a) = pi(t^{-1} a) and g^i(1) = t*f^i(t^{-1}) (see
    `skew_core.conjugates`), so Q(g)(k) = sum_{i<k} pi(f^i(t^{-1})): the
    quotient of t*f*t^{-1} is Q^(t^{-1})(f).  For a rho with no lift the
    result is only a tuple of m residues.
    """
    m, big_r = rho.n, rho.order
    if gcd(u, big_r) != 1:
        raise ValueError(f"{u} is not a unit mod {big_r}")
    c = [1 % m]
    for _ in range(big_r - 1):
        c.append(rho.images[c[-1]])
    fbar = list(accumulate((rho.pi[y] for y in c), initial=0))
    imgs = []
    acc, x = 0, u % big_r
    for _ in range(m):
        imgs.append(acc % m)
        acc += c[x]
        x = fbar[x] % big_r
    return tuple(imgs)


@dataclass
class QuotientLawReport:
    """Outcome of the quotient-law checks against `quotient`, the quotient
    of f for the generator; an empty failure list means pass."""

    n: int
    generator_g: int
    quotient: SkewMorphism
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


def check_quotient_laws(phi: SkewMorphism, g: int = 1) -> QuotientLawReport:
    """Check the three compatibility laws between f and its quotient Q.

    (a) pi(k*g) = Q^k(1) (mod m) for all k in [0, n);
    (b) the periodicity of f equals m / |ker Q|;
    (c) the coset index of f^k(g) equals Q's power function at k (mod ord Q).
    """
    n = phi.n
    if n == 1:
        g = 0  # Z_1 has only the zero residue
    q = quotient_of(phi, g)
    m = q.n
    failures: list[str] = []

    # (a): walk the Q-orbit of the quotient generator alongside pi
    if m == 1:
        if any(v != 1 for v in phi.pi):
            failures.append("law (a): trivial quotient but non-constant power function")
    else:
        z = 1
        for k in range(n):
            if phi.pi[k * g % n] % m != z % m:
                failures.append(
                    f"law (a) fails at k={k}: pi={phi.pi[k * g % n]} vs Q^k(1)={z}"
                )
                break
            z = q.images[z]

    # (b): periodicity from the kernel of the quotient
    expect_p = m // q.kernel_order
    if phi.periodicity != expect_p:
        failures.append(
            f"law (b) fails: periodicity {phi.periodicity} != m/|ker Q| = {expect_p}"
        )

    # (c): the coset index t of x = f^k(g), x in K + t*g, is x * g^{-1} mod
    # n/|K| = ord Q; walk x alongside k (for ord Q = 1 both sides are 0)
    r = q.order
    if r > 1:
        g_inv = pow(g, -1, r)
        x = g % n
        for k in range(m):
            got, want = x * g_inv % r, q.pi[k] % r
            if got != want:
                failures.append(f"law (c) fails at k={k}: coset index {got} != pi_bar {want}")
                break
            x = phi.images[x]

    return QuotientLawReport(n=n, generator_g=g, quotient=q, failures=failures)
