"""Closed-form skew-morphism families on Z_{4p}.

Three parametric families cover all proper skew morphisms of Z_{4p}
for odd primes p.  With residues mod 4p:

  x_s  (s = 4i+2, i in [0,p), i != (p-1)/2):  odd a -> a + s, even fixed
  y_s  (s = 4i,   i in [1,p)):                odd a -> a + s, even fixed
  z_{w,s} (p = 1 mod 4, w^2 = -1 mod p, s = 4i, i in [1,p)):
           a = 1 mod 4 -> a + s,   a = 2 mod 4 -> a + s*(w+1),
           a = 3 mod 4 -> a + s*w, a = 0 mod 4 -> a

Constructors build the literal formulas and then run full
verification; orders and kernels are measured from the verified
object rather than hard-coded.  (The defining formulas give x_s order
2p and y_s order p; per-family order claims floating around for these
maps have the two swapped, so only the measured values and the
combined multiset are trusted.)
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclic_arith import factorize
from .skew_core import SkewMorphism, verify


# family_4p holds all 4p - 4 members; on a 2-core Xeon p = 401 took 2.2 s and 140 MB
FAMILY_MAX_P = 199


def _is_odd_prime(p: int) -> bool:
    return p > 2 and list(factorize(p)) == [p]


@dataclass(frozen=True)
class FamilyParams:
    """Validated parameters (p, kind, s, omega) of one family member."""

    p: int
    kind: str  # "x", "y" or "z"
    s: int
    omega: int | None = None

    def __post_init__(self) -> None:
        p, s = self.p, self.s
        if not _is_odd_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        if self.kind == "x":
            if s % 4 != 2 or not 2 <= s < 4 * p or s == 2 * p:
                raise ValueError(f"x-family needs s = 4i+2, i in [0,{p}) minus (p-1)/2; got s={s}")
            if self.omega is not None:
                raise ValueError("x-family takes no omega")
        elif self.kind == "y":
            if s % 4 != 0 or not 4 <= s < 4 * p:
                raise ValueError(f"y-family needs s = 4i, i in [1,{p}); got s={s}")
            if self.omega is not None:
                raise ValueError("y-family takes no omega")
        elif self.kind == "z":
            if p % 4 != 1:
                raise ValueError(f"z-family needs p = 1 mod 4, got {p}")
            if s % 4 != 0 or not 4 <= s < 4 * p:
                raise ValueError(f"z-family needs s = 4i, i in [1,{p}); got s={s}")
            if self.omega is None or (self.omega * self.omega + 1) % p != 0:
                raise ValueError(f"omega={self.omega} does not solve w^2 = -1 mod {p}")
        else:
            raise ValueError(f"unknown family kind {self.kind!r}")


def _shift_odd(p: int, s: int) -> SkewMorphism:
    n = 4 * p
    return verify(n, tuple(a if a % 2 == 0 else (a + s) % n for a in range(n)))


def make_x(p: int, s: int) -> SkewMorphism:
    """Family member x_s on Z_{4p}: odd residues shifted by s = 4i+2."""
    FamilyParams(p=p, kind="x", s=s)
    return _shift_odd(p, s)


def make_y(p: int, s: int) -> SkewMorphism:
    """Family member y_s on Z_{4p}: odd residues shifted by s = 4i."""
    FamilyParams(p=p, kind="y", s=s)
    return _shift_odd(p, s)


def make_z(p: int, omega: int, s: int) -> SkewMorphism:
    """Family member z_{omega,s} on Z_{4p} (p = 1 mod 4 only).

    omega is an integer solution of w^2 = -1 taken mod p; since s is a
    multiple of 4, the shifts s*w and s*(w+1) are well-defined mod 4p
    regardless of the chosen lift.
    """
    FamilyParams(p=p, kind="z", s=s, omega=omega % p)
    n = 4 * p
    w = omega % p
    shift_by_class = (0, s, s * (w + 1), s * w)  # indexed by a mod 4
    return verify(n, tuple((a + shift_by_class[a % 4]) % n for a in range(n)))


def sqrt_minus_one(p: int) -> list[int]:
    """Both solutions of w^2 = -1 mod p (empty unless p = 1 mod 4)."""
    return [w for w in range(1, p) if (w * w + 1) % p == 0]


def family_4p(p: int) -> list[SkewMorphism]:
    """All family members for one odd prime p, sorted by image sequence.

    Yields p-1 maps of kind x, p-1 of kind y, and (for p = 1 mod 4)
    another 2(p-1) of kind z: 2p-2 maps for p = 3 mod 4 and 4p-4 for
    p = 1 mod 4.  p above FAMILY_MAX_P is refused before any member is built.
    """
    if p > FAMILY_MAX_P:
        raise ValueError(f"p must be at most {FAMILY_MAX_P}, got {p}")
    if not _is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    out = []
    half = (p - 1) // 2
    for i in range(p):
        if i != half:
            out.append(make_x(p, 4 * i + 2))
    for i in range(1, p):
        out.append(make_y(p, 4 * i))
    if p % 4 == 1:
        for w in sqrt_minus_one(p):
            for i in range(1, p):
                out.append(make_z(p, w, 4 * i))
    return sorted(out, key=lambda m: m.images)
