"""Closed-form skew-morphism families on Z_{4p}.

For an odd prime p, every proper skew morphism of Z_{4p} is a map
a -> a + d[a mod 4] (residues mod 4p) for one shift table d:

  x and y: (0, s, 0, s), the odd shifts by every even s in [2, 4p) but 2p
           (s = 0 is the identity, s = 2p the automorphism a -> (2p+1)a);
  z:       (0, s, s(w+1), sw) for s = 4i, i in [1, p), and each w with
           w^2 = -1 mod p (so only for p = 1 mod 4).

Each member is verified; orders and kernels are measured from the
verified object rather than hard-coded.  (The shifts by s = 2 mod 4
have order 2p and those by s = 0 mod 4 order p; per-family order claims
floating around for these maps have the two swapped, so only the
measured values and the combined multiset are trusted.)
"""

from __future__ import annotations

from .cyclic_arith import factorize
from .skew_core import SkewMorphism, verify


# family_4p holds all 4p - 4 members; on a 2-core Xeon p = 401 took 2.2 s and 140 MB
FAMILY_MAX_P = 199


def sqrt_minus_one(p: int) -> list[int]:
    """Both solutions of w^2 = -1 mod p (empty unless p = 1 mod 4)."""
    return [w for w in range(1, p) if (w * w + 1) % p == 0]


def family_4p(p: int) -> list[SkewMorphism]:
    """All family members for one odd prime p, sorted by image sequence.

    2p - 2 maps for p = 3 mod 4 and 4p - 4 for p = 1 mod 4.  p above
    FAMILY_MAX_P is refused before any member is built.
    """
    if p > FAMILY_MAX_P:
        raise ValueError(f"p must be at most {FAMILY_MAX_P}, got {p}")
    if not (p > 2 and list(factorize(p)) == [p]):
        raise ValueError(f"p must be an odd prime, got {p}")
    n = 4 * p
    shifts = [(0, s, 0, s) for s in range(2, n, 2) if s != 2 * p]
    shifts += [(0, s, s * (w + 1), s * w) for w in sqrt_minus_one(p) for s in range(4, n, 4)]
    members = [verify(n, tuple((a + d[a % 4]) % n for a in range(n))) for d in shifts]
    return sorted(members, key=lambda m: m.images)
