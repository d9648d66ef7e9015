"""Independent brute-force oracles for the test suite.

Deliberately structured differently from the library: no power-table
dictionary, no early pruning.  Everything is checked by direct loops
over all pairs, so these can serve as ground truth for small n.
"""

from __future__ import annotations

import json
from dataclasses import replace
from itertools import accumulate, product
from math import gcd

from skewcyc.cyclic_arith import mult_order, units
from skewcyc.enumeration import (
    OrbitTemplate,
    _cp_base_search,
    _finalize_census,
    _lift_with_psis,
    automorphisms,
    cp_search_tasks,
    enumerate_coset_preserving,
    lift_sources,
    psi_candidates,
)
from skewcyc.quotient import quotient_of
from skewcyc.skew_core import SkewMorphismError, verify


def perm_powers(images: list[int] | tuple[int, ...]) -> list[list[int]]:
    """All distinct iterates f^0, f^1, ... until the identity recurs."""
    n = len(images)
    ident = list(range(n))
    powers = [ident]
    cur = list(images)
    while cur != ident:
        powers.append(cur)
        cur = [images[x] for x in cur]
    return powers


def naive_power_table(images, count: int) -> list[tuple[int, ...]]:
    """The iterates f^0, ..., f^{count-1}, each composed from the last by a loop."""
    n = len(images)
    table = [tuple(range(n))]
    for _ in range(count - 1):
        prev = table[-1]
        table.append(tuple(images[x] for x in prev))
    return table


def naive_power(images, order: int, e: int) -> tuple[int, ...]:
    """Images of f^e for f of the given order, by square and multiply."""
    e %= order
    result = tuple(range(len(images)))
    base = tuple(images)
    while e:
        if e & 1:
            result = tuple(base[x] for x in result)
        base = tuple(base[x] for x in base)
        e >>= 1
    return result


def naive_pi(n: int, images) -> list[int] | None:
    """Power function of a candidate, or None when it is not skew.

    For each a, scans every exponent i in [1, ord] and keeps the one
    satisfying f(a+x) = f(a) + f^i(x) for all x.
    """
    images = list(images)
    if sorted(images) != list(range(n)) or images[0] != 0:
        return None
    powers = perm_powers(images)
    order = len(powers)
    pi = []
    for a in range(n):
        found = None
        for i in range(1, order + 1):
            fi = powers[i % order]
            if all(images[(a + x) % n] == (images[a] + fi[x]) % n for x in range(n)):
                found = i
                break
        if found is None:
            return None
        pi.append(found)
    return pi


def naive_witness(n: int, images) -> int | None:
    """The least a with no exponent i in [1, ord] such that
    f(a+x) = f(a) + f^i(x) for all x, or None when every a has one.

    `images` must be a permutation of [0, n) fixing 0.
    """
    powers = perm_powers(images)
    order = len(powers)
    for a in range(n):
        if not any(
            all(images[(a + x) % n] == (images[a] + powers[i % order][x]) % n for x in range(n))
            for i in range(1, order + 1)
        ):
            return a
    return None


def naive_is_skew(n: int, images) -> bool:
    return naive_pi(n, images) is not None


def naive_kernel(n: int, images) -> set[int]:
    pi = naive_pi(n, images)
    assert pi is not None
    return {a for a in range(n) if pi[a] == 1}


def naive_order(images) -> int:
    return len(perm_powers(images))


def naive_units(m: int) -> list[int]:
    return [s for s in range(1, m) if gcd(s, m) == 1]


def naive_group_axioms(images, pi) -> set[str]:
    """The group laws that fail on the pair tables of (images, pi).

    The pairs (a, i) in Z_n x Z_m, m = ord(f), multiply as
    (a, i)(b, j) = (a + f^i(b), s_i(b) + j) with s_i(b) the sum of
    pi(f^t(b)) over t < i, mod m, for any list pi.  The whole product
    table is written out first; then the identity (0, 0), a two-sided
    inverse of every element (found by search) and all |G|^3 triples
    are checked by direct loops.  Returns a subset of
    {"identity", "inverse", "associativity"}.
    """
    n = len(images)
    powers = perm_powers(images)
    m = len(powers)
    els = [(a, i) for a in range(n) for i in range(m)]
    table = {}
    for a, i in els:
        for b, j in els:
            s = sum(pi[powers[t][b]] for t in range(i))
            table[(a, i), (b, j)] = ((a + powers[i][b]) % n, (s + j) % m)
    e = (0, 0)
    failed = set()
    if any(table[e, x] != x or table[x, e] != x for x in els):
        failed.add("identity")
    if not all(any(table[x, y] == e == table[y, x] for y in els) for x in els):
        failed.add("inverse")
    if any(
        table[table[x, y], z] != table[x, table[y, z]] for x in els for y in els for z in els
    ):
        failed.add("associativity")
    return failed


def naive_conjugate(images, t: int) -> tuple[int, ...]:
    """Images of a -> t * f(t^{-1} a) for a unit t mod n."""
    n = len(images)
    tinv = pow(t, -1, n)
    return tuple(t * images[tinv * a % n] % n for a in range(n))


def naive_conjugates(phi) -> dict[tuple[int, ...], object]:
    """The conjugation orbit of phi, one unit at a time: each unit t in
    ascending order gives g = t*f*t^{-1}, with pi_g(a) = pi(t^{-1} a) and the
    other fields of phi, and the first unit to give an image tuple keeps it."""
    n = phi.n
    orbit = {}
    for t in naive_units(n) or [1]:
        images = naive_conjugate(phi.images, t)
        if images not in orbit:
            tinv = pow(t, -1, n)
            pi = tuple(phi.pi[tinv * a % n] for a in range(n))
            orbit[images] = replace(phi, images=images, pi=pi)
    return orbit


def naive_classes(morphisms) -> list[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
    """Conjugation classes as (representative, sorted member images), sorted.

    Every morphism is keyed by the least image tuple among all of its
    conjugates by units; members with the same key form one class.
    """
    buckets: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for phi in morphisms:
        n = len(phi.images)
        key = min(naive_conjugate(phi.images, t) for t in naive_units(n) or [1])
        buckets.setdefault(key, []).append(phi.images)
    return [(key, sorted(members)) for key, members in sorted(buckets.items())]


def naive_cp_base_search(n: int, m: int, s: int) -> tuple[list[tuple[int, ...]], int, int, int]:
    """Coset-preserving morphisms of order m and quotient alpha_s, by orbit walks.

    For every kernel action u (a unit of kq = n/r, r = ord_m(s)) and every
    w in [0, kq), the orbit of 1 under x -> u*(x-1) + 1 + w*r is walked step
    by step.  Each orbit of period exactly m gives the candidate
    f(k) = sum_{i<k} orb[s^i mod m], kept if it is a bijection, its own
    orbit of 1 is orb, it passes the library's `verify` with order m and
    quotient alpha_s, and it is new.  Returns the kept image tuples in
    (u, w) order, the number of period-m orbits, the number of those whose
    candidate is a bijection that replays orb, and the number of those
    whose candidate also has (T/r)^(s-1) = 1 (mod kq) for T = f(r) and is
    no conjugate of a morphism kept before it.
    """
    r = mult_order(s, m)
    kq = n // r
    quotient = tuple(s * k % m for k in range(m))
    out: list[tuple[int, ...]] = []
    conjugates: set[tuple[int, ...]] = set()  # of every kept morphism
    period_m = replayed = realized = 0
    for u in units(kq):
        for w in range(kq):
            orb = [1]
            x = (1 + w * r) % n
            while x != 1 and len(orb) <= m:
                orb.append(x)
                x = (u * (x - 1) + 1 + w * r) % n
            if len(orb) != m:
                continue
            period_m += 1
            images, acc = [], 0
            for k in range(n):
                images.append(acc % n)
                acc += orb[pow(s, k, m)]
            walk = [1]
            while len(walk) < m:
                walk.append(images[walk[-1]])
            if len(set(images)) != n or walk != orb or images[walk[-1]] != 1:
                continue
            replayed += 1
            realized += pow(images[r] // r, s - 1, kq) == 1 and tuple(images) not in conjugates
            try:
                sk = verify(n, tuple(images))
            except SkewMorphismError:
                continue
            if sk.order == m and quotient_of(sk).images == quotient and sk.images not in out:
                out.append(sk.images)
                conjugates.update(naive_conjugate(sk.images, t) for t in naive_units(n))
    return out, period_m, replayed, realized


def naive_partial_sums(u: int, kq: int) -> list[int]:
    """[S_0, ..., S_kq] with S_k = u^0 + u^1 + ... + u^(k-1) mod kq, each
    summed afresh from its powers."""
    return [sum(pow(u, i, kq) for i in range(k)) % kq for k in range(kq + 1)]


def naive_coset_preserving(n: int):
    """The coset-preserving morphisms of Z_n with one `_cp_base_search` per task.

    The library searches one task per cyclic subgroup <s> and takes the
    classes it returns whole, members in the other tasks of the group
    included; this searches every task of `cp_search_tasks(n)` on its own
    and keeps from each task's classes only that task's members, those
    with pi(1) = s (mod m).
    """
    found = {phi.images: phi for phi in automorphisms(n)}
    for m, s in cp_search_tasks(n):
        for cls in _cp_base_search(n, m, s):
            for sk in cls.values():
                if sk.pi[1] % m == s:
                    assert sk.images not in found, f"Z_{n}: {sk.images} found twice"
                    found[sk.images] = sk
    return sorted(found.values(), key=lambda phi: phi.images)


def naive_census(n: int, store):
    """The census of Z_n with one `_lift_with_psis` per lift source.

    The library lifts one quotient per conjugation orbit and closes its
    lifts under conjugation; this is the loop it replaced, which lifts
    every source on its own.  The class ids come from `naive_classes`.
    Smaller orders are read from (and computed into) `store`.
    """
    cp = enumerate_coset_preserving(n)
    collected = {sk.images: sk for sk in cp}
    for rho in lift_sources(n, store):
        for sk in _lift_with_psis(rho, n, psi_candidates(rho, n, cp)):
            assert sk.images not in collected, f"Z_{n}: {sk.images} found twice"
            collected[sk.images] = sk
    proper = [sk for sk in collected.values() if sk.proper]
    classes = [members for _key, members in naive_classes(proper)]
    return _finalize_census(n, list(collected.values()), classes)


def naive_seed_survivors(n, m, big_r, p, psis, free, pools, orbit_l):
    """The scalar reference of `_batched_seed_survivors`, with its signature
    and its output: (stepper index, the R prefix sums mod n, the period
    total T) for each (stepper, seed combination) whose orbit of 1 passes
    the walk, stepper by stepper in `product(*pools)` order.

    Each row lays out its orbit values with `OrbitTemplate.orbit_value`
    (and checks them against the rows of `naive_power_table`), and sums them
    over one period.  It is kept when gcd(T, n) = R and the orbit of 1
    under f(j + k*R) = prefix[j] + k*T returns first at m, passes the seed
    of each free thread j at position j, and follows psi from each thread
    to the next, o_(t+p) = psi(o_t).  Unlike the pre-filter it assumes
    nothing of the steppers (the pre-filter requires each to fix every
    residue mod R = ord(rho)).
    """
    needed = frozenset(orbit_l)
    for k, psi in enumerate(psis):
        rows = naive_power_table(psi.images, max(orbit_l) // p + 1)
        for combo in product(*pools):
            seeds = dict(zip(free, combo))
            slots = tuple((j + 1, seed) for j, seed in seeds.items())
            template = OrbitTemplate(m=m, p=p, psi=psi, x=slots, needed_positions=needed)
            values = [template.orbit_value(e) for e in orbit_l]
            assert values == [rows[e // p][seeds.get(e % p, 1)] for e in orbit_l]
            prefix = list(accumulate(values, initial=0))
            total = prefix[big_r] % n
            if gcd(total, n) != big_r:
                continue
            prefix = [q % n for q in prefix[:big_r]]
            orb = [1]
            for _ in range(m):
                x = orb[-1]
                orb.append((prefix[x % big_r] + (x // big_r) * total) % n)
            if orb[m] != 1 or 1 in orb[1:m] or any(orb[j] != seed for j, seed in seeds.items()):
                continue
            if all(orb[t + p] == psi.images[orb[t]] for t in range(m - p)):
                yield k, prefix, total


def naive_seed_rows(n, m, big_r, p, psis, free, pools, orbit_l):
    """The index in `product(range(len(psis)), product(*pools))` of each
    row whose period total T has gcd(T, n) = R and whose orbit of 1 under
    f(j + k*R) = prefix[j] + k*T passes the seed of each free thread j at
    position j: the rows that `_seed_join` must keep, one row at a time.
    A row that `naive_seed_survivors` keeps is one of them."""
    index = 0
    for psi in psis:
        rows = naive_power_table(psi.images, max(orbit_l) // p + 1)
        for combo in product(*pools):
            seeds = dict(zip(free, combo))
            prefix = list(accumulate((rows[e // p][seeds.get(e % p, 1)] for e in orbit_l), initial=0))
            total = prefix[big_r] % n
            orb = [1]
            for _ in range(max(free)):
                x = orb[-1]
                orb.append((prefix[x % big_r] + (x // big_r) * total) % n)
            if gcd(total, n) == big_r and all(orb[j] == seed for j, seed in seeds.items()):
                yield index
            index += 1


def naive_entry_json(entry) -> str:
    """A census line as `json.dumps` writes the entry's fields, in the
    store's key order, with compact separators: the encoder the store
    used before its fixed format, kept as the oracle for `to_json`."""
    payload = {
        "n": entry.n,
        "images": list(entry.images),
        "order": entry.order,
        "kernel_order": entry.kernel_order,
        "pi": list(entry.pi),
        "coset_preserving": entry.coset_preserving,
        "automorphism": entry.automorphism,
        "class_id": entry.class_id,
        "schema_version": entry.schema_version,
    }
    return json.dumps(payload, separators=(",", ":"))
