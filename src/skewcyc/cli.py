"""Command-line interface.

Subcommands: census, table, show, verify, oracle, families, check.
The store directory defaults to $SKEWCYC_STORE, then ./skewcyc-store.
All numeric output is plain decimal.
"""

from __future__ import annotations

import argparse
import sys

from .enumeration import (
    BRUTE_FORCE_MAX_N,
    brute_force,
    census,
    census_range,
)
from .families import family_4p
from .skew_core import SkewMorphism, SkewMorphismError, equivalence_classes, verify
from .store import Store, StoreError, default_store_dir, emit_table

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_NOT_SKEW = 2


def _add_store_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=None,
        help="census store directory (default: $SKEWCYC_STORE or ./skewcyc-store)",
    )


def _open_store(args: argparse.Namespace) -> Store:
    return Store(args.store if args.store is not None else default_store_dir())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewcyc",
        description="Exact census of skew morphisms of finite cyclic groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="compute and persist censuses for 2..N")
    p.add_argument("--max", type=int, required=True, metavar="N")
    p.add_argument("--jobs", type=int, default=1, metavar="J")
    _add_store_option(p)

    p = sub.add_parser("table", help="emit census-count rows (census table style)")
    p.add_argument("--from", dest="first", type=int, required=True, metavar="A")
    p.add_argument("--to", dest="last", type=int, required=True, metavar="B")
    p.add_argument("--format", choices=("csv", "md"), default="csv")
    _add_store_option(p)

    p = sub.add_parser("show", help="list the stored skew morphisms of one order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--proper-only", action="store_true")
    _add_store_option(p)

    p = sub.add_parser("verify", help="check one permutation for the skew property")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--perm", required=True, help='comma-separated images, e.g. "0,3,2,5,4,1"')

    p = sub.add_parser("oracle", help="brute-force cross-check of a stored census")
    p.add_argument("--n", type=int, required=True)
    _add_store_option(p)

    p = sub.add_parser("families", help="construct the closed-form Z_4p families")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--check-against-census", action="store_true")
    _add_store_option(p)

    p = sub.add_parser("check", help="run the invariant suite over stored censuses")
    p.add_argument("--max", type=int, required=True, metavar="N")
    _add_store_option(p)

    return parser


def _describe(phi: SkewMorphism, class_id: int) -> str:
    flags = []
    flags.append("automorphism" if phi.automorphism else "proper")
    if phi.coset_preserving:
        flags.append("coset-preserving")
    return (
        f"{phi.canonical_str()}  order={phi.order} kernel={phi.kernel_order} "
        f"pi={','.join(map(str, phi.pi))} flags={'/'.join(flags)} class={class_id}"
    )


def cmd_census(args: argparse.Namespace) -> int:
    store = _open_store(args)

    def progress(record, fresh, seconds):
        tag = "computed" if fresh else "cached"
        print(
            f"n={record.n}: proper={record.proper_count} "
            f"automorphisms={record.automorphism_count} classes={record.class_count} "
            f"[{tag}, {seconds:.2f}s]"
        )

    # --jobs is bounded for compatibility, then ignored; census_range reports a bad --max first
    if args.max >= 2 and not 1 <= args.jobs <= 61:
        raise ValueError(f"expected 1 <= jobs <= 61, got {args.jobs}")
    census_range(store, args.max, progress=progress)
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    store = _open_store(args)
    sys.stdout.write(emit_table(args.first, args.last, store, args.format))
    return EXIT_OK


def cmd_show(args: argparse.Namespace) -> int:
    record = _open_store(args).load(args.n)
    for phi, cid in zip(record.morphisms, record.class_ids):
        if args.proper_only and phi.automorphism:
            continue
        print(_describe(phi, cid))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        images = tuple(int(part) for part in args.perm.split(","))
    except ValueError:
        print("not a skew morphism: images must be comma-separated integers")
        return EXIT_NOT_SKEW
    n = args.n if args.n is not None else len(images)
    try:
        phi = verify(n, images)
    except SkewMorphismError as exc:
        print(f"not a skew morphism of Z_{n}: {exc}")
        return EXIT_NOT_SKEW
    print(
        f"skew morphism of Z_{n}: order={phi.order} kernel={phi.kernel_order} "
        f"periodicity={phi.periodicity} "
        f"{'automorphism' if phi.automorphism else 'proper'}"
        f"{' coset-preserving' if phi.coset_preserving else ''}"
    )
    print(f"pi={','.join(map(str, phi.pi))}")
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    n = args.n
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"oracle is limited to n <= {BRUTE_FORCE_MAX_N}")
    store = _open_store(args)
    record = census(n, store)
    expected = [phi.images for phi in brute_force(n)]
    actual = [phi.images for phi in record.morphisms]
    if expected == actual:
        print(f"n={n}: census matches brute force ({len(actual)} skew morphisms)")
        return EXIT_OK
    print(f"n={n}: MISMATCH census={len(actual)} brute-force={len(expected)}")
    for images in sorted(set(expected) ^ set(actual)):
        origin = "brute-force only" if images in set(expected) else "census only"
        print(f"  {','.join(map(str, images))}  [{origin}]")
    return EXIT_FAILURE


def cmd_families(args: argparse.Namespace) -> int:
    members = family_4p(args.p)
    classes = equivalence_classes(members)
    n = 4 * args.p
    print(
        f"p={args.p}: {len(members)} proper skew morphisms of Z_{n} "
        f"in {len(classes)} equivalence classes"
    )
    by_order: dict[int, int] = {}
    for phi in members:
        by_order[phi.order] = by_order.get(phi.order, 0) + 1
    for order in sorted(by_order):
        print(f"  order {order}: {by_order[order]} members")
    if args.check_against_census:
        store = _open_store(args)
        record = census(n, store)
        family_set = {phi.images for phi in members}
        proper_set = {phi.images for phi in record.proper()}
        if family_set == proper_set:
            print(f"families equal the proper part of census({n})")
            return EXIT_OK
        print(f"MISMATCH against census({n}):")
        for images in sorted(family_set - proper_set):
            print(f"  family only: {','.join(map(str, images))}")
        for images in sorted(proper_set - family_set):
            print(f"  census only: {','.join(map(str, images))}")
        return EXIT_FAILURE
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    from .invariants import run_suite  # loads numpy, which no other command needs
    store = _open_store(args)
    violations = run_suite(store, args.max)
    checked = sum(store.load(n).total for n in range(2, args.max + 1))
    if violations:
        for violation in violations:
            print(violation)
        print(f"{len(violations)} violations over {checked} morphisms (n <= {args.max})")
        return EXIT_FAILURE
    print(f"all invariants hold over {checked} morphisms (n <= {args.max})")
    return EXIT_OK


_COMMANDS = {
    "census": cmd_census,
    "table": cmd_table,
    "show": cmd_show,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
    "families": cmd_families,
    "check": cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (StoreError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
