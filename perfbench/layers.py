"""Which skewcyc functions the traced run wraps, and the per-layer metrics.

Span names are `<layer>.<stage>`; the layer is the skewcyc module.  Each
per-layer metric below names the end-to-end figure it is expected to move
(see README.md).  The self time of the spans in GLUE counts as
unattributed: it is code that no stage of the trace names.
"""

from __future__ import annotations

from .tracer import Target, Tracer


def _verify_ok(tracer, args, kwargs, result):
    tracer.counters["skew_core.verify.accepts"] += 1


def _cp_found(tracer, args, kwargs, result):
    tracer.counters["enumeration.cp_search.found"] += len(result)


def _prefilter(tracer, args, kwargs, produced):
    # batched pre-filter: (n, m, big_r, p, psi, free, pools, rows, orbit_l)
    pools = args[6]
    tracer.counters["enumeration.lift_prefilter.combos"] += len(pools[0]) ** len(args[5])
    tracer.counters["enumeration.lift_prefilter.survivors"] += produced


def _plain_combos(tracer, args, kwargs, produced):
    # below the batching threshold every seed combination goes to the
    # scalar acceptance step: a pre-filter that passes everything
    tracer.counters["enumeration.lift_prefilter.combos"] += produced
    tracer.counters["enumeration.lift_prefilter.survivors"] += produced


def _realized(tracer, args, kwargs, result):
    if result is not None:
        tracer.counters["enumeration.realize_lift.accepted"] += 1


def _lifted(tracer, args, kwargs, result):
    tracer.counters["enumeration.lift.accepted"] += len(result)


def _saved(tracer, args, kwargs, result):
    tracer.counters["store.bytes_written"] += result.stat().st_size


def _decoded(tracer, args, kwargs, result):
    line = args[1]
    tracer.counters["store.bytes_read"] += len(line.encode()) + 1


def _violations(tracer, args, kwargs, result):
    tracer.counters["invariants.violations"] += len(result)


def _group_checked(tracer, args, kwargs, result):
    tracer.counters["skew_product.check_group.triples"] += result.triples_checked
    if result.associativity_mode == "sampled":
        tracer.counters["skew_product.check_group.sampled"] += 1


_SC = "skewcyc."

TARGETS = [
    # skew_core
    Target("skew_core.verify", _SC + "skew_core", "verify", count=_verify_ok),
    Target("skew_core.equivalence_classes", _SC + "skew_core", "equivalence_classes"),
    Target("skew_core.power", _SC + "skew_core", "power"),
    Target("skew_core.power_table", _SC + "skew_core", "power_table"),
    # enumeration
    Target("enumeration.census", _SC + "enumeration", "census"),
    Target("enumeration.enumerate_cp", _SC + "enumeration", "enumerate_coset_preserving"),
    Target("enumeration.cp_search", _SC + "enumeration", "_cp_base_search", count=_cp_found),
    Target(
        "enumeration.cp_search.candidates",
        _SC + "enumeration",
        "_realize_candidate",
        span=False,
    ),
    Target("enumeration.psi_candidates", _SC + "enumeration", "psi_candidates"),
    Target("enumeration.lift", _SC + "enumeration", "_lift_with_psis", count=_lifted),
    Target(
        "enumeration.lift_prefilter",
        _SC + "enumeration",
        "_batched_seed_survivors",
        generator=True,
        count=_prefilter,
    ),
    Target(
        "enumeration.lift_prefilter",
        _SC + "enumeration",
        "product",
        generator=True,
        count=_plain_combos,
    ),
    Target("enumeration.realize_lift", _SC + "enumeration", "_realize_lift", count=_realized),
    Target("enumeration.orbit_template", _SC + "enumeration.OrbitTemplate", "orbit_value"),
    Target("enumeration.finalize", _SC + "enumeration", "_finalize_census"),
    # quotient
    Target("quotient.quotient_of", _SC + "quotient", "quotient_of"),
    Target("quotient.check_quotient_laws", _SC + "quotient", "check_quotient_laws"),
    # store
    Target("store.save", _SC + "store.Store", "save", count=_saved),
    Target("store.encode", _SC + "store.StoreEntry", "to_json"),
    Target("store.load", _SC + "store.Store", "load"),
    Target("store.decode", _SC + "store.StoreEntry", "from_json", count=_decoded),
    # invariants
    Target("invariants.morphism_laws", _SC + "invariants", "_check_morphism"),
    Target("invariants.generator_sweep", _SC + "invariants", "_check_generator_sweep"),
    Target("invariants.prime_comparison", _SC + "invariants", "_check_prime_comparison"),
    Target("invariants.pair_model", _SC + "invariants", "_check_pair_model"),
    Target("invariants.record_level", _SC + "invariants", "_check_record_level"),
    Target(
        "invariants.check_record",
        _SC + "invariants",
        "check_record",
        span=False,
        count=_violations,
    ),
    # skew_product
    Target("skew_product.check_group", _SC + "skew_product", "check_group", count=_group_checked),
    Target("skew_product.tables", _SC + "skew_product._PairTables", "__init__"),
    Target("skew_product.core_of_B", _SC + "skew_product", "core_of_B"),
    # cli
    Target("cli", _SC + "cli", "main"),
]

# Spans of calls that mostly call other traced functions: their self time
# is code the trace does not name, so it counts as unattributed.
GLUE = ("enumeration.census", "enumeration.enumerate_cp", "enumeration.lift", "cli")

SPANS = sorted({t.name for t in TARGETS if t.span or t.generator})

# (metric, unit, better); every traced run reports all of them
PER_LAYER = (
    [(f"{name}.self_s", "s", "lower") for name in SPANS]
    + [
        ("skew_core.verify.calls", "count", "lower"),
        ("skew_core.verify.accept_ratio", "ratio", "higher"),
        ("enumeration.cp_search.candidates", "count", "lower"),
        ("enumeration.cp_search.found", "count", "higher"),
        ("enumeration.cp_search.accept_ratio", "ratio", "higher"),
        ("enumeration.lift_prefilter.combos", "count", "lower"),
        ("enumeration.lift_prefilter.survivors", "count", "lower"),
        ("enumeration.realize_lift.calls", "count", "lower"),
        ("enumeration.realize_lift.accepted", "count", "higher"),
        ("enumeration.lift.accepted", "count", "higher"),
        ("enumeration.executor.tasks", "count", "higher"),
        ("enumeration.executor.task_sum_s", "s", "lower"),
        ("enumeration.executor.task_max_s", "s", "lower"),
        ("enumeration.executor.wait_s", "s", "lower"),
        ("enumeration.executor.bytes", "B", "lower"),
        ("quotient.quotient_of.calls", "count", "lower"),
        ("store.bytes_written", "B", "lower"),
        ("store.bytes_read", "B", "lower"),
        ("invariants.violations", "count", "lower"),
        ("skew_product.check_group.triples", "count", "higher"),
        ("skew_product.check_group.sampled", "count", "lower"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("error_rate", "ratio", "lower"),
    ]
)


def new_tracer() -> Tracer:
    return Tracer(TARGETS)


def unattributed_s(tracer: Tracer, intervals) -> float:
    """Wall time of the intervals that no traced stage accounts for.

    The time outside every root span, plus the self time of the glue spans.
    """
    intervals = list(intervals)
    wall = sum(end - start for start, end in intervals)
    glue = sum(tracer.self_s.get(name, 0.0) for name in GLUE)
    return wall - tracer.covered_s(intervals) + glue


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(tracer: Tracer, executor=None) -> dict[str, float]:
    """Per-layer values from one traced run (all metrics except trace.* and error_rate)."""
    c = tracer.counters
    calls = tracer.calls
    out = {f"{name}.self_s": tracer.self_s.get(name, 0.0) for name in SPANS}
    out.update(
        {
            "skew_core.verify.calls": calls.get("skew_core.verify", 0),
            "skew_core.verify.accept_ratio": _ratio(
                c["skew_core.verify.accepts"], calls.get("skew_core.verify", 0)
            ),
            "enumeration.cp_search.candidates": calls.get("enumeration.cp_search.candidates", 0),
            "enumeration.cp_search.found": c["enumeration.cp_search.found"],
            "enumeration.cp_search.accept_ratio": _ratio(
                c["enumeration.cp_search.found"],
                calls.get("enumeration.cp_search.candidates", 0),
            ),
            "enumeration.lift_prefilter.combos": c["enumeration.lift_prefilter.combos"],
            "enumeration.lift_prefilter.survivors": c["enumeration.lift_prefilter.survivors"],
            "enumeration.realize_lift.calls": calls.get("enumeration.realize_lift", 0),
            "enumeration.realize_lift.accepted": c["enumeration.realize_lift.accepted"],
            "enumeration.lift.accepted": c["enumeration.lift.accepted"],
            "quotient.quotient_of.calls": calls.get("quotient.quotient_of", 0),
            "store.bytes_written": c["store.bytes_written"],
            "store.bytes_read": c["store.bytes_read"],
            "invariants.violations": c["invariants.violations"],
            "skew_product.check_group.triples": c["skew_product.check_group.triples"],
            "skew_product.check_group.sampled": c["skew_product.check_group.sampled"],
        }
    )
    out.update(executor_values(executor))
    return out


def executor_values(executor) -> dict[str, float]:
    keys = ("tasks", "task_sum_s", "task_max_s", "wait_s", "bytes")
    return {
        f"enumeration.executor.{key}": (getattr(executor, key) if executor else 0)
        for key in keys
    }
