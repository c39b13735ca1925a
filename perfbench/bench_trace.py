"""Span tracing for the traced benchmark pass.

Wraps public dyadicrep functions at the module attributes where callers
look them up, records one span per call (name, start, end, parent span,
op id, plus counters read from arguments and return values), keeps the
spans in memory and aggregates them once the pass is over.

Only the pass process is traced: work done in --jobs worker processes is
invisible here, which is why the search and bounds counters are taken
from the --jobs 1 ops alone.
"""

from __future__ import annotations

import importlib
from math import comb, isqrt
from time import perf_counter

# (module, attribute, span name). The span name's prefix is its layer.
WRAP_POINTS = (
    ("dyadicrep.cli", "main", "cli.main"),
    ("dyadicrep.cli", "run_search", "search.run_search"),
    ("dyadicrep.cli", "verify_solution", "arith.verify_solution"),
    ("dyadicrep.cli", "greedy_for_n", "greedy.greedy_for_n"),
    ("dyadicrep.cli", "greedy_representation", "greedy.greedy_representation"),
    ("dyadicrep.cli", "sweep", "greedy.sweep"),
    ("dyadicrep.cli", "expand_chain", "chains.expand_chain"),
    ("dyadicrep.cli", "representation_count_certificate", "chains.certificate"),
    ("dyadicrep.cli", "solve_congruence", "congruence.solve_congruence"),
    ("dyadicrep.cli", "scan_subsets", "crt.scan_subsets"),
    ("dyadicrep.cli", "certify_multiplicity", "crt.certify_multiplicity"),
    ("dyadicrep.search", "verify_solution", "arith.verify_solution"),
    ("dyadicrep.search", "ak_bound_thm", "bounds.ak_bound_thm"),
    ("dyadicrep.search", "product_bound_holds", "bounds.product_bound_holds"),
    ("dyadicrep.greedy", "term_sum", "arith.term_sum"),
    ("dyadicrep.chains", "greedy_for_n", "greedy.greedy_for_n"),
    ("dyadicrep.chains", "term_sum", "arith.term_sum"),
    ("dyadicrep.congruence", "mult_order", "congruence.mult_order"),
    ("dyadicrep.congruence", "bsgs_dlog", "congruence.bsgs_dlog"),
    ("dyadicrep.crt", "crt_pair", "crt.crt_pair"),
)

LAYERS = ("search", "bounds", "arith", "greedy", "chains", "congruence", "crt", "cli")

PRUNE_RULES = (
    "forced_infeasible",
    "tail_high",
    "tail_low",
    "close_no_term",
    "close_order",
    "close_range",
    "close_divisibility",
    "product_bound",
)

# Per-layer metric names and units, in report order.
METRICS = (
    [
        ("search.run_search_s", "s"),
        ("search.nodes", "count"),
        ("search.tasks", "count"),
        ("search.solutions", "count"),
    ]
    + [(f"search.prune.{rule}", "count") for rule in PRUNE_RULES]
    + [
        ("search.us_per_node", "us"),
        ("bounds.ak_bound_thm_calls", "count"),
        ("bounds.product_bound_holds_calls", "count"),
        ("arith.verify_solution_s", "s"),
        ("arith.verify_solution_calls", "count"),
        ("arith.verify_bits", "bits"),
        ("arith.term_sum_s", "s"),
        ("arith.term_sum_calls", "count"),
        ("greedy.greedy_for_n_s", "s"),
        ("greedy.greedy_for_n_calls", "count"),
        ("greedy.greedy_representation_s", "s"),
        ("greedy.sweep_s", "s"),
        ("greedy.terms_emitted", "count"),
        ("greedy.max_last_term", "index"),
        ("greedy.check_share", "ratio"),
        ("chains.expand_chain_s", "s"),
        ("chains.certificate_s", "s"),
        ("chains.steps", "count"),
        ("chains.max_k", "count"),
        ("congruence.mult_order_s", "s"),
        ("congruence.order_steps", "count"),
        ("congruence.bsgs_dlog_s", "s"),
        ("congruence.dlog_steps", "count"),
        ("congruence.rows_found", "count"),
        ("crt.scan_subsets_s", "s"),
        ("crt.subsets_tried", "count"),
        ("crt.compatible", "count"),
        ("crt.crt_pair_calls", "count"),
        ("crt.certify_multiplicity_s", "s"),
        ("cli.self_s", "s"),
        ("cli.payload_bytes", "bytes"),
    ]
    + [(f"{layer}.self_s", "s") for layer in LAYERS if layer != "cli"]
    + [
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    ]
)


def _info(name: str, args: tuple, kwargs: dict, result):
    """Counters of one call, read from its arguments and return value, or
    None when the call's signature or result no longer has that shape."""
    try:
        return _read_info(name, args, kwargs, result)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return None


def _read_info(name: str, args: tuple, kwargs: dict, result):
    if name == "search.run_search":
        return (
            kwargs.get("jobs", 1),
            getattr(result, "nodes", 0),
            getattr(result, "tasks", 0),
            len(getattr(result, "solutions", ())),
            dict(getattr(result, "prune_counters", {})),
        )
    if name == "arith.verify_solution":
        return args[0].terms[-1]
    if name == "greedy.greedy_for_n":
        max_k = args[1] if len(args) > 1 else kwargs.get("max_k")
        k, last = (result[0], result[1].terms[-1]) if result else (0, 0)
        return args[0], max_k, k, last
    if name == "greedy.greedy_representation":
        return (len(result), result[-1]) if result else (0, 0)
    if name == "greedy.sweep":
        return sum(r.k for r in result), max((r.last_term for r in result), default=0)
    if name == "chains.expand_chain":
        return len(result.steps), max((s.k for s in result.steps), default=0)
    if name == "congruence.mult_order":
        # the doubling loop runs once per unit of r; hinted calls reduce
        return result if kwargs.get("order_multiple") is None else 0
    if name == "congruence.bsgs_dlog":
        order = args[2] if len(args) > 2 else kwargs["order"]
        m = isqrt(order - 1) + 1
        giant = (order + m - 1) // m if result is None else result // m + 1
        return m + giant
    if name == "congruence.solve_congruence":
        return result is not None
    if name == "crt.scan_subsets":
        return comb(len(args[0]), args[1]), len(result)
    return None


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, op id, info]
        self.spans: list[list] = []
        self.op = -1
        self.originals: dict[str, object] = {}
        self._stack: list[int] = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            span[5] = _info(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every WRAP_POINTS attribute that exists."""
        for mod_name, attr, name in WRAP_POINTS:
            try:
                mod = importlib.import_module(mod_name)
            except ModuleNotFoundError:
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            self.originals.setdefault(name, fn)
            setattr(mod, attr, self._wrap(fn, name))

    def replay_inputs(self) -> list[tuple[int, int]]:
        """The (n, max_k) inputs of every greedy_for_n call, in call order."""
        return [
            s[5][:2] for s in self.spans
            if s[0] == "greedy.greedy_for_n" and s[5] is not None
        ]

    def aggregate(self, payload_bytes: int) -> dict[str, float]:
        """Per-layer metrics of the pass (trace.overhead_s and
        greedy.check_share are filled in by the caller)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        selfs: dict[str, float] = {}
        calls: dict[str, int] = {}
        for s, c in zip(spans, child):
            selfs[s[0]] = selfs.get(s[0], 0.0) + (s[2] - s[1] - c)
            calls[s[0]] = calls.get(s[0], 0) + 1

        # ops whose search ran with --jobs 1: their counters are complete
        jobs1_ops = {
            s[4] for s in spans
            if s[0] == "search.run_search" and s[5] is not None and s[5][0] == 1
        }
        m = {name: 0.0 for name, _ in METRICS}
        m["trace.spans"] = len(spans)
        search_incl = 0.0
        for s in spans:
            name, info = s[0], s[5]
            if name.startswith("bounds.") and s[4] in jobs1_ops:
                m[name + "_calls"] += 1
            if info is None:
                continue
            if name == "search.run_search" and s[4] in jobs1_ops:
                _, nodes, tasks, sols, prune = info
                m["search.nodes"] += nodes
                m["search.tasks"] += tasks
                m["search.solutions"] += sols
                for rule in PRUNE_RULES:
                    m[f"search.prune.{rule}"] += prune.get(rule, 0)
                search_incl += s[2] - s[1]
            elif name == "arith.verify_solution":
                m["arith.verify_bits"] += info
            elif name == "greedy.greedy_for_n":
                m["greedy.terms_emitted"] += info[2]
                m["greedy.max_last_term"] = max(m["greedy.max_last_term"], info[3])
            elif name in ("greedy.greedy_representation", "greedy.sweep"):
                m["greedy.terms_emitted"] += info[0]
                m["greedy.max_last_term"] = max(m["greedy.max_last_term"], info[1])
            elif name == "chains.expand_chain":
                m["chains.steps"] += info[0]
                m["chains.max_k"] = max(m["chains.max_k"], info[1])
            elif name == "congruence.mult_order":
                m["congruence.order_steps"] += info
            elif name == "congruence.bsgs_dlog":
                m["congruence.dlog_steps"] += info
            elif name == "congruence.solve_congruence":
                m["congruence.rows_found"] += info
            elif name == "crt.scan_subsets":
                m["crt.subsets_tried"] += info[0]
                m["crt.compatible"] += info[1]
        if m["search.nodes"]:
            m["search.us_per_node"] = search_incl / m["search.nodes"] * 1e6

        for name, t in selfs.items():
            if name + "_s" in m:
                m[name + "_s"] = t
            m[name.split(".")[0] + ".self_s"] += t
        for name, n in calls.items():
            # bounds calls were counted above, from the --jobs 1 ops only
            if name + "_calls" in m and not name.startswith("bounds."):
                m[name + "_calls"] = n
        m["cli.payload_bytes"] = payload_bytes
        return m
