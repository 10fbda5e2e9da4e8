"""Spans and counters around calls into tensorcert's layers, for traced runs.

``install()`` wraps the public functions listed in ``SPANS`` and ``COUNTS``.
``verify``, ``ideals``, ``courant`` and ``cli`` bind names such as
``buchberger``, ``courant_bracket``, ``inner_product`` and ``build_fleet``
at import time, so a wrapper on the home module alone would miss their
calls: every ``tensorcert`` module namespace that holds the original
function gets the wrapper.  The innermost hot calls (bracket, pairing) are
only counted, never timed.

A span is ``[name, start, end, parent index, case id, extra]``.  Spans are
kept in memory and written out once, by ``Tracer.write``.  The case id is
filled in when the enclosing verifier returns its ``CaseResult``.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

# (home module, function name, span name)
SPANS = (
    ("groebner", "reduce_basis", "groebner.reduce_basis"),
    ("groebner", "membership", "groebner.membership"),
    ("ideals", "is_universally_tensorial_linear", "ideals.linear"),
    ("ideals", "vanishes_on_variety", "ideals.variety"),
    ("ideals", "ideal_contains", "ideals.contains"),
    ("ideals", "intersect_pair", "ideals.intersect"),
    ("courant", "tensoriality_check", "courant.check"),
    ("fleet", "build_fleet", "fleet.build"),
)
# (home module, function name, counter name)
COUNTS = (
    ("courant", "courant_bracket", "courant.bracket_calls"),
    ("courant", "inner_product", "courant.pairing_calls"),
)
CASES = (
    "gen_set_case",
    "knutson_case",
    "squeeze_case",
    "oracle_equivalence_case",
    "tensoriality_case",
    "unit_not_tensorial_case",
)

# per-layer metric name -> (unit, better); BENCHMARK.json lists the same
PER_LAYER = {
    "groebner.buchberger_s": ("s", "lower"),
    "groebner.buchberger_calls": ("count", "lower"),
    "groebner.steps": ("count", "lower"),
    "groebner.basis_len_max": ("count", "lower"),
    "groebner.pairs": ("count", "lower"),
    "groebner.pairs_coprime": ("count", "higher"),
    "groebner.pairs_useful_ratio": ("ratio", "higher"),
    "groebner.coeff_bits_max": ("bits", "lower"),
    "groebner.reduce_basis_s": ("s", "lower"),
    "groebner.membership_s": ("s", "lower"),
    "groebner.membership_calls": ("count", "lower"),
    "ideals.variety_s": ("s", "lower"),
    "ideals.linear_s": ("s", "lower"),
    "ideals.oracle_calls": ("count", "lower"),
    "ideals.contains_s": ("s", "lower"),
    "ideals.intersect_s": ("s", "lower"),
    "verify.genset.j_gb_s": ("s", "lower"),
    "verify.genset.cand_gb_s": ("s", "lower"),
    "courant.check_s": ("s", "lower"),
    "courant.check_calls": ("count", "lower"),
    "courant.bracket_calls": ("count", "lower"),
    "courant.pairing_calls": ("count", "lower"),
    "courant.bridge_s": ("s", "lower"),
    "fleet.build_calls": ("count", "lower"),
    "fleet.build_s": ("s", "lower"),
    "verify.case_s.p50": ("s", "lower"),
    "verify.case_s.max": ("s", "lower"),
    "report.emit_s": ("s", "lower"),
    "report.json_kb": ("KiB", "lower"),
    "trace.wall_s": ("s", "lower"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts = {name: 0 for _, _, name in COUNTS}
        self.gb = {
            "steps": 0,
            "basis_len_max": 0,
            "pairs": 0,
            "pairs_coprime": 0,
            "new_elements": 0,
            "coeff_bits_max": 0,
        }
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, perf_counter(), 0.0, parent, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = perf_counter()
        self._stack.pop()

    def spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def case(self, fn):
        def wrapper(*args, **kwargs):
            first = len(self.spans)
            record = self._open("verify.case")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            for span in self.spans[first:]:
                span[4] = result.case_id
            return result

        return wrapper

    def buchberger(self, fn, budget_type):
        """Span plus the step delta and the statistics of the returned list."""

        def wrapper(presentation, step_budget=None, *args, **kwargs):
            budget = step_budget if step_budget is not None else budget_type()
            before = budget.used
            record = self._open("groebner.buchberger")
            try:
                result = fn(presentation, budget, *args, **kwargs)
            finally:
                self._close(record)
            steps = budget.used - before
            record[5] = {"has_t": "t" in presentation.ring.variables, "steps": steps}
            self.gb["steps"] += steps
            self._basis_stats(len(presentation.generators), result)
            return result

        return wrapper

    def _basis_stats(self, inputs: int, basis) -> None:
        """Pair counts from the returned element list, whose every pair the
        documented schedule visits; coprime-lead pairs are skipped unreduced."""
        from tensorcert.poly import leading_term

        masks = []
        bits = 0
        for g in basis.elements:
            mono, _ = leading_term(g, basis.order)
            masks.append(sum(1 << pos for pos, e in enumerate(mono) if e))
            for _, c in g.terms():
                bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
        size = len(masks)
        coprime = sum(
            1 for j in range(size) for i in range(j) if not masks[i] & masks[j]
        )
        gb = self.gb
        gb["basis_len_max"] = max(gb["basis_len_max"], size)
        gb["pairs"] += size * (size - 1) // 2
        gb["pairs_coprime"] += coprime
        gb["new_elements"] += size - inputs
        gb["coeff_bits_max"] = max(gb["coeff_bits_max"], bits)

    # -- installation ---------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "tensorcert" or name.startswith("tensorcert.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- results ----------------------------------------------------------------

    def metrics(self, wall_s: float, emit_s: float, json_bytes: int) -> dict:
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        for name, start, end, *_ in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1

        case_times = [end - start for name, start, end, *_ in self.spans if name == "verify.case"]
        j_gb = cand_gb = 0.0
        for name, start, end, _, case_id, extra in self.spans:
            if name == "groebner.buchberger" and (case_id or "").startswith("gen-set/"):
                if extra["has_t"]:
                    j_gb += end - start
                else:
                    cand_gb += end - start
        # bridge identities: tensoriality case time outside tensoriality_check
        bridge = 0.0
        for name, start, end, parent, case_id, _ in self.spans:
            if name == "verify.case" and (case_id or "").startswith("tensoriality/"):
                bridge += end - start
            elif name == "courant.check" and parent >= 0 and self.spans[parent][0] == "verify.case":
                bridge -= end - start

        gb = self.gb
        reduced_pairs = gb["pairs"] - gb["pairs_coprime"]
        values = {
            "groebner.buchberger_s": total.get("groebner.buchberger", 0.0),
            "groebner.buchberger_calls": calls.get("groebner.buchberger", 0),
            "groebner.steps": gb["steps"],
            "groebner.basis_len_max": gb["basis_len_max"],
            "groebner.pairs": gb["pairs"],
            "groebner.pairs_coprime": gb["pairs_coprime"],
            "groebner.pairs_useful_ratio": gb["new_elements"] / reduced_pairs if reduced_pairs else 0.0,
            "groebner.coeff_bits_max": gb["coeff_bits_max"],
            "groebner.reduce_basis_s": total.get("groebner.reduce_basis", 0.0),
            "groebner.membership_s": total.get("groebner.membership", 0.0),
            "groebner.membership_calls": calls.get("groebner.membership", 0),
            "ideals.variety_s": total.get("ideals.variety", 0.0),
            "ideals.linear_s": total.get("ideals.linear", 0.0),
            "ideals.oracle_calls": calls.get("ideals.variety", 0) + calls.get("ideals.linear", 0),
            "ideals.contains_s": total.get("ideals.contains", 0.0),
            "ideals.intersect_s": total.get("ideals.intersect", 0.0),
            "verify.genset.j_gb_s": j_gb,
            "verify.genset.cand_gb_s": cand_gb,
            "courant.check_s": total.get("courant.check", 0.0),
            "courant.check_calls": calls.get("courant.check", 0),
            "courant.bracket_calls": self.counts["courant.bracket_calls"],
            "courant.pairing_calls": self.counts["courant.pairing_calls"],
            "courant.bridge_s": bridge,
            "fleet.build_calls": calls.get("fleet.build", 0),
            "fleet.build_s": total.get("fleet.build", 0.0),
            "verify.case_s.p50": statistics.median(case_times) if case_times else 0.0,
            "verify.case_s.max": max(case_times, default=0.0),
            "report.emit_s": emit_s,
            "report.json_kb": json_bytes / 1024,
            "trace.wall_s": wall_s,
        }
        return {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}

    def write(self, path: str, **header) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        doc = dict(header)
        doc["spans"] = [
            {
                "name": name,
                "start_s": start - origin,
                "end_s": end - origin,
                "parent": parent,
                "case": case_id,
                **(extra or {}),
            }
            for name, start, end, parent, case_id, extra in self.spans
        ]
        doc["counts"] = dict(self.counts)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def install() -> Tracer:
    """Wrap the traced functions in every tensorcert namespace that binds them."""
    import importlib

    tracer = Tracer()
    modules = {
        name: importlib.import_module(f"tensorcert.{name}")
        for name in ("groebner", "ideals", "courant", "fleet", "verify", "cli")
    }
    groebner = modules["groebner"]
    tracer._replace(groebner.buchberger, tracer.buchberger(groebner.buchberger, groebner.StepBudget))
    for home, func, span in SPANS:
        original = getattr(modules[home], func)
        tracer._replace(original, tracer.spanned(span, original))
    for home, func, counter in COUNTS:
        original = getattr(modules[home], func)
        tracer._replace(original, tracer.counted(counter, original))
    for func in CASES:
        original = getattr(modules["verify"], func)
        tracer._replace(original, tracer.case(original))
    return tracer
