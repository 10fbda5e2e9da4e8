"""Command-line orchestration: build ideals, run suites, emit reports.

Subcommands::

    tensorcert certify  --suite gen-set --n 3 [--sig +-+] [--budget K]
                        [--workers M] [--out report.json] [--format json|text]
    tensorcert gens     --n 2 --sig ++
    tensorcert gb       --ideal FILE [--order elim|desc|block|v1,v2,...] [--n N]
    tensorcert intersect --a FILE --b FILE [--n N]

Exit codes: 0 all pass, 1 failures, 2 budget exhaustion only, 3 usage error,
4 internal error (a case raised, with its traceback on stderr, or was lost
with its worker process; or the run itself raised, with a traceback), 141
stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from functools import partial

from .groebner import (
    DEFAULT_STEP_BUDGET,
    EXPONENT_CAP,
    IdealPresentation,
    StepBudget,
    groebner_basis,
)
from .ideals import candidate_basis, intersect_pair
from .parse import ParseError, parse_polynomial, render_polynomial, tokenize
from .report import EXIT_BROKEN_PIPE, EXIT_CONFIG, EXIT_INTERNAL, CertReport, emit_report
from .verify import (
    gen_set_case,
    knutson_case,
    lost_case,
    oracle_equivalence_case,
    squeeze_case,
    tensoriality_case,
    unit_not_tensorial_case,
)
from .fleet import build_fleet
from .xyz import (
    Signature,
    elimination_order,
    index_desc_order,
    letter_block_order,
    order_from_spec,
    xyz_ring,
)

SUITES = ("gen-set", "knutson", "squeeze", "tensoriality", "oracle-equiv", "all")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 3
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="tensorcert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    certify = sub.add_parser("certify", help="run a verification suite")
    certify.add_argument("--suite", choices=SUITES, required=True)
    certify.add_argument("--n", type=int, required=True, dest="n_max")
    certify.add_argument(
        "--sig",
        action="append",
        default=None,
        help="select a signature like '+-+' (or --sig=-+) in every suite; repeatable "
        "(default: all of length 1..N)",
    )
    certify.add_argument("--budget", type=int, default=None, help="step budget per case")
    certify.add_argument("--workers", type=int, default=1)
    certify.add_argument("--out", default=None, help="write the report to this path")
    certify.add_argument("--format", choices=("json", "text"), default="text")

    gens = sub.add_parser("gens", help="print the candidate generating set")
    gens.add_argument("--n", type=int, required=True)
    gens.add_argument("--sig", required=True)

    gb = sub.add_parser("gb", help="reduced Groebner basis of an ideal file")
    gb.add_argument("--ideal", required=True)
    gb.add_argument("--order", default=None, help="elim | desc | block | comma list")
    gb.add_argument("--n", type=int, default=None)
    gb.add_argument("--budget", type=int, default=None)

    inter = sub.add_parser("intersect", help="intersect two ideal files (t-trick)")
    inter.add_argument("--a", required=True)
    inter.add_argument("--b", required=True)
    inter.add_argument("--n", type=int, default=None)
    inter.add_argument("--budget", type=int, default=None)
    return parser


def default_budget(explicit: int | None) -> int:
    """``--budget``, else ``CERTIFY_BUDGET``, else the default; at least 1."""
    budget = explicit
    if budget is None:
        env = os.environ.get("CERTIFY_BUDGET")
        if not env:
            return DEFAULT_STEP_BUDGET
        try:
            budget = int(env)
        except ValueError:
            raise UsageError(f"CERTIFY_BUDGET must be an integer, got {env!r}")
    if budget < 1:
        raise UsageError(f"the step budget must be at least 1, got {budget}")
    return budget


# -- certify ------------------------------------------------------------------


def _parse_signatures(raw: list[str] | None, n_max: int) -> list[Signature] | None:
    if raw is None:
        return None
    sigs = []
    for chunk in raw:
        for text in chunk.split(","):
            if not text:
                continue
            sig = _parse_signature(text)
            if sig.n > n_max:
                raise UsageError(f"signature {text} is longer than --n {n_max}")
            if sig not in sigs:  # a repeat would duplicate case ids
                sigs.append(sig)
    if not sigs:
        raise UsageError("no usable signature in --sig")
    return sigs


def _parse_signature(text: str) -> Signature:
    try:
        return Signature.parse(text)
    except ValueError as exc:
        raise UsageError(f"--sig: {exc}") from None


def _case_calls(suite: str, n_max: int, sigs: list[Signature] | None, budget: int):
    """Picklable zero-argument case calls; their order defines stable case ids.

    Every suite selects from one signature list (``sigs``, else all of length
    1..n_max): squeeze runs at the N of each selected all-plus signature, and
    tensoriality on the fleet families of a selected signature plus, when
    ``-`` is selected, the unit case on the one-member skew family.  The case
    functions are read from this module's namespace each time the calls are
    built, so a rebinding (a tracer, a test) reaches them; a tensoriality
    call carries its fleet family, so workers never rebuild the fleet.
    """
    if sigs is None:
        sigs = [sig for n in range(1, n_max + 1) for sig in Signature.sweep(n)]
    calls = []
    if suite in ("gen-set", "all"):
        calls += [partial(gen_set_case, sig, budget) for sig in sigs]
    if suite in ("knutson", "all"):
        calls += [partial(knutson_case, sig, budget) for sig in sigs]
    if suite in ("squeeze", "all"):
        calls += [partial(squeeze_case, sig.n, budget) for sig in sigs if -1 not in sig]
    if suite in ("oracle-equiv", "all"):
        calls += [partial(oracle_equivalence_case, sig, budget) for sig in sigs]
    if suite in ("tensoriality", "all"):
        fleet = build_fleet()
        calls += [partial(tensoriality_case, e) for e in fleet if e.family.signature in sigs]
        unit = next(entry for entry in fleet if entry.name == "diag-skew-n1")
        if unit.family.signature in sigs:
            calls.append(partial(unit_not_tensorial_case, unit))
    if not calls:
        raise UsageError("no case matches --sig")
    return calls


def run_suite(
    suite: str,
    n_max: int,
    signatures: list[Signature] | None = None,
    step_budget: int = DEFAULT_STEP_BUDGET,
    workers: int = 1,
) -> CertReport:
    if n_max < 1:
        raise UsageError("--n must be at least 1")
    calls = _case_calls(suite, n_max, signatures, step_budget)
    processes = min(workers, len(calls), os.cpu_count() or 1)
    if processes > 1:
        # imported here: it loads multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        with ProcessPoolExecutor(max_workers=processes) as pool:
            futures = [pool.submit(call) for call in calls]
        cases = []
        for call, future in zip(calls, futures):
            try:
                cases.append(future.result())
            except BrokenProcessPool as exc:
                # a worker process died, failing every call still unfinished
                cases.append(lost_case(call, exc))
    else:
        cases = [call() for call in calls]
    return CertReport(
        suite=suite,
        n_max=n_max,
        signatures="all" if signatures is None else ",".join(str(s) for s in signatures),
        step_budget=step_budget,
        workers=workers,
        cases=cases,
    )


def _cmd_certify(args) -> int:
    budget = default_budget(args.budget)
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")
    sigs = _parse_signatures(args.sig, args.n_max)
    if args.out:
        _check_out_target(args.out)
    report = run_suite(args.suite, args.n_max, sigs, budget, args.workers)
    rendered = emit_report(report, args.format)
    if args.out:
        as_json = rendered if args.format == "json" else emit_report(report, "json")
        _write_atomically(args.out, as_json + "\n")
    print(rendered)
    return report.exit_code()


def _check_out_target(path: str) -> None:
    """Refuse an ``--out`` path that cannot be written before any case runs."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise UsageError(f"--out {path}: directory {directory} does not exist")
    if os.path.isdir(path) or not os.access(directory, os.W_OK):
        raise UsageError(f"--out {path}: cannot write a report there")


def _write_atomically(path: str, text: str) -> None:
    """Write via a temporary file in the same directory, then rename it over
    ``path``, so a reader never sees a half-written report."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- gens / gb / intersect -------------------------------------------------------


def _cmd_gens(args) -> int:
    sig = _parse_signature(args.sig)
    if sig.n != args.n:
        raise UsageError(f"--sig has length {sig.n}, expected --n {args.n}")
    ring = xyz_ring(sig.n)
    order = letter_block_order(sig.n)
    for poly in candidate_basis(sig, ring).members:
        print(render_polynomial(poly, order))
    return 0


def _read_ideal(path: str, n_hint: int | None):
    try:
        with open(path, encoding="utf-8") as handle:
            # (file line number, text) per polynomial; columns count from the line start
            lines = [
                (number, line.rstrip())
                for number, line in enumerate(handle, start=1)
                if line.strip() and not line.lstrip().startswith("#")
            ]
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    if not lines:
        raise UsageError(f"{path} contains no polynomials")
    n = n_hint or 0
    uses_t = False
    number = 0  # the file line being read, named by a parse error
    try:
        for number, line in lines:
            for token in tokenize(line):
                if token.kind != "name":
                    continue
                if token.text[0] == "t":
                    uses_t = True
                elif token.text[0] in "xyz" and len(token.text) > 1:
                    n = max(n, int(token.text[1:]))
        if n < 1:
            raise UsageError(f"{path}: could not infer the index range; pass --n")
        ring = xyz_ring(n, with_t=uses_t)
        polys = []
        for number, line in lines:
            polys.append(parse_polynomial(line, ring))
    except ParseError as exc:
        raise UsageError(f"{path}: {exc.reason} (line {number}, column {exc.col})")
    if any(p.is_zero() for p in polys):
        raise UsageError(f"{path}: zero generators are not allowed")
    if any(e >= EXPONENT_CAP for p in polys for m, _ in p.terms() for e in m):
        raise UsageError(f"{path}: exponents must be below {EXPONENT_CAP}")
    return polys, n, uses_t


def _cmd_gb(args) -> int:
    polys, n, uses_t = _read_ideal(args.ideal, args.n)
    if args.order:
        try:
            order = order_from_spec(args.order, n)
            order.validate(polys[0].ring)
        except ValueError as exc:
            raise UsageError(f"--order {args.order}: {exc}") from None
    else:
        order = elimination_order(n) if uses_t else letter_block_order(n)
    budget = StepBudget(default_budget(args.budget))
    basis = groebner_basis(IdealPresentation(tuple(polys), order), budget)
    for g in basis.elements:
        print(render_polynomial(g, order))
    return 0


def _cmd_intersect(args) -> int:
    polys_a, n_a, t_a = _read_ideal(args.a, args.n)
    polys_b, n_b, t_b = _read_ideal(args.b, args.n)
    if t_a or t_b:
        raise UsageError("input ideals must not use the auxiliary variable t")
    n = max(n_a, n_b)
    ring = xyz_ring(n)
    order = index_desc_order(n)
    pres_a = IdealPresentation(tuple(p.map_ring(ring) for p in polys_a), order)
    pres_b = IdealPresentation(tuple(p.map_ring(ring) for p in polys_b), order)
    budget = StepBudget(default_budget(args.budget))
    basis = intersect_pair(pres_a, pres_b, budget)
    for g in basis.elements:
        print(render_polynomial(g, basis.order))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        run = {"certify": _cmd_certify, "gens": _cmd_gens, "gb": _cmd_gb, "intersect": _cmd_intersect}
        code = run[args.command](args)
        sys.stdout.flush()  # a reader that went away shows here, not in the flush at exit
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:
        # the reader went away; the flush at exit must not find the pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
