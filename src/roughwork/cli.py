"""Command line front end.

Every subcommand renders one report, as text lines, CSV rows, or a JSON
object. Exit codes: 0 success, 1 undefined partial operation, 2 bad
syntax or arguments, 3 model file problems, 4 a search or carrier cap
exceeded (``CapExceededError``).  A reader that closes stdout early
(``| head``) ends the report quietly, with exit 0.  ``main`` may be
called any number of times in one process; the parser is built once.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import warnings
from dataclasses import dataclass, field

from roughwork import expr as expr_mod
from roughwork.approx import CapExceededError, check_cap
from roughwork.cera import (
    IDENTITY_CARRIER_CAP,
    CeraModel,
    MixedElement,
    UndefinedOperationError,
    check_cera_identities,
)
from roughwork.counting import CLOSURE_MODES, IPC_PAIRS, IPC_SEQUENCE, close, ipc
from roughwork.crad import CradModel, DialecticalPair
from roughwork.granular import (
    SEARCH_CANDIDATE_CAP,
    check_admissibility,
    check_gos_axioms,
    search_admissible_granulations,
)
from roughwork.model_io import ModelFormatError, default_model_path, load_model
from roughwork.negation import (
    FALSIFY_DEFAULT_CAP,
    check_quotient_negation,
    falsify_theorem,
)
from roughwork.opposition import (
    BRANCH_POLICIES,
    DegeneratePartitionWarning,
    HEXAGON_NODE_ORDER,
    TruthGrade,
    classify_from_questions,
    hexagon,
    reference_tables,
    tsr_walk,
)
from roughwork.parthood import (
    MATRIX_CAP,
    MIXED_KINDS,
    SUBSET_KINDS,
    ParthoodKind,
    analyze,
    holds,
)
from roughwork.prerough import check_essential_pre_rough, check_pre_rough, quotient_algebra


class CLIError(Exception):
    """Carries an explicit exit code past the generic mapping."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@dataclass
class Report:
    columns: list[str]
    rows: list[tuple]
    text: list[str] | None = None
    payload: object | None = field(default=None)


def emit(report: Report, fmt: str, out=None) -> None:
    out = out or sys.stdout
    if fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(report.columns)
        for row in report.rows:
            writer.writerow([str(c) for c in row])
    elif fmt == "json":
        if report.payload is not None:
            obj = report.payload
        else:
            obj = {
                "columns": report.columns,
                "rows": [[str(c) for c in row] for row in report.rows],
            }
        print(json.dumps(obj, indent=2), file=out)
    else:
        lines = report.text
        if lines is None:
            lines = ["  ".join(str(c) for c in row) for row in report.rows]
        for line in lines:
            print(line, file=out)


def _load(args):
    path = default_model_path() if args.model is None else args.model
    return load_model(path)


def _witness_text(check) -> str:
    if check.witness is None:
        return ""
    return ", ".join(str(w) for w in check.witness)


def _axiom_rows(items) -> list[tuple]:
    return [
        (name, "PASS" if check.passed else "FAIL", _witness_text(check))
        for name, check in items
    ]


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("t", "true", "yes", "y", "1"):
        return True
    if lowered in ("f", "false", "no", "n", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _positive_int(text: str) -> int:
    """The type of ``--cap``, so ``args.cap or default`` is the cap, and of
    ``--max-granules``; else exit 2 before any model loads."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _mixed_operand(cera: CeraModel, text: str) -> MixedElement:
    node = expr_mod.parse(text)
    if not isinstance(node, expr_mod.SetLit):
        raise ValueError(f"operand {text!r} must be a set or class literal")
    return expr_mod.eval_expr(cera, node)


def _pair_operand(crad: CradModel, text: str) -> DialecticalPair:
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"pair {text!r} must look like \"(a,[a])\"")
    parts = body[1:-1].split(",")
    if len(parts) != 2:
        raise ValueError(f"pair {text!r} must have exactly two components")
    first = _mixed_operand(crad.cera, parts[0])
    second = _mixed_operand(crad.cera, parts[1])
    pair = DialecticalPair(first, second)
    if not crad.contains(pair):
        raise CLIError(1, f"{pair.describe()} is not in the pair carrier")
    return pair


# --- command handlers ---


def _cmd_space(args) -> Report:
    loaded = _load(args)
    space = loaded.space
    if args.action == "show":
        rows = [("universe", " ".join(space.universe.atoms))]
        rows += [("block", str(b)) for b in space.blocks]
        payload = {
            "universe": list(space.universe.atoms),
            "blocks": [str(b) for b in space.blocks],
        }
        return Report(["item", "value"], rows, payload=payload)
    if args.action == "triples":
        rows = [tuple(map(str, triple)) for triple in space.triples()]
        return Report(["set", "lower", "upper"], rows)
    rows = [
        (str(c.sample_member()), str(c.lower), str(c.upper), c.member_count())
        for c in space.rough_classes()
    ]
    return Report(["sample", "lower", "upper", "members"], rows)


def _cmd_eval(args) -> Report:
    loaded = _load(args)
    model = CeraModel(loaded.space)
    node = expr_mod.parse(args.expression)
    result = expr_mod.eval_expr(model, node)
    payload = {
        "expression": expr_mod.unparse(node),
        "result": result.describe(),
        "type": "class" if result.is_type2 else "subset",
    }
    return Report(
        ["expression", "result"],
        [(expr_mod.unparse(node), result.describe())],
        text=[result.describe()],
        payload=payload,
    )


def _cmd_check(args) -> Report:
    loaded = _load(args)
    if args.suite in ("gos", "admissible"):
        subsets = loaded.space.universe.labels()
        check_cap(subsets, args.cap, "power set of {size} subsets exceeds the cap {cap}")
    if args.suite == "gos":
        items = check_gos_axioms(loaded.granular).items()
    elif args.suite == "admissible":
        report = check_admissibility(loaded.granular)
        items = [("WRA", report.wra), ("LS", report.ls), ("FU", report.fu)]
    elif args.suite == "cera":
        cera = CeraModel(loaded.space)
        items = check_cera_identities(cera, args.cap or IDENTITY_CARRIER_CAP).items()
    else:
        check = check_pre_rough if args.suite == "prerough" else check_essential_pre_rough
        items = check(_capped_quotient(loaded.space, args).to_candidate()).items()
    return Report(["check", "status", "witness"], _axiom_rows(items))


def _cmd_parthood(args) -> Report:
    loaded = _load(args)
    if args.kind_or_analyze == "analyze":
        if len(args.rest) != 1:
            raise ValueError("usage: parthood analyze <kind>")
        kind = ParthoodKind.from_name(args.rest[0])
        model = _parthood_model(kind, loaded)
        report = analyze(kind, model, cap=args.cap or MATRIX_CAP)
        rows = _axiom_rows(
            [
                ("reflexive", report.reflexive),
                ("transitive", report.transitive),
                ("antisymmetric", report.antisymmetric),
            ]
        )
        return Report(["property", "status", "witness"], rows)
    kind = ParthoodKind.from_name(args.kind_or_analyze)
    if len(args.rest) != 2:
        raise ValueError(f"usage: parthood {kind.value} <a> <b>")
    model = _parthood_model(kind, loaded)
    a, b = (_parthood_operand(kind, loaded, model, t) for t in args.rest)
    verdict = holds(kind, model, a, b)
    return Report(
        ["kind", "a", "b", "holds"],
        [(kind.value, str(a), str(b), verdict)],
        text=[str(verdict)],
    )


def _parthood_model(kind: ParthoodKind, loaded):
    if kind in SUBSET_KINDS:
        return loaded.granular
    if kind in MIXED_KINDS:
        return CeraModel(loaded.space)
    return CradModel(CeraModel(loaded.space))


def _parthood_operand(kind: ParthoodKind, loaded, model, text: str):
    if kind in SUBSET_KINDS:
        return loaded.space.universe.parse(text)
    if kind in MIXED_KINDS:
        return _mixed_operand(model, text)
    return _pair_operand(model, text)


def _cmd_crad(args) -> Report:
    loaded = _load(args)
    crad = CradModel(CeraModel(loaded.space))
    p = _pair_operand(crad, args.left)
    q = _pair_operand(crad, args.right)
    if args.op == "pnat":
        result = crad.natural_parthood(p, q)
    else:
        result = (crad.plus if args.op == "plus" else crad.times)(p, q).describe()
    return Report(
        ["op", "p", "q", "result"],
        [(args.op, p.describe(), q.describe(), result)],
        text=[str(result)],
    )


def _capped_quotient(space, args):
    """The rough quotient, refused past ``--cap`` classes: its tables are carrier²."""
    quotient = quotient_algebra(space)
    message = "quotient of {size} rough classes exceeds the cap {cap}"
    check_cap(quotient.labels(), args.cap or MATRIX_CAP, message)
    return quotient


def _cmd_negation(args) -> Report:
    if args.action == "check":
        profile = check_quotient_negation(_capped_quotient(_load(args).space, args))
        rows = _axiom_rows(profile.checks.items())
        rows += [(name, str(getattr(profile, name)), "") for name in ("index", "period", "pace")]
        return Report(["check", "status", "witness"], rows)
    claim = args.claim
    cap = FALSIFY_DEFAULT_CAP if args.cap is None else args.cap
    witness = falsify_theorem(claim, size_cap=cap)
    if witness is None:
        return Report(
            ["claim", "witness"],
            [(claim, "none")],
            text=[f"no counterexample on lattices with at most {cap} elements"],
        )
    mapping = ", ".join(f"{k}->{v}" for k, v in sorted(witness.op.mapping.items()))
    rows = [
        ("claim", claim),
        ("elements", " ".join(str(e) for e in witness.poset.elements)),
        ("map", mapping),
        ("note", witness.note),
    ]
    return Report(["field", "value"], rows)


# The least and most arguments of each opposition action, and their usage.
_OPPOSITION_ARITY = {
    "classify": (2, 2, "<tt> <ff>"),
    "hexagon": (1, 1, "<set>"),
    "tables": (0, 0, ""),
    "tsr": (1, None, "<grade> [<move> ...]"),
}


def _cmd_opposition(args) -> Report:
    least, most, usage = _OPPOSITION_ARITY[args.action]
    if len(args.args) < least or most is not None and len(args.args) > most:
        raise ValueError(f"usage: opposition {args.action} {usage}".rstrip())
    if args.action == "classify":
        tt = _parse_bool(args.args[0])
        ff = _parse_bool(args.args[1])
        figure = classify_from_questions(tt, ff)
        return Report(
            ["tt", "ff", "figure"],
            [(tt, ff, figure.value)],
            text=[figure.value],
        )
    if args.action == "hexagon":
        loaded = _load(args)
        x = loaded.space.universe.parse(args.args[0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegeneratePartitionWarning)
            report = hexagon(loaded.space, x)
        rows = [("node", name, str(report.nodes[name])) for name in HEXAGON_NODE_ORDER]
        rows += [
            ("figure", f"{a}/{b}", fig.value)
            for (a, b), fig in report.figures.items()
        ]
        if report.degenerate:
            rows.append(("degenerate", " ".join(report.degenerate), ""))
        return Report(["item", "key", "value"], rows)
    if args.action == "tables":
        rows = []
        lines = []
        for table in reference_tables():
            lines.append(f"{table.name}: {table.label}")
            for left_val, right_val, entry in table.rows:
                rows.append(
                    (table.name, table.kind, left_val, right_val, entry, table.label)
                )
                lines.append(f"  {left_val}/{right_val}: {entry}")
        return Report(
            ["table", "kind", "left", "right", "entry", "label"], rows, text=lines
        )
    start = TruthGrade.from_name(args.args[0])
    trace = tsr_walk(start, args.args[1:], branch_policy=args.policy)
    labels = [g.value for g in trace]
    return Report(
        ["step", "grade"],
        list(enumerate(labels)),
        text=[" -> ".join(labels)],
        payload={"trace": labels},
    )


def _cmd_count(args) -> Report:
    sequence = IPC_SEQUENCE if args.seq is None else args.seq.split(",")
    if "" in sequence:
        raise ValueError(f"sequence {args.seq!r} names an empty element")
    if args.pairs is None:
        pairs = IPC_PAIRS if args.seq is None else []
    else:
        pairs = []  # an explicit "" names no pairs
        for chunk in args.pairs.split(",") if args.pairs else ():
            sides = chunk.split("-")
            if len(sides) != 2 or "" in sides:
                raise ValueError(f"pair {chunk!r} must look like x-y")
            pairs.append((sides[0], sides[1]))
    elements = list(dict.fromkeys([*sequence, *(name for pair in pairs for name in pair)]))
    rel = close(elements, pairs, mode=args.closure)
    tags = ipc(sequence, rel)
    rows = [(i, el, str(tag)) for i, (el, tag) in enumerate(zip(sequence, tags))]
    return Report(
        ["position", "element", "tag"],
        rows,
        text=[" ".join(str(t) for t in tags)],
        payload={"tags": [str(t) for t in tags]},
    )


def _cmd_granulation(args) -> Report:
    loaded = _load(args)
    families = search_admissible_granulations(
        loaded.granular.lower_op,
        loaded.granular.upper_op,
        max_granules=args.max_granules,
        candidate_cap=args.cap or SEARCH_CANDIDATE_CAP,
    )
    rows = [(" | ".join(str(g) for g in family),) for family in families]
    text = [row[0] for row in rows]
    text.append(f"admissible families: {len(families)}")
    return Report(["granules"], rows, text=text)


# --- parser ---


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: a parse reads it and never changes it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", help="model file (default: bundled example)")
    common.add_argument(
        "--format", choices=("text", "csv", "json"), default="text"
    )
    common.add_argument("--cap", type=_positive_int, help="search/carrier size cap")

    parser = argparse.ArgumentParser(prog="roughwork")
    sub = parser.add_subparsers(dest="command", required=True)

    p_space = sub.add_parser("space", parents=[common])
    p_space.add_argument("action", choices=("show", "triples", "classes"))
    p_space.set_defaults(handler=_cmd_space)

    p_eval = sub.add_parser("eval", parents=[common])
    p_eval.add_argument("expression")
    p_eval.set_defaults(handler=_cmd_eval)

    p_check = sub.add_parser("check", parents=[common])
    p_check.add_argument(
        "suite", choices=("gos", "admissible", "cera", "prerough", "essential")
    )
    p_check.set_defaults(handler=_cmd_check)

    p_part = sub.add_parser("parthood", parents=[common])
    p_part.add_argument("kind_or_analyze")
    p_part.add_argument("rest", nargs="*")
    p_part.set_defaults(handler=_cmd_parthood)

    p_crad = sub.add_parser("crad", parents=[common])
    p_crad.add_argument("op", choices=("plus", "times", "pnat"))
    p_crad.add_argument("left")
    p_crad.add_argument("right")
    p_crad.set_defaults(handler=_cmd_crad)

    # the flags belong to the action, whose defaults would overwrite any parsed before it
    p_neg = sub.add_parser("negation")
    neg_sub = p_neg.add_subparsers(dest="action", required=True)
    neg_check = neg_sub.add_parser("check", parents=[common])
    neg_check.set_defaults(handler=_cmd_negation)
    neg_falsify = neg_sub.add_parser("falsify", parents=[common])
    neg_falsify.add_argument("claim")
    neg_falsify.set_defaults(handler=_cmd_negation)

    p_opp = sub.add_parser("opposition", parents=[common])
    p_opp.add_argument("action", choices=tuple(_OPPOSITION_ARITY))
    p_opp.add_argument("args", nargs="*")
    p_opp.add_argument(
        "--policy", choices=BRANCH_POLICIES, default="weak-falsity"
    )
    p_opp.set_defaults(handler=_cmd_opposition)

    p_count = sub.add_parser("count", parents=[common])
    p_count.add_argument("action", choices=("ipc",))
    p_count.add_argument("--seq", help="comma-separated sequence")
    p_count.add_argument("--pairs", help="comma-separated x-y pairs")
    p_count.add_argument("--closure", choices=CLOSURE_MODES, default="equivalence")
    p_count.set_defaults(handler=_cmd_count)

    p_gran = sub.add_parser("granulation", parents=[common])
    p_gran.add_argument("action", choices=("search",))
    p_gran.add_argument("--max-granules", type=_positive_int, default=2)
    p_gran.set_defaults(handler=_cmd_granulation)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report = args.handler(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except expr_mod.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ModelFormatError, OSError) as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 4
    except UndefinedOperationError as exc:
        print(f"undefined: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        emit(report, args.format)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has all it wants.  Point stdout at the null device so
        # the flush at interpreter exit cannot fail on the closed pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
