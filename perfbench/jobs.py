"""The four workloads: job templates, their seeded inputs, and the jobs.

A template is one kind of job at one input size. Each template has
``VARIANTS`` seeded inputs; a run picks one variant of every template per
round, so a round holds every template once and the mix of work is the same
on every seed. A job is one verdict: one law suite on one input, one search
or one query, made by calls into roughwork's public API. Its report is
reduced to a digest that must equal the one recorded in ``reference.json``.

Loading turns an input into the objects a user's script would hold before
asking for a verdict: spaces, tables, candidates, model files. Everything a
verdict derives from them (quotients, candidates from quotients, mixed and
pair models, posets) is built inside the job, because it is part of the
time to a verdict.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import hashlib
import io
import json
import warnings
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

import gen

# Jobs call roughwork through module attributes, so the spans that a traced
# round installs on those attributes see every call.
from roughwork import (
    approx,
    cera,
    cli,
    counting,
    crad,
    expr,
    granular,
    model_io,
    negation,
    opposition,
    parthood,
    prerough,
)

ParthoodKind = parthood.ParthoodKind
SUBSET_KINDS, MIXED_KINDS = parthood.SUBSET_KINDS, parthood.MIXED_KINDS

VARIANTS = 16
WORKLOADS = ("sweep", "witness", "search", "query")


@dataclass(frozen=True)
class Template:
    id: str
    kind: str
    profile: tuple[int, ...] = ()
    arg: object = None
    stratum: int = 0
    strata: int = 1


@dataclass
class Job:
    run: Callable  # run(tracer) -> report
    work: dict  # computed work counts, from the input sizes


# --- templates ---

PARTHOOD_ORDER = tuple(k.value for k in ParthoodKind)


def _sweep_templates() -> list[Template]:
    spaces = (
        ((2, 2, 2, 2), ("gos", "admissibility")),
        ((3, 3, 3), ("gos",)),
        ((2, 2, 2, 1), ("prerough", "cera", "negation")),
        ((1, 1, 1, 1, 1, 1), ("essential",)),
        ((2, 2, 2), ("negation", "parthood")),
        ((2, 2, 1), ("prerough", "essential", "cera", "parthood")),
    )
    out = []
    for profile, suites in spaces:
        tag = "".join(map(str, profile))
        for suite in suites:
            if suite == "parthood":
                out += [
                    Template(f"{suite}-{kind}-{tag}", suite, profile, kind)
                    for kind in PARTHOOD_ORDER
                ]
            else:
                out.append(Template(f"{suite}-{tag}", suite, profile))
    return out


def _witness_templates() -> list[Template]:
    """Failing inputs, stratified so each round breaks every table at every depth.

    The cost of a failing sweep depends mostly on which table is broken
    (it decides which laws stop early) and then on where, so both are
    fixed per template and only the exact entry is drawn per variant.
    """
    out = []
    for suite, profile, strata in (
        ("gos", (2, 2, 2, 2), 2),
        ("gos", (3, 3, 3), 1),
        ("admissibility", (2, 2, 2, 2), 1),
    ):
        tag = "".join(map(str, profile))
        out += [
            Template(f"{suite}-{tag}-{side}-s{j}", suite, profile, side, j, strata)
            for side in ("lower", "upper")
            for j in range(strata)
        ]
    for suite, profile in (
        ("prerough", (2, 2, 2)),
        ("essential", (2, 2, 2)),
        ("prerough", (2, 2, 2, 1)),
        ("essential", (1, 1, 1, 1, 1, 1)),
    ):
        tag = "".join(map(str, profile))
        out += [
            Template(f"{suite}-{tag}-{table}", suite, profile, table)
            for table in ("meet", "join", "neg", "necessity")
        ]
    out += [Template(f"negation-222-{j}", "negation", (2, 2, 2), None, j) for j in range(2)]
    out.append(Template("negation-2221", "negation", (2, 2, 2, 1)))
    # the stratum picks the broken table: 0 lower, 1 upper
    subset_kinds = [k for k in PARTHOOD_ORDER if ParthoodKind(k) in SUBSET_KINDS]
    out += [
        Template(f"parthood-{k}-2211", "parthood", (2, 2, 1, 1), k, i % 2, 2)
        for i, k in enumerate(subset_kinds)
    ]
    return out


def _search_templates() -> list[Template]:
    out = []
    for tables, profile, k in (
        ("partition", (2, 2), 2),
        ("partition", (2, 2), 3),
        ("partition", (2, 2, 1), 2),
        ("partition", (2, 2, 1), 3),
        ("partition", (2, 2, 2), 2),
        ("perturbed", (2, 2, 1), 3),
        ("perturbed", (2, 2, 2), 2),
        ("identity", (1, 1, 1, 1), 3),
        ("identity", (1, 1, 1, 1, 1), 3),
        ("complement", (1, 1, 1, 1, 1), 3),
        ("identity", (1, 1, 1, 1, 1, 1), 2),
        ("complement", (1, 1, 1, 1, 1, 1), 2),
    ):
        tag = "".join(map(str, profile))
        out.append(Template(f"search-{tables}-{tag}-k{k}", "search", profile, (tables, k)))
    return out


QUERY_KINDS = (
    "eval",
    "crad-plus",
    "crad-times",
    "crad-pnat",
    "parthood-holds",
    "hexagon",
    "space-classes",
    "count-ipc",
    "propsys",
)
# model size -> block profile; the atoms are spread at random per variant
QUERY_PROFILES = {6: (2, 2, 1, 1), 8: (3, 2, 2, 1), 10: (3, 3, 2, 1, 1)}


def _query_templates() -> list[Template]:
    out = []
    for kind in QUERY_KINDS:
        for where in ("bundled", 6, 10):
            out.append(Template(f"{kind}-{where}", kind, (), (where, False)))
        if kind != "propsys":  # the CLI has no property-system command
            out.append(Template(f"{kind}-8-cli", kind, (), (8, True)))
    return out


TEMPLATES = {
    "sweep": _sweep_templates(),
    "witness": _witness_templates(),
    "search": _search_templates(),
    "query": _query_templates(),
}


# --- inputs: plain data from the generator ---


def make_input(workload: str, t: Template, variant: int) -> dict:
    """The plain-data input of one template variant; deterministic."""
    rng = gen.rng_for(workload, t.id, variant)
    if workload == "query":
        return _query_input(rng, t, variant)
    n = sum(t.profile)
    blocks = gen.random_partition(rng, t.profile)
    data = {"n": n, "blocks": blocks}
    if workload == "witness":
        if t.kind in ("gos", "admissibility"):
            data["lower"], data["upper"] = gen.perturb_tables(
                rng, n, blocks, t.arg, t.stratum, t.strata
            )
        elif t.kind == "parthood":
            side = ("lower", "upper")[t.stratum]
            data["lower"], data["upper"] = gen.perturb_tables(rng, n, blocks, side, 0, 1)
        elif t.kind in ("prerough", "essential"):
            cand = gen.quotient_candidate(n, blocks)
            data["candidate"] = gen.mutate_candidate(rng, cand, t.arg, 0, 1)
        elif t.kind == "negation":
            data["map"] = gen.non_involution(rng, gen.class_count(t.profile))
    elif workload == "search":
        tables, _k = t.arg
        if tables == "partition":
            data["lower"], data["upper"] = gen.lower_upper(n, blocks)
        elif tables == "perturbed":
            data["lower"], data["upper"] = gen.perturb_tables(rng, n, blocks, "lower", 0, 1)
        elif tables == "identity":
            data["lower"] = data["upper"] = gen.identity_table(n)
        else:
            data["lower"], data["upper"] = gen.complement_table(n), gen.identity_table(n)
    return data


def _query_input(rng, t: Template, variant: int) -> dict:
    where, via_cli = t.arg
    if where == "bundled":
        atoms, blocks, model = gen.BUNDLED_ATOMS, gen.BUNDLED_BLOCKS, None
    else:
        model = f"model-{where}-v{variant}"
        raw = gen.model_json(gen.rng_for("model", where, variant), QUERY_PROFILES[where])
        atoms, blocks = "".join(raw["universe"]), raw["partition"]
    data = {"model": model, "cli": via_cli, "atoms": atoms}
    kind = t.kind
    if kind == "eval":
        data["text"] = gen.expression(rng, atoms, depth=3)
    elif kind.startswith("crad"):
        orient = rng.choice(("first", "second"))
        data["pairs"] = [
            (orient, gen.random_text(rng, atoms)),
            (orient, gen.definite_text(rng, atoms, blocks)),
        ]
    elif kind == "parthood-holds":
        # an operand is a subset; for the mixed kinds it may stand for its
        # class, and for the pair kind for its class-first pair
        data["kind"] = rng.choice(PARTHOOD_ORDER)
        data["operands"] = [(rng.random() < 0.5, gen.random_text(rng, atoms)) for _ in range(2)]
    elif kind == "hexagon":
        data["text"] = gen.random_text(rng, atoms)
    elif kind == "count-ipc":
        data["seq"], data["pairs"], data["mode"] = gen.ipc_input(rng, 12)
    elif kind == "propsys":
        data["op"] = rng.choice(("i_diamond", "e_diamond", "i_box", "e_box"))
        data["mask"] = rng.randrange(1 << (4 if data["op"].startswith("i") else 3))
    return data


def write_model_files(directory: Path) -> None:
    """Write every seeded model file the query workload loads."""
    directory.mkdir(parents=True, exist_ok=True)
    for where, profile in QUERY_PROFILES.items():
        for variant in range(VARIANTS):
            raw = gen.model_json(gen.rng_for("model", where, variant), profile)
            (directory / f"model-{where}-v{variant}.json").write_text(json.dumps(raw))


# --- loading and jobs ---


def _space(data: dict) -> approx.ApproximationSpace:
    return approx.ApproximationSpace.from_partition(list(gen.ATOMS[: data["n"]]), data["blocks"])


def _granular(data: dict) -> granular.GranularModel:
    universe = approx.Universe(gen.ATOMS[: data["n"]])
    return granular.GranularModel(
        universe=universe,
        granules=tuple(universe.subset(b) for b in data["blocks"]),
        lower_op=granular.OperatorTable(universe, dict(enumerate(data["lower"]))),
        upper_op=granular.OperatorTable(universe, dict(enumerate(data["upper"]))),
    )


def _parthood_model(kind: ParthoodKind, granular_or_space):
    if kind in SUBSET_KINDS:
        if isinstance(granular_or_space, approx.ApproximationSpace):
            return granular.from_space(granular_or_space)
        return granular_or_space
    if kind in MIXED_KINDS:
        return cera.CeraModel(granular_or_space)
    return crad.CradModel(cera.CeraModel(granular_or_space))


def _negation_verdict(tr, space: approx.ApproximationSpace, mapping: list[int] | None):
    """The quotient order as a bounded poset, as the CLI builds it, and a map on it."""
    q = prerough.quotient_algebra(space)
    carrier = q.carrier
    with tr.span("prerough", "leq"):
        pairs = [(a, b) for a in carrier for b in carrier if q.leq(a, b)]
    poset = negation.BoundedPoset(carrier, pairs)
    if mapping is None:
        with tr.span("prerough", "neg"):
            op = negation.UnaryOp({c: q.neg(c) for c in carrier})
    else:
        op = negation.UnaryOp({c: carrier[mapping[i]] for i, c in enumerate(carrier)})
    return negation.check_negation(poset, op)


def _suite_job(t: Template, data: dict, failing: bool) -> Callable:
    kind = t.kind
    # Checkers are looked up when the job runs, so a traced round sees its spans.
    if kind in ("gos", "admissibility"):
        name = "check_gos_axioms" if kind == "gos" else "check_admissibility"
        if failing:
            model = _granular(data)
            return lambda tr: getattr(granular, name)(model)
        space = _space(data)
        return lambda tr: getattr(granular, name)(granular.from_space(space))
    if kind in ("prerough", "essential"):
        name = "check_pre_rough" if kind == "prerough" else "check_essential_pre_rough"
        if failing:
            c = data["candidate"]
            cand = prerough.FiniteAlgebraCandidate(
                carrier=tuple(c["carrier"]),
                meet=c["meet"],
                join=c["join"],
                neg=c["neg"],
                necessity=c["necessity"],
                zero=c["zero"],
                one=c["one"],
            )
            return lambda tr: getattr(prerough, name)(cand)
        space = _space(data)
        return lambda tr: getattr(prerough, name)(prerough.quotient_algebra(space).to_candidate())
    if kind == "cera":
        space = _space(data)
        return lambda tr: cera.check_cera_identities(cera.CeraModel(space))
    if kind == "negation":
        space = _space(data)
        mapping = data.get("map")
        return lambda tr: _negation_verdict(tr, space, mapping)
    if kind == "parthood":
        pk = ParthoodKind(t.arg)
        base = _granular(data) if failing else _space(data)
        return lambda tr: parthood.analyze(pk, _parthood_model(pk, base))
    raise ValueError(f"unknown suite {kind!r}")


def _search_job(t: Template, data: dict) -> Callable:
    universe = approx.Universe(gen.ATOMS[: data["n"]])
    lower = granular.OperatorTable(universe, dict(enumerate(data["lower"])))
    upper = granular.OperatorTable(universe, dict(enumerate(data["upper"])))
    k = t.arg[1]
    return lambda tr: granular.search_admissible_granulations(lower, upper, max_granules=k)


def _pair_text(orient: str, text: str) -> str:
    return f"({text},[{text}])" if orient == "first" else f"([{text}],{text})"


def _pair(model: crad.CradModel, universe: approx.Universe, orient: str, text: str):
    x = universe.parse(text)
    return model.first_pair(x) if orient == "first" else model.second_pair(x)


def _operand(kind: ParthoodKind, model, universe: approx.Universe, spec: tuple[bool, str]):
    as_class, text = spec
    if kind in SUBSET_KINDS:
        return universe.parse(text)
    if kind in MIXED_KINDS:
        x = universe.parse(text)
        return model.class_of(x) if as_class else cera.MixedElement.type1(x)
    return _pair(model, universe, "second" if as_class else "first", text)


def _cli_argv(t: Template, data: dict) -> list[str]:
    kind = t.kind
    if kind == "eval":
        argv = ["eval", data["text"]]
    elif kind.startswith("crad"):
        op = kind.split("-")[1]
        argv = ["crad", op] + [_pair_text(o, s) for o, s in data["pairs"]]
    elif kind == "parthood-holds":
        pk = ParthoodKind(data["kind"])
        texts = []
        for as_class, text in data["operands"]:
            if pk in SUBSET_KINDS:
                texts.append(text)
            elif pk in MIXED_KINDS:
                texts.append(f"[{text}]" if as_class else text)
            else:
                texts.append(_pair_text("second" if as_class else "first", text))
        argv = ["parthood", pk.value] + texts
    elif kind == "hexagon":
        argv = ["opposition", "hexagon", data["text"]]
    elif kind == "space-classes":
        argv = ["space", "classes"]
    elif kind == "count-ipc":
        argv = [
            "count",
            "ipc",
            "--seq",
            ",".join(data["seq"]),
            "--pairs",
            ",".join(f"{a}-{b}" for a, b in data["pairs"]),
            "--closure",
            data["mode"],
        ]
    else:
        raise ValueError(f"no command for {kind!r}")
    return argv


def _query_job(t: Template, data: dict, model_dir: Path) -> Callable:
    path = None if data["model"] is None else str(model_dir / f"{data['model']}.json")
    if data["cli"]:
        argv = _cli_argv(t, data) + ([] if path is None else ["--model", path])

        def via_cli(tr):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

        return via_cli

    kind = t.kind

    def load():
        return model_io.load_model(path if path is not None else model_io.default_model_path())

    if kind == "count-ipc":
        seq, pairs, mode = data["seq"], data["pairs"], data["mode"]

        def run(tr):
            elements = list(dict.fromkeys(seq))
            rel = counting.close(elements, pairs, mode=mode)
            return [str(tag) for tag in counting.ipc(seq, rel)]

        return run

    def run(tr):
        loaded = load()
        space = loaded.space
        universe = space.universe
        if kind == "eval":
            node = expr.parse(data["text"])
            return [expr.unparse(node), expr.eval_expr(cera.CeraModel(space), node)]
        if kind.startswith("crad"):
            pairs = crad.CradModel(cera.CeraModel(space))
            p, q = (_pair(pairs, universe, o, s) for o, s in data["pairs"])
            if kind == "crad-pnat":
                with tr.span("crad", "natural_parthood"):
                    return pairs.natural_parthood(p, q)
            return pairs.plus(p, q) if kind == "crad-plus" else pairs.times(p, q)
        if kind == "parthood-holds":
            pk = ParthoodKind(data["kind"])
            model = _parthood_model(pk, space) if pk not in SUBSET_KINDS else loaded.granular
            a, b = (_operand(pk, model, universe, spec) for spec in data["operands"])
            with tr.span("parthood", "holds"):
                return parthood.holds(pk, model, a, b)
        if kind == "hexagon":
            x = universe.parse(data["text"])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", opposition.DegeneratePartitionWarning)
                return opposition.hexagon(space, x)
        if kind == "space-classes":
            classes = space.rough_classes()
            with tr.span("approx", "members"):
                return [(c.sample_member(), c, sum(1 for _ in c.members())) for c in classes]
        if kind == "propsys":
            ps = loaded.property_system
            side = ps.objects if data["op"].startswith("i") else ps.properties
            arg = side.subset(a for i, a in enumerate(side.atoms) if data["mask"] >> i & 1)
            return getattr(ps, data["op"])(arg)
        raise ValueError(f"unknown query {kind!r}")

    return run


def load_job(workload: str, t: Template, data: dict, model_dir: Path) -> Job:
    """Turn one input into a job holding fresh roughwork objects."""
    if workload in ("sweep", "witness"):
        run = _suite_job(t, data, failing=workload == "witness")
    elif workload == "search":
        run = _search_job(t, data)
    else:
        run = _query_job(t, data, model_dir)
    return Job(run, work_counts(workload, t, data))


# --- computed work counts ---

# laws per arity of each candidate checker (0-ary laws sweep one cell)
_PREROUGH_ARITIES = {"prerough": (1, 8, 7, 3), "essential": (1, 7, 6, 3)}


def work_counts(workload: str, t: Template, data: dict) -> dict:
    """Work a job implies, computed from its input sizes alone."""
    out: dict[str, int] = {}
    if workload == "query":
        if t.kind not in ("count-ipc", "propsys"):
            out["approx.masks"] = 1 << len(data["atoms"])
        if t.kind.startswith("crad") or data.get("kind") == ParthoodKind.NATURAL_CRAD.value:
            out["crad.pairs"] = 2 << len(data["atoms"])
        return out
    n = data["n"]
    masks = 1 << n
    out["approx.masks"] = masks
    classes = gen.class_count(t.profile)
    kind = t.kind
    if kind == "gos":
        out["granular.gos_cells"] = 4 * masks + 2 * masks * masks
    elif kind in ("prerough", "essential"):
        out["prerough.carrier"] = classes
        out["prerough.cells"] = sum(
            count * classes**arity for arity, count in enumerate(_PREROUGH_ARITIES[kind])
        )
    elif kind == "cera":
        carrier = masks + classes
        out["cera.carrier"] = carrier
        out["cera.table_cells"] = 2 * carrier * carrier
    elif kind == "negation":
        out["negation.poset_elems"] = classes
    elif kind == "parthood":
        pk = ParthoodKind(t.arg)
        if pk in SUBSET_KINDS:
            carrier = masks
        elif pk in MIXED_KINDS:
            carrier = masks + classes
        else:
            carrier = 2 * masks
            out["crad.pairs"] = carrier
        out["parthood.matrix_cells"] = carrier * carrier
    elif kind == "search":
        k = t.arg[1]
        out["granular.search.candidates"] = sum(comb(masks - 1, j) for j in range(1, k + 1))
    return out


# --- reports and digests ---


def canon(x):
    """A report as JSON-ready data: status, witnesses and order, nothing else."""
    if x is None or isinstance(x, (bool, int, str, float)):
        return x
    if isinstance(x, approx.Subset):
        return ["S", x.mask]
    if isinstance(x, approx.RoughClass):
        return ["C", x.lower.mask, x.upper.mask]
    if isinstance(x, cera.MixedElement):
        return ["M", canon(x.payload)]
    if isinstance(x, crad.DialecticalPair):
        return ["P", canon(x.first), canon(x.second)]
    if isinstance(x, granular.AxiomCheck):
        return [x.passed, canon(x.witness)]
    if isinstance(x, granular.AxiomReport):
        return [[name, canon(check)] for name, check in x.items()]
    if isinstance(x, enum.Enum):
        return x.value
    if isinstance(x, dict) or hasattr(x, "items"):
        return [[canon(k), canon(v)] for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if dataclasses.is_dataclass(x):
        return [[f.name, canon(getattr(x, f.name))] for f in dataclasses.fields(x)]
    raise TypeError(f"no canonical form for {type(x).__name__}")


def digest(report) -> str:
    text = json.dumps(canon(report), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def has_failure(report) -> bool:
    """True when some law in a suite report failed."""
    if isinstance(report, granular.AxiomReport):
        return not report.all_pass
    if hasattr(report, "checks"):  # negation profile
        return not report.checks.all_pass
    if dataclasses.is_dataclass(report):  # admissibility or relation report
        return any(
            isinstance(v, granular.AxiomCheck) and not v.passed
            for v in (getattr(report, f.name) for f in dataclasses.fields(report))
        )
    raise TypeError(f"not a suite report: {type(report).__name__}")
