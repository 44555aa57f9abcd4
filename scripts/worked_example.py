"""Walk the bundled six-atom example end to end.

Prints the approximation landscape, the mixed-algebra highlights, the
pair-algebra walkthrough, the opposition hexagon, and the counting
sequence. Point --model at another file to rerun on a different space.
"""

import argparse
import warnings

from roughwork.cera import CeraModel
from roughwork.counting import IPC_PAIRS, IPC_SEQUENCE, close, ipc
from roughwork.crad import CradModel, UndefinedResultError
from roughwork.expr import eval_expr, parse
from roughwork.model_io import default_model_path, load_model
from roughwork.opposition import DegeneratePartitionWarning, HEXAGON_NODE_ORDER, hexagon


def main() -> None:
    cli = argparse.ArgumentParser(description=__doc__)
    cli.add_argument("--model", default=None)
    args = cli.parse_args()

    loaded = load_model(args.model or default_model_path())
    space = loaded.space
    u = space.universe

    print("universe:", " ".join(u.atoms))
    print("blocks:  ", " | ".join(str(b) for b in space.blocks))
    print()

    triples = space.triples()
    rough = [t for t in triples if t[1] != t[2]]
    print(f"{len(triples)} nonempty subsets, {len(rough)} of them rough")
    for x, lo, up in triples[:6]:
        print(f"  {x}: lower={lo} upper={up}")
    classes = space.rough_classes()
    print(f"{len(classes)} nonempty rough classes")
    print()

    model = CeraModel(space)
    print("mixed algebra:")
    for text in (
        "bc (+) [bf]",
        "b (+) [f]",
        "abcq (.) [q]",
        "bc ~> [S]",
        "[bf] ->> bc",
    ):
        try:
            value = eval_expr(model, parse(text)).describe()
        except Exception as exc:  # noqa: BLE001 - narrative output
            value = f"error: {exc}"
        print(f"  {text:18} = {value}")
    print()

    crad = CradModel(model)
    a_pair = crad.first_pair(u.parse("a"))
    b_pair = crad.first_pair(u.parse("b"))
    fq_pair = crad.second_pair(u.parse("fq"))
    print("pair algebra:")
    print(f"  {a_pair.describe()} + {b_pair.describe()}")
    print(f"    = {crad.plus(a_pair, b_pair).describe()}")
    print(f"  {a_pair.describe()} + {fq_pair.describe()}")
    try:
        crad.plus(a_pair, fq_pair)
    except UndefinedResultError as exc:
        print(f"    undefined: {exc.condition}")
    defined = 0
    for p in crad.carrier:
        for q in crad.carrier:
            try:
                crad.plus(p, q)
                defined += 1
            except UndefinedResultError:
                pass
    print(f"  + is defined on {defined} of {len(crad.carrier) ** 2} ordered pairs")
    print()

    x = u.parse("aef")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegeneratePartitionWarning)
        report = hexagon(space, x)
    print(f"hexagon around {x}:")
    for name in HEXAGON_NODE_ORDER:
        print(f"  {name:2} = {report.nodes[name]}")
    for (left, right), figure in sorted(report.figures.items()):
        print(f"  {left}/{right}: {figure.value}")
    print()

    rel = close(IPC_SEQUENCE, IPC_PAIRS)
    tags = ipc(IPC_SEQUENCE, rel)
    print("counting:", " ".join(str(t) for t in tags))


if __name__ == "__main__":
    main()
