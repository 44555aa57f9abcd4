"""Tests of the benchmark itself: inputs, correctness check, spans, names.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json

import pytest

import run

run.import_roughwork()

import gen  # noqa: E402
import jobs  # noqa: E402
import spans  # noqa: E402

REFERENCE = json.loads(run.REFERENCE.read_text())["digests"]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    for t in jobs.TEMPLATES[workload]:
        for v in (0, jobs.VARIANTS - 1):
            assert jobs.make_input(workload, t, v) == jobs.make_input(workload, t, v)
    first = run.Run(workload, 7, {}, REFERENCE)
    again = run.Run(workload, 7, {}, REFERENCE)
    other = run.Run(workload, 8, {}, REFERENCE)
    picks = [[(t.id, v) for t, v in first.picks()] for _ in range(3)]
    assert picks == [[(t.id, v) for t, v in again.picks()] for _ in range(3)]
    assert picks != [[(t.id, v) for t, v in other.picks()] for _ in range(3)]


def test_generated_candidate_mutants_change_one_entry():
    blocks = gen.random_partition(gen.rng_for("test"), (2, 2, 1))
    cand = gen.quotient_candidate(5, blocks)
    mutant = gen.mutate_candidate(gen.rng_for("test", 1), cand, "necessity", 0, 1)
    changed = sum(
        a != b
        for name in ("meet", "join")
        for row_a, row_b in zip(cand[name], mutant[name])
        for a, b in zip(row_a, row_b)
    ) + sum(a != b for name in ("neg", "necessity") for a, b in zip(cand[name], mutant[name]))
    assert changed == 1


def _query_round(reference, traced=False):
    inputs = run.build_inputs("query")
    bench = run.Run("query", 3, inputs, reference)
    picks = bench.picks()
    bench.run_round(picks, traced=False)
    if traced:
        bench.run_round(picks, traced=True)
    return bench


def test_reference_digests_match():
    bench = _query_round(REFERENCE)
    assert bench.attempted == len(jobs.TEMPLATES["query"])
    assert bench.failed == 0, bench.problems


def test_corrupted_digest_counts_as_error():
    corrupted = json.loads(json.dumps(REFERENCE))
    for digests in corrupted["query"].values():
        digests[:] = ["0" * len(d) for d in digests]
    bench = _query_round(corrupted)
    assert bench.failed / bench.attempted > 0
    assert bench.failed == bench.attempted


def test_known_answers_pass():
    assert run.known_answers() == []


def test_span_self_time_within_total():
    bench = _query_round(REFERENCE, traced=True)
    rows = bench.tracer.self_times()
    assert rows
    by_job: dict[int, int] = {}
    roots = {}
    for sid, parent, job, layer, name, start, end, failed, self_ns in rows:
        assert 0 <= self_ns <= end - start
        by_job[job] = by_job.get(job, 0) + self_ns
        if parent is None:
            roots[job] = end - start
    # the self times of a job's spans add up to the job's own span
    assert by_job == roots
    layers = {row[3] for row in rows}
    assert {"model_io", "cli", "expr", "crad", "opposition", "propsys"} <= layers


def test_tracer_restores_every_target():
    import roughwork.cli
    import roughwork.granular

    before = (roughwork.granular.check_gos_axioms, roughwork.cli.check_gos_axioms)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert roughwork.cli.check_gos_axioms is roughwork.granular.check_gos_axioms
        assert roughwork.cli.check_gos_axioms is not before[0]
    finally:
        tracer.uninstall()
    assert (roughwork.granular.check_gos_axioms, roughwork.cli.check_gos_axioms) == before


def test_metric_names_well_formed_and_declared():
    bench_json = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in bench_json["end_to_end"]]
    assert list(run.end_to_end(_query_round(REFERENCE), {"setup_s": 1.0})) == e2e
    layer = [m["name"] for m in bench_json["per_layer"]]
    for name in e2e + layer:
        assert run.METRIC_NAME.fullmatch(name), name
    assert layer == [name for name, _unit in run.per_layer_names()]
    assert len(layer) <= 128
    units = {m["name"]: m["unit"] for m in bench_json["per_layer"]}
    assert units == dict(run.per_layer_names())
    assert [w["name"] for w in bench_json["workloads"]] == list(jobs.WORKLOADS)
