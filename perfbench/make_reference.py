#!/usr/bin/env python3
"""Record the report digest of every job input in reference.json.

    python3 perfbench/make_reference.py [workload ...]

Run this only on a commit whose reports are the reference: a later commit
must reproduce every digest, since a speed-up may not change any report.
It also checks the known answers on every input: each partition space
passes the suites that hold on all partitions, and each failing input
fails at least one law.
"""

from __future__ import annotations

import json
import sys

import run


def main(argv: list[str]) -> int:
    run.import_roughwork()
    import jobs
    import spans

    workloads = argv or list(jobs.WORKLOADS)
    doc = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {"digests": {}}
    doc["variants"] = jobs.VARIANTS
    for workload in workloads:
        inputs = run.build_inputs(workload)
        table = {}
        for t in jobs.TEMPLATES[workload]:
            digests = []
            for v in range(jobs.VARIANTS):
                job = jobs.load_job(workload, t, inputs[(t.id, v)], run.MODEL_DIR)
                report = job.run(spans.NullTracer())
                if workload == "sweep" and t.kind in run.KNOWN_PASS and jobs.has_failure(report):
                    raise SystemExit(f"{t.id} v{v}: a partition space fails a law")
                if workload == "witness" and not jobs.has_failure(report):
                    raise SystemExit(f"{t.id} v{v}: a failing input passes every law")
                if workload == "query" and t.arg[1] and report["exit"] != 0:
                    raise SystemExit(f"{t.id} v{v}: exit {report['exit']}: {report['stderr']}")
                digests.append(jobs.digest(report))
            table[t.id] = digests
            print(f"{workload} {t.id}: {len(set(digests))} distinct reports", flush=True)
        doc["digests"][workload] = table
        run.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
