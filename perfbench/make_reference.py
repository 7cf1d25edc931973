"""Write reference.json: the outputs the correctness gate compares against.

Run once on a program whose outputs are known good, and commit the file:

    python3 perfbench/make_reference.py

For every experiment item it keeps the check list (statement, name,
relation, verdict) and the decision values; for every adjuster item the
flagged-key count. Demo items need no reference: they must print ``pass``.
"""

from __future__ import annotations

import json

import common


def _dump(reference: dict) -> str:
    """JSON with one check row per line, so that a diff shows each change."""
    experiments = []
    for item_id, ref in reference["experiments"].items():
        rows = ",\n".join(f"    {json.dumps(row)}" for row in ref["checks"])
        experiments.append(f'  {json.dumps(item_id)}: {{\n   "checks": [\n{rows}\n   ],\n'
                           f'   "decision": {json.dumps(ref["decision"])}\n  }}')
    flagged = ",\n".join(f"  {json.dumps(k)}: {v}"
                          for k, v in reference["flagged_keys"].items())
    return ('{\n "experiments": {\n' + ",\n".join(experiments)
            + '\n },\n "flagged_keys": {\n' + flagged + "\n }\n}\n")


def main() -> None:
    common.load_program()
    import workloads
    from gate import check_list

    common.OUT.mkdir(exist_ok=True)
    reference = {"experiments": {}, "flagged_keys": {}}
    for name in common.WORKLOADS:
        for item in workloads.build(name, seed=0).items:
            item.prepare()
            raw = item.call()
            if isinstance(item, workloads.Experiment):
                report = json.loads(item.path.read_bytes())
                reference["experiments"][item.id] = {
                    "checks": check_list(report), "decision": report["decision"]}
            elif isinstance(item, workloads.AdjusterCheck):
                reference["flagged_keys"][item.id] = raw["flagged"]
    workloads.REFERENCE.write_text(_dump(reference))
    print(f"wrote {workloads.REFERENCE}")


if __name__ == "__main__":
    main()
