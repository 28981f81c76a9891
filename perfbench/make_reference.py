"""Store the default-seed stage outputs that run.py checks against.

Run each workload once at the default seed and full scale, then:

    python3 perfbench/make_reference.py

It copies the stage digests of the latest such untraced run of every
workload from out/results.jsonl into reference.json. Do this only when
a change is meant to alter the computed values, and say so.
"""

import json

from run import BENCH_DIR, RESULTS, WORKLOADS


def main() -> None:
    latest = {}
    with open(RESULTS) as f:
        for line in f:
            rec = json.loads(line)
            if (rec["seed"], rec["scale"], rec["trace"]) == (12, "full", 0) and rec["digests"]:
                latest[rec["workload"]] = rec["digests"]
    missing = [w for w in WORKLOADS if w not in latest]
    if missing:
        raise SystemExit(f"no default-seed untraced run recorded for {missing}")
    blocks = [
        f"  {json.dumps(w)}: [\n" + ",\n".join(f"    {json.dumps(c)}" for c in latest[w]) + "\n  ]"
        for w in WORKLOADS
    ]
    with open(BENCH_DIR / "reference.json", "w") as f:
        f.write("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
