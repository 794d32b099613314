"""Regenerate perfbench/reference.json, the stored answers of the
correctness gate.

    python3 perfbench/make_reference.py --workload NAME

Run from the root of a checkout whose solvers are trusted.  For a stepping
workload it runs every input variant once and stores the final energy and
mass.  Existing entries of the other workload and the tolerances are kept.
limit-sweep-64 has no entry: its gate asks the studies' own checks.
"""

import argparse
import json
import os
import sys

import workload as wl


def reference_entries(name):
    sys.path.insert(0, str(wl.ROOT / "src"))
    from chbrinkman import cli, initialize_state

    entries = []
    for variant in range(wl.VARIANTS):
        run = wl.Run(None)
        out_dir = wl.BUILD / "reference" / f"{name}-{variant}"
        out_dir.mkdir(parents=True, exist_ok=True)
        sim = cli.parse_config(wl.stepping_config(name, variant, out_dir))
        state0 = initialize_state(sim.grid, sim.spec, sim.stepping)
        final = wl.stepping_episode(run, name, variant, sim, state0, out_dir,
                                    None)
        if final is None or run.failed:
            raise SystemExit(f"{name} variant {variant} failed: "
                             f"{run.failures}")
        entry = {"energy": final.energy, "mass": final.mass}
        print(name, variant, entry, flush=True)
        entries.append(entry)
    return entries


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(wl.FIELD_STRIDE))
    args = parser.parse_args()
    entries = reference_entries(args.workload)
    path = wl.REFERENCE
    data = json.loads(path.read_text()) if path.exists() else {}
    data[args.workload] = entries
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(data, indent=1) + "\n")
    os.replace(tmp, path)


if __name__ == "__main__":
    main()
