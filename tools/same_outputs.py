"""Check that this tree and a parent tree write byte-identical outputs.

For each tree, in a temporary directory of its own and with
PYTHONPATH=<tree>/src, runs 13 commands:

* ``chbrinkman run`` and ``chbrinkman validate`` on the variant-0 configs
  of the tumour-brinkman-48 and spinodal-darcy-64 workloads (the config
  text comes from ``perfbench/workload.stepping_config`` of this tree);
* ``limit-k`` and ``limit-visc``;
* ``mms`` on the nutrient, darcy and brinkman problems;
* ``contdep`` with the phi0 and the sigma_inf perturbation;
* both demos of the tree.

Every file in the two temporary directories, and each command's stdout,
stderr and exit code, are compared byte for byte, with paths relative to
the temporary directory.  Prints what differs and exits 1 if anything
does, 0 if everything is identical.

Usage: python tools/same_outputs.py PARENT_TREE
"""

import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STEPPING = ("tumour-brinkman-48", "spinodal-darcy-64")


def commands(tree: Path):
    """(name, argv) of the 13 commands, run in the temporary directory."""
    cli = [sys.executable, "-m", "chbrinkman.cli"]
    out = []
    for workload in STEPPING:
        for sub in ("run", "validate"):
            out.append((f"{sub} {workload}",
                        cli + [sub, "--config", f"{workload}.json"]))
    for study in ("limit-k", "limit-visc"):
        out.append((study, cli + [study, "--out", "studies"]))
    for problem in ("nutrient", "darcy", "brinkman"):
        out.append((f"mms {problem}", cli + ["mms", "--problem", problem,
                                             "--out", "studies"]))
    for perturb in ("phi0", "sigma_inf"):
        out.append((f"contdep {perturb}", cli + [
            "contdep", "--perturb", perturb, "--out", "studies"]))
    for demo in ("spinodal_decomposition", "tumour_growth"):
        out.append((f"demo {demo}",
                    [sys.executable, str(tree / "demos" / f"{demo}.py")]))
    return out


def write_configs(work: Path):
    """The variant-0 configs of the stepping workloads, each writing into a
    directory named after its workload."""
    spec = importlib.util.spec_from_file_location(
        "workload", ROOT / "perfbench" / "workload.py")
    workload = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workload)
    for name in STEPPING:
        (work / f"{name}.json").write_text(
            workload.stepping_config(name, 0, name))


def run_tree(tree: Path, work: Path) -> dict:
    """Run the commands of ``tree`` in ``work``; returns the outputs by
    name: each written file by its relative path, and each command's
    stdout, stderr and exit code."""
    write_configs(work)
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    outputs = {}
    for name, argv in commands(tree):
        print(f"{tree}: {name}", file=sys.stderr)
        done = subprocess.run(argv, cwd=work, env=env, capture_output=True)
        outputs[f"{name}: stdout"] = done.stdout
        outputs[f"{name}: stderr"] = done.stderr
        outputs[f"{name}: exit code"] = str(done.returncode).encode()
    outputs.update(files(work))
    return outputs


def files(directory: Path) -> dict:
    """Every file under ``directory``, as relative path -> bytes."""
    return {f"file {path.relative_to(directory).as_posix()}":
            path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def differences(ours: dict, theirs: dict) -> list:
    """The names whose bytes differ or that only one side has, sorted."""
    return sorted(name for name in ours.keys() | theirs.keys()
                  if ours.get(name) != theirs.get(name))


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    parent = Path(argv[1]).resolve()
    with tempfile.TemporaryDirectory() as ours, \
            tempfile.TemporaryDirectory() as theirs:
        mine = run_tree(ROOT, Path(ours))
        other = run_tree(parent, Path(theirs))
    differ = differences(mine, other)
    for name in differ:
        print(f"differs: {name}")
    for name, value in mine.items():
        if name.endswith(": exit code") and value != b"0":
            print(f"exited {value.decode()} in this tree: {name[:-11]}")
    names = mine.keys() | other.keys()
    n_files = sum(name.startswith("file ") for name in names)
    print(f"{len(names) - len(differ)} of {len(names)} outputs identical "
          f"({n_files} files, {len(commands(ROOT))} commands)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
