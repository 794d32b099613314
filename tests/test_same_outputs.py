import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_outputs_lists_every_file_that_differs_or_is_missing(tmp_path):
    # two trees with one identical file, one that differs in a nested
    # directory, one file each side lacks, and one command output each
    tool = load_tool()
    ours, theirs = tmp_path / "ours", tmp_path / "theirs"
    for tree, data, only in ((ours, b"1.0\n", "a.csv"),
                             (theirs, b"1.0000000000000002\n", "b.vtk")):
        (tree / "out").mkdir(parents=True)
        (tree / "same.txt").write_bytes(b"same\n")
        (tree / "out" / "diag.csv").write_bytes(data)
        (tree / only).write_bytes(b"x")
    mine, other = tool.files(ours), tool.files(theirs)
    assert sorted(mine) == ["file a.csv", "file out/diag.csv",
                            "file same.txt"]
    mine["run: stdout"], other["run: stdout"] = b"ok\n", b"ok\n"
    mine["run: exit code"], other["run: exit code"] = b"0", b"3"
    assert tool.differences(mine, other) == [
        "file a.csv", "file b.vtk", "file out/diag.csv", "run: exit code"]
    assert tool.differences(mine, dict(mine)) == []


def test_same_outputs_runs_thirteen_commands_with_the_trees_demos():
    cmds = load_tool().commands(Path("tree"))
    assert len({name for name, _ in cmds}) == 13
    assert [argv[1] for name, argv in cmds if name.startswith("demo")] == [
        "tree/demos/spinodal_decomposition.py", "tree/demos/tumour_growth.py"]
