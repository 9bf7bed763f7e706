"""tools/diff_outputs.py: the comparison of two output trees, without
running the CLI set."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "diff_outputs.py"
spec = importlib.util.spec_from_file_location("diff_outputs", TOOL)
diff_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(diff_outputs)

FILES = {"train/hardware_aware.json": b'{"w": [0.5]}\n', "heatmap/heatmap.csv": b"x,y\n1,2\n",
         "run/regular/table.csv": b"bin\n0\n"}


def tree(root: Path, files=FILES) -> Path:
    for rel, data in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)
    return root


def test_identical_trees_give_no_difference(tmp_path):
    assert diff_outputs.compare_trees(tree(tmp_path / "a"), tree(tmp_path / "b")) == []


def test_flipped_byte_names_its_file(tmp_path):
    flipped = dict(FILES)
    data = bytearray(flipped["heatmap/heatmap.csv"])
    data[5] ^= 1
    flipped["heatmap/heatmap.csv"] = bytes(data)
    problems = diff_outputs.compare_trees(tree(tmp_path / "a"), tree(tmp_path / "b", flipped))
    assert problems == ["differs: heatmap/heatmap.csv"]


def test_missing_file_is_named(tmp_path):
    fewer = {rel: data for rel, data in FILES.items() if rel != "run/regular/table.csv"}
    a, b = tree(tmp_path / "a"), tree(tmp_path / "b", fewer)
    assert diff_outputs.compare_trees(a, b) == ["missing in change: run/regular/table.csv"]
    assert diff_outputs.compare_trees(b, a) == ["missing in parent: run/regular/table.csv"]


def test_regular_heatmap_reads_the_checkpoint_its_side_trained(tmp_path):
    out = tmp_path / "out"
    commands = diff_outputs.commands(tmp_path / "tree", tmp_path / "configs", out)
    train = commands.index(next(c for c in commands if c[:2] == ["train", "--regular"]))
    heatmap = next(c for c in commands if str(out / "heatmap_regular") in c)
    assert heatmap[heatmap.index("--checkpoint") + 1] == str(out / "train" / "regular.json")
    assert commands.index(heatmap) > train


def test_run_is_compared_on_one_and_two_threads(tmp_path):
    out = tmp_path / "out"
    commands = diff_outputs.commands(tmp_path / "tree", tmp_path / "configs", out)
    assert len(commands) == 10
    runs = [c for c in commands if c[0] == "run"]
    assert [c[c.index("--threads") + 1] for c in runs] == ["1", "2"]
    assert len({c[c.index("--out") + 1] for c in runs}) == 2


def test_checkpoint_heatmap_is_compared_on_one_and_two_threads(tmp_path):
    out = tmp_path / "out"
    heatmaps = [c for c in diff_outputs.commands(tmp_path / "tree", tmp_path / "configs", out)
                if c[0] == "heatmap" and str(tmp_path / "tree" / diff_outputs.CHECKPOINT) in c]
    assert [c[c.index("--threads") + 1] for c in heatmaps] == ["2", "1"]
    assert all(c[c.index("--transfers") + 1] == "301" for c in heatmaps)
    assert len({c[c.index("--out") + 1] for c in heatmaps}) == 2


def test_model_commands_read_csvs_written_the_same_on_each_side(tmp_path):
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        diff_outputs.write_raw_csvs(tmp_path / side)
    names = ("tuning.csv", "bias.csv", "stuck.csv")
    assert all((tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
               for n in names)
    commands = diff_outputs.commands(tmp_path / "tree", tmp_path / "a", tmp_path / "out")
    assert [c[0] for c in commands[:2]] == ["gen-synthetic-model", "fit-model"]
    assert [a.split("=", 1)[1] for a in commands[1][1:4]] == [str(tmp_path / "a" / n)
                                                              for n in names]
