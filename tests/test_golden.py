"""Golden traces: seconds-long `fedgraphrec run`s must write exactly the
committed `rounds.csv` (bar `wall_time`) and `summary.csv`, and the `ablate`
trace its `ablation.csv` and each variant's `summary.csv`. Eight run on the
bundled file, `p0` among them: nobody shares, so there is no graph and
round 1 serves the server's drawn private sum over n. `synth-2hop` and
`synth-ldp` run on a small `gen-synth` world that the trace writes itself,
`synth-ragged` on a `gen-synth` world cut so that users have different
training counts, and `synth-sparse` on a world so sparse that most sharing
users share no item with another sharing user.

A change that moves any cell must declare why (summation order, dtype or
sampler) and show the old and new values. Regenerate the traces with

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from fedgraphrec import cli
from fedgraphrec import federation as fed
from fedgraphrec import model as mdl

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"
BUNDLED = str(REPO / "data" / "synthetic-50.tsv")
BASE = ["--eval-negatives", "49", "--rounds", "4", "--reps", "2", "--lr", "0.01", "--seed", "1"]
TRACES = {
    "p0": ["--public-ratio", "0"],
    "p50": ["--public-ratio", "0.5"],
    "p100-ldp": ["--public-ratio", "1.0", "--ldp-delta", "0.01"],
    "ablate-iei": ["--public-ratio", "0.5", "--ablate-iei"],
    "ablate-ugc": ["--public-ratio", "0.5", "--ablate-ugc"],
    "ablate-upie": ["--public-ratio", "0.5", "--ablate-upie"],
    "public-only": ["--public-ratio", "0.5", "--global-from-public-only"],
    "synth-2hop": [
        "--public-ratio", "0.5", "--layers", "2", "--clip-norm", "0.5",
        "--batch-size", "16", "--local-epochs", "2",
    ],
    "synth-ldp": ["--public-ratio", "0.5", "--ldp-delta", "0.01"],
    "ablate": ["--public-ratio", "0.5"],
    "synth-ragged": ["--public-ratio", "0.5", "--batch-size", "16", "--local-epochs", "2"],
    "synth-sparse": ["--public-ratio", "0.5"],
}
# traces that run another verb than `run`
VERBS = {"ablate": "ablate"}
# traces on a generated world: the `gen-synth` flags that write it
SYNTH_WORLD = ["--users", "60", "--items", "150", "--per-user", "15", "--clusters", "4", "--seed", "3"]
RAGGED_WORLD = ["--users", "20", "--items", "120", "--per-user", "16", "--clusters", "4", "--seed", "5"]
SPARSE_WORLD = ["--users", "40", "--items", "400", "--per-user", "5", "--clusters", "8", "--seed", "2"]
WORLDS = {
    "synth-2hop": SYNTH_WORLD,
    "synth-ldp": SYNTH_WORLD,
    "synth-ragged": RAGGED_WORLD,
    "synth-sparse": SPARSE_WORLD,
}
# traces whose world keeps only the interactions a user's token `user` stamped
# at most 4 + (7 · user) mod 13, so training counts run from 2 to 14 and local
# steps of one length hold clients that are not consecutive
RAGGED = {"synth-ragged"}
# traces whose graph links only some of the sharing users
SPARSE = {"synth-sparse"}


def keep_ragged(path: Path) -> None:
    lines = path.read_text().splitlines(keepends=True)
    kept = [line for line in lines if int(line.split("\t")[3]) <= 4 + 7 * int(line.split("\t")[0]) % 13]
    path.write_text("".join(kept))


def run_trace(name: str, out: Path) -> dict[str, str]:
    """The trace files of one run, by path relative to the golden directory:
    the run's top-level CSVs, each variant's `summary.csv`, and every
    `rounds.csv` with `wall_time` dropped."""
    dataset = BUNDLED
    if name in WORLDS:
        dataset = str(out / f"{name}.tsv")
        assert cli.main(["gen-synth", *WORLDS[name], "--out", dataset]) == 0
        if name in RAGGED:
            keep_ragged(Path(dataset))
    verb = VERBS.get(name, "run")
    argv = [verb, *BASE, "--dataset", dataset, *TRACES[name], "--out", str(out), "--label", name]
    assert cli.main(argv) == 0
    run_dir = out / name
    files = {
        path.relative_to(run_dir).as_posix(): path.read_text()
        for pattern in ("*.csv", "*/summary.csv")
        for path in sorted(run_dir.glob(pattern))
    }
    for rounds in sorted(run_dir.glob("rep*/rounds.csv")):
        lines = rounds.read_text().splitlines(keepends=True)
        files[f"{rounds.parent.name}/rounds.csv"] = "".join(
            line.rsplit(",", 1)[0] + "\n" for line in lines
        )
    return files


@pytest.mark.parametrize("name", sorted(TRACES))
def test_run_matches_golden_trace(name, tmp_path, monkeypatch):
    chunks = []
    step = mdl._cohort_step

    def recording_step(store, rows, *args):
        chunks.append(rows.copy())
        return step(store, rows, *args)

    monkeypatch.setattr(mdl, "_cohort_step", recording_step)
    graphs = []
    build = fed.build_user_graph

    def recording_build(dataset, tiers):
        graph = build(dataset, tiers)
        graphs.append((graph, tiers.num_public))
        return graph

    monkeypatch.setattr(fed, "build_user_graph", recording_build)
    files = run_trace(name, tmp_path)
    golden = sorted(p.relative_to(GOLDEN / name).as_posix() for p in (GOLDEN / name).rglob("*.csv"))
    assert sorted(files) == golden
    for rel, text in files.items():
        assert text == (GOLDEN / name / rel).read_text(), f"{name}/{rel} moved"
    # Equal training counts train every step's chunks as runs of consecutive
    # clients; a ragged world also trains chunks that are not, and one-client
    # chunks.
    assert any((np.diff(rows) != 1).any() for rows in chunks) == (name in RAGGED)
    assert any(rows.size == 1 for rows in chunks) == (name in RAGGED)
    # Every sharing user shares an item with another sharing user, bar in the
    # sparse world, where the graph links a part of them in each repetition.
    assert any(graph.linked.size < num_public for graph, num_public in graphs) == (name in SPARSE)
    if name in SPARSE:
        assert all(graph.linked.size < num_public for graph, num_public in graphs)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for trace in sorted(TRACES):
            for rel, text in run_trace(trace, Path(tmp)).items():
                target = GOLDEN / trace / rel
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(text)
                print(f"wrote {target}", file=sys.stderr)
