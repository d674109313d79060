"""Golden traces: four seconds-long `fedgraphrec run`s on the bundled file
must write exactly the committed `rounds.csv` (bar `wall_time`) and
`summary.csv`.

A change that moves any cell must declare why (summation order, dtype or
sampler) and show the old and new values. Regenerate the traces with

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

import pytest

from fedgraphrec import cli

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"
BASE = [
    "run", "--dataset", str(REPO / "data" / "synthetic-50.tsv"), "--eval-negatives", "49",
    "--rounds", "4", "--reps", "2", "--lr", "0.01", "--seed", "1",
]
TRACES = {
    "p50": ["--public-ratio", "0.5"],
    "p100-ldp": ["--public-ratio", "1.0", "--ldp-delta", "0.01"],
    "ablate-iei": ["--public-ratio", "0.5", "--ablate-iei"],
    "public-only": ["--public-ratio", "0.5", "--global-from-public-only"],
}


def run_trace(name: str, out: Path) -> dict[str, str]:
    """The trace files of one run, by path relative to the golden directory,
    with `wall_time` dropped from every `rounds.csv`."""
    assert cli.main([*BASE, *TRACES[name], "--out", str(out), "--label", name]) == 0
    run_dir = out / name
    files = {"summary.csv": (run_dir / "summary.csv").read_text()}
    for rounds in sorted(run_dir.glob("rep*/rounds.csv")):
        lines = rounds.read_text().splitlines(keepends=True)
        files[f"{rounds.parent.name}/rounds.csv"] = "".join(
            line.rsplit(",", 1)[0] + "\n" for line in lines
        )
    return files


@pytest.mark.parametrize("name", sorted(TRACES))
def test_run_matches_golden_trace(name, tmp_path):
    files = run_trace(name, tmp_path)
    golden = sorted(p.relative_to(GOLDEN / name).as_posix() for p in (GOLDEN / name).rglob("*.csv"))
    assert sorted(files) == golden
    for rel, text in files.items():
        assert text == (GOLDEN / name / rel).read_text(), f"{name}/{rel} moved"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for trace in sorted(TRACES):
            for rel, text in run_trace(trace, Path(tmp)).items():
                target = GOLDEN / trace / rel
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(text)
                print(f"wrote {target}", file=sys.stderr)
