"""Evidence gates (DESIGN.md, "Evidence"): the committed
EXPERIMENTS.md is what its generator writes from the committed
reports, DESIGN.md's per-experiment index names the report of every
row of ``benchmarks/claims.py`` and nothing else, and the docs name
only benchmark and test files that exist.
"""

import glob
import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DOCS = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
)

#: ``benchmarks/...py``, ``benchmarks/reports/...`` and ``tests/...py``
#: as the docs spell them: literal, globbed (``*``) or with a
#: ``<placeholder>`` segment.
NAMED_PATH = re.compile(
    r"(?<![\w/.-])(?:"
    r"benchmarks/reports/[\w.*<>-]+\.\w+"
    r"|(?:benchmarks|tests)/[\w./*<>-]+\.py"
    r")"
)

#: The "Report" column of DESIGN.md's per-experiment index.
INDEX_REPORT = re.compile(r"\| `benchmarks/reports/(\w+)\.txt` \|$", re.M)


def load(name, monkeypatch):
    """``benchmarks/<name>.py`` as a module (``benchmarks/`` is not a
    package); the ``sys.path`` entries it adds are undone after the
    test."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "benchmarks" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_experiments_md_is_what_the_generator_writes(
    tmp_path, monkeypatch
):
    generator = load("make_experiments_md", monkeypatch)
    target = tmp_path / "EXPERIMENTS.md"
    monkeypatch.setattr(generator, "TARGET", str(target))
    generator.main()
    assert target.read_text() == (ROOT / "EXPERIMENTS.md").read_text()
    # Every row of the table has its committed report.
    for claim in generator.CLAIMS:
        assert (ROOT / "benchmarks" / "reports" / f"{claim.id}.txt").exists()


def test_design_index_and_commentary_name_the_claims(monkeypatch):
    ids = {claim.id for claim in load("claims", monkeypatch).CLAIMS}
    design = (ROOT / "DESIGN.md").read_text()
    index = design[
        design.index("## Per-experiment index"):design.index("## Evidence")
    ]
    # One report per row of the index (Appx D.1 shares fig5b's).
    assert set(INDEX_REPORT.findall(index)) == ids
    generator = load("make_experiments_md", monkeypatch)
    assert set(generator.COMMENTARY) <= ids


def test_docs_name_only_paths_that_exist():
    dangling = []
    for doc in DOCS:
        for match in NAMED_PATH.finditer((ROOT / doc).read_text()):
            pattern = re.sub(r"<\w+>", "*", match.group(0))
            if not glob.glob(str(ROOT / pattern)):
                dangling.append(f"{doc}: {match.group(0)}")
    assert not dangling, dangling
