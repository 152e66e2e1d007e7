"""Evidence gates (DESIGN.md, "Evidence"): the committed
EXPERIMENTS.md is what its generator writes from the committed
reports, and the docs name only benchmark and test files that exist.
"""

import glob
import importlib.util
import re
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


def test_experiments_md_is_what_the_generator_writes(
    tmp_path, monkeypatch
):
    spec = importlib.util.spec_from_file_location(
        "make_experiments_md",
        ROOT / "benchmarks" / "make_experiments_md.py",
    )
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    target = tmp_path / "EXPERIMENTS.md"
    monkeypatch.setattr(generator, "TARGET", str(target))
    generator.main()
    assert target.read_text() == (ROOT / "EXPERIMENTS.md").read_text()
    # Every section the generator knows has its committed report.
    for key in generator.ORDER:
        assert (ROOT / "benchmarks" / "reports" / f"{key}.txt").exists()


def test_docs_name_only_paths_that_exist():
    dangling = []
    for doc in DOCS:
        for match in NAMED_PATH.finditer((ROOT / doc).read_text()):
            pattern = re.sub(r"<\w+>", "*", match.group(0))
            if not glob.glob(str(ROOT / pattern)):
                dangling.append(f"{doc}: {match.group(0)}")
    assert not dangling, dangling
