import shutil
import subprocess
from pathlib import Path

import pytest

import radelliptic

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs git and a git checkout")
def test_no_tracked_file_is_ignored():
    # a generated file (compiled sources, build output) must not be committed
    out = subprocess.run(["git", "ls-files", "-ci", "--exclude-standard"],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


def test_readme_library_block_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1]
    exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})


def test_public_names_resolve():
    # removing or renaming a documented name must update __all__ too
    missing = [name for name in radelliptic.__all__
               if not hasattr(radelliptic, name)]
    assert missing == []
