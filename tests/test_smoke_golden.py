"""Every benchmark command, at smoke size, writes the bytes recorded in
smoke_golden.json.

Each workload's inputs are generated by perfbench/gen.py into in/, and each
step of perfbench/run.py's STEPS runs in process through the CLI from a
pass/ directory next to it (run.py's IN = "../in" layout). A changed output
byte then fails here, not only in a full benchmark run.

To record the digests again after a deliberate output change:

    PYTHONPATH=src python tests/test_smoke_golden.py > tests/smoke_golden.json
"""

import hashlib
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from tokenlens.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "smoke_golden.json"


def _load(name: str):
    """A perfbench script, which is no package, loaded without running its
    main; it is registered first, as dataclasses need."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    mod = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(mod)
    return mod


def smoke_digests(workload: str, root: Path) -> dict[str, str]:
    """sha256 of every output of the workload's steps, keyed by file name."""
    gen, run = _load("gen"), _load("run")
    facts = gen.generate(workload, root / "in", 1, "smoke")
    pass_dir = root / "pass"
    pass_dir.mkdir()
    digests = {}
    cwd = os.getcwd()
    os.chdir(pass_dir)
    try:
        for step in run.STEPS[workload](facts):
            assert main(step.argv) == 0, step.argv
            for out in step.outputs:
                digests[out] = hashlib.sha256((pass_dir / out).read_bytes()).hexdigest()
    finally:
        os.chdir(cwd)
    return digests


@pytest.mark.parametrize("workload", ["frozen-bytebpe", "train-fresh"])
def test_smoke_outputs_match_golden(workload, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[workload]
    assert smoke_digests(workload, tmp_path) == golden


if __name__ == "__main__":
    import contextlib
    import tempfile

    out = {}
    for wl in ("frozen-bytebpe", "train-fresh"):
        # The commands' own messages go to stderr, so stdout is the JSON alone.
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
            out[wl] = smoke_digests(wl, Path(tmp))
    print(json.dumps(out, indent=2, sort_keys=True))
