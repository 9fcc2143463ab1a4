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
import subprocess
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


def _dynamic_openblas() -> bool:
    """Whether numpy's BLAS is an OpenBLAS that picks its kernels by CPU,
    which OPENBLAS_CORETYPE can then force."""
    import numpy as np

    return "DYNAMIC_ARCH" in str(np.show_config(mode="dicts")["Build Dependencies"]["blas"])


@pytest.mark.skipif(not _dynamic_openblas(), reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS")
def test_knn_and_linreg_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    # frozen-bytebpe's augment (knn and linreg) and eval steps, each run in a
    # child under three OpenBLAS kernels (SSE3, AVX2 and AVX-512), write the
    # same bytes. local_linreg is left out: its plan still differs between
    # kernels.
    gen, run = _load("gen"), _load("run")
    facts = gen.generate("frozen-bytebpe", tmp_path / "in", 5, "smoke")
    steps = [s for s in run.STEPS["frozen-bytebpe"](facts) if s.metric in ("augment_s", "eval_s")]
    assert [s.argv[0] for s in steps] == ["augment", "eval"]
    script = "import sys\nfrom tokenlens.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    outputs = {}
    for core in ("Prescott", "Haswell", "SkylakeX"):
        pass_dir = tmp_path / core / "pass"  # run.py's IN = "../in" layout
        pass_dir.mkdir(parents=True)
        (tmp_path / core / "in").symlink_to(tmp_path / "in")
        env = {**os.environ, "OPENBLAS_CORETYPE": core, "PYTHONPATH": str(ROOT / "src")}
        for step in steps:
            subprocess.run([sys.executable, "-c", script, *step.argv], cwd=pass_dir, env=env,
                           capture_output=True, check=True)
        outputs[core] = {out: (pass_dir / out).read_bytes() for step in steps for out in step.outputs}
    assert outputs["Prescott"] == outputs["Haswell"] == outputs["SkylakeX"]


if __name__ == "__main__":
    import contextlib
    import tempfile

    out = {}
    for wl in ("frozen-bytebpe", "train-fresh"):
        # The commands' own messages go to stderr, so stdout is the JSON alone.
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
            out[wl] = smoke_digests(wl, Path(tmp))
    print(json.dumps(out, indent=2, sort_keys=True))
