"""tokenlens CLI benchmark.

    python3 perfbench/run.py --workload frozen-bytebpe|train-fresh \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the benchmark generates the workload's
inputs from the seed, then runs the real ``tokenlens`` CLI from the
checkout's ``src/`` on them, one subcommand at a time, each in its own
child process (a closed loop with one client). Every output is checked;
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

--trace 0 repeats the workload's timed subcommands for --seconds (at least
twice in full; the last pass runs only the ones that still fit) and reports
the end-to-end metrics as medians. --trace 1 runs every subcommand once
untraced and twice through ``traced_cli.py`` and reports the per-layer
metrics (see spans.py). Inputs are generated by
``gen.py`` into ``.bench_build/perfbench/<workload>/in``.

Why the two workloads exist is recorded in BENCHMARK.json; what each metric
should move, the golden digests and the baseline are in perfbench/meta.json
and perfbench/golden.json.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

DEFAULT_SEED = 1
WORKLOADS = ("frozen-bytebpe", "train-fresh")
SETUP_PROBES_PER_PASS = 2
FULL_PASSES = 2
# A step cheaper than its min_pass_s (default MIN_STEP_S) runs again within
# its pass, so that its median rests on more than start-up jitter.
MIN_STEP_S = 1.0
MAX_STEP_RUNS = 4
# frozen-bytebpe's premium (about 2.6 s) runs twice a pass: its passes are
# long (augment and eval), and premium_s is the workload's per-command gate.
FROZEN_PREMIUM_PASS_S = 5.0
CHILD_TIMEOUT_S = 60
IN = "../in"  # inputs, as the pass directory sees them


@dataclass
class Step:
    metric: str  # this child's wall time, as named in reports
    argv: list[str]  # tokenlens CLI arguments
    outputs: list[str]  # files it writes, relative to the pass directory
    timed: bool = False  # runs in the measured passes (--trace 0)
    min_pass_s: float = MIN_STEP_S  # runs again within a pass while cheaper


def _train_steps(corpus: str, ulm_corpus: str, facts: dict, timed: bool) -> list[Step]:
    steps = []
    for algo, prefix in (("bpe", "bpe"), ("wordpiece", "wp")):
        steps.append(Step(
            f"train_{algo}_s",
            ["train", "--algorithm", algo, "--corpus", corpus,
             "--target-size", str(facts["bpe_target"]), "--out-prefix", prefix],
            [f"{prefix}.vocab.json", f"{prefix}.merges.json", f"{prefix}.manifest.json"], timed,
        ))
    steps.append(Step(
        "train_ulm_s",
        ["train", "--algorithm", "ulm", "--corpus", ulm_corpus, "--seed-size", str(facts["ulm_seed"]),
         "--target-size", str(facts["ulm_target"]), "--out-prefix", "ulm"],
        ["ulm.vocab.json", "ulm.probs.json", "ulm.manifest.json"], timed,
    ))
    return steps


def _pairs() -> list[str]:
    return ["--pair", f"hin:Deva:{IN}/eng.txt:{IN}/hin.txt",
            "--pair", f"ben:Beng:{IN}/eng.txt:{IN}/ben.txt",
            "--pair", f"ctl:Latn:{IN}/ctl.txt:{IN}/ctl.txt"]


def _plan_files(path: str) -> list[str]:
    return [path, path + ".mat", path + ".mat.json"]


def frozen_steps(facts: dict) -> list[Step]:
    """The read path over a frozen 50k-merge byte-level tokenizer (timed),
    with a small write path that only the traced run uses, so every
    per-layer metric exists on both workloads. compare, augment and eval
    run their pools at 2 threads."""
    tok = f"gpt=bpe-bytes:{IN}/byte50k.vocab.json:{IN}/byte50k.merges.txt"
    enc = "toy:{}:{}:{}".format(*facts["encoder"])
    depth = str(facts["encoder"][1])
    threads = ["--threads", "2"]
    return _train_steps(f"{IN}/corpus.txt", f"{IN}/ulm.txt", facts, timed=False) + [
        Step("compare_s",
             ["compare", "--vocab", f"gpt={IN}/byte50k.vocab.json", "--vocab", f"spm={IN}/spm50k.vocab.txt",
              "--vocab", f"wp={IN}/wp50k.vocab.txt", "--vocab", f"multi={IN}/multi250k.vocab.txt",
              "--breakdown", "composition.tsv", *threads, "--out", "overlap.csv"],
             ["overlap.csv", "composition.tsv"], timed=True),
        # premium runs at 1 thread: at 2, its pure-Python encodes hand the
        # GIL between the two CPUs, and its wall time split into two
        # clusters 35% apart from run to run with the host's load.
        Step("premium_s",
             ["premium", "--tokenizer", tok, *_pairs(), "--json", "premium.json", "--verbose",
              "--out", "premium.csv"],
             ["premium.csv", "premium.json"], timed=True, min_pass_s=FROZEN_PREMIUM_PASS_S),
        Step("augment_s",
             ["augment", "--tokenizer", tok, "--embeddings", f"{IN}/v0.mat", "--encoder", enc,
              "--grid", f"knn:8@{depth},linreg@{depth}", "--corpus", f"{IN}/indic.txt", *threads,
              "--out", "plan.json"],
             _plan_files(f"plan.knn8-l{depth}.json") + _plan_files(f"plan.linreg-l{depth}.json"), timed=True),
        Step("eval_s",
             ["eval", "--plan", f"plan.knn8-l{depth}.json", "--plan", f"plan.linreg-l{depth}.json",
              "--tokenizer", tok, "--embeddings", f"{IN}/v0.mat", "--encoder", enc, "--last-layer", depth,
              "--corpus", f"hin={IN}/eval.hin.txt", "--corpus", f"ben={IN}/eval.ben.txt",
              "--report-new-fraction", *threads, "--out", "sims.csv"],
             ["sims.csv"], timed=True),
    ]


def fresh_steps(facts: dict) -> list[Step]:
    """The write path: train three tokenizers, then use them in premium over
    many short sentences with a short rule list and with Viterbi (timed);
    compare, augment and eval stay small and only the traced run uses them."""
    bpe = "bpe=bpe:bpe.vocab.json:bpe.merges.json"
    enc = "toy:{}:{}:{}".format(*facts["encoder"])
    depth = str(facts["encoder"][1])
    return _train_steps(f"{IN}/corpus.txt", f"{IN}/ulm.txt", facts, timed=True) + [
        Step("compare_s",
             ["compare", "--vocab", "bpe=bpe.vocab.json", "--vocab", "wp=wp.vocab.json",
              "--vocab", "ulm=ulm.vocab.json", "--breakdown", "composition.tsv", "--out", "overlap.csv"],
             ["overlap.csv", "composition.tsv"]),
        Step("premium_s",
             ["premium", "--tokenizer", bpe, "--tokenizer", "wp=bpe:wp.vocab.json:wp.merges.json",
              "--tokenizer", "ulm=ulm:ulm.probs.json", *_pairs(), "--json", "premium.json", "--verbose",
              "--out", "premium.csv"],
             ["premium.csv", "premium.json"], timed=True),
        Step("augment_s",
             ["augment", "--tokenizer", bpe, "--embeddings", f"{IN}/v0.mat", "--encoder", enc,
              "--strategy", f"knn:4@{depth}", "--corpus", f"{IN}/indic.txt", "--out", "plan.json"],
             _plan_files("plan.json")),
        Step("eval_s",
             ["eval", "--plan", "plan.json", "--tokenizer", bpe, "--embeddings", f"{IN}/v0.mat",
              "--encoder", enc, "--last-layer", depth, "--corpus", f"hin={IN}/eval.hin.txt",
              "--corpus", f"ben={IN}/eval.ben.txt", "--report-new-fraction", "--out", "sims.csv"],
             ["sims.csv"]),
    ]


def setup_loads(workload: str, facts: dict) -> dict:
    """Every tokenizer, vocabulary, matrix and text the workload reads,
    relative to a pass directory that holds a finished pipeline."""
    common = {
        "matrix": [f"{IN}/v0.mat"],
        "pair": [[f"{IN}/eng.txt", f"{IN}/hin.txt"], [f"{IN}/eng.txt", f"{IN}/ben.txt"],
                 [f"{IN}/ctl.txt", f"{IN}/ctl.txt"]],
        "toy": [list(facts["encoder"])],
        "corpus": [f"{IN}/{n}" for n in ("corpus.txt", "ulm.txt", "indic.txt", "eval.hin.txt", "eval.ben.txt")],
    }
    if workload == "frozen-bytebpe":
        return {
            **common,
            "bpe": [[f"{IN}/byte50k.vocab.json", f"{IN}/byte50k.merges.txt", True]],
            "vocab": [f"{IN}/spm50k.vocab.txt", f"{IN}/wp50k.vocab.txt", f"{IN}/multi250k.vocab.txt"],
        }
    return {
        **common,
        "bpe": [["bpe.vocab.json", "bpe.merges.json", False], ["wp.vocab.json", "wp.merges.json", False]],
        "vocab": ["ulm.vocab.json"],
        "ulm": ["ulm.probs.json"],
    }


STEPS = {"frozen-bytebpe": frozen_steps, "train-fresh": fresh_steps}

# ---------------------------------------------------------------------------
# children


@dataclass
class ChildResult:
    rc: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def run_child(argv: list[str], cwd: Path, env: dict, log: Path) -> ChildResult:
    """Start one child, wait for it with wait4 (for its rusage) and kill it
    if it outlives CHILD_TIMEOUT_S."""
    with open(log, "wb") as f:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=f, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# correctness


def premium_problems(rep: Path) -> list[str]:
    """Every control cell reads exactly 1.0 and no cell is NA."""
    problems = []
    doc = json.loads((rep / "premium.json").read_text(encoding="utf-8"))
    for row in doc["rows"]:
        for tok, cell in row["cells"].items():
            if cell is None:
                problems.append(f"premium cell {row['language']}/{tok} is NA")
            elif row["language"] == "ctl" and (
                cell["mean_ratio"] != 1.0 or cell["totals_ratio"] != 1.0
                or any(r != 1.0 for r in cell.get("ratios", []))
            ):
                problems.append(f"control cell {tok} is not exactly 1.0")
    if any(cell == "NA" for line in (rep / "premium.csv").read_text(encoding="utf-8").splitlines()
           for cell in line.split(",")):
        problems.append("premium.csv has an NA cell")
    return problems


class Gate:
    """Counts attempted and failed subcommands; a subcommand fails when it
    exits non-zero or when its outputs fail a check. The reference digest of
    each output is the golden one (default seed, full size) or else the
    first one seen in this run."""

    def __init__(self, golden: dict | None):
        self.golden = golden
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, msg: str) -> None:
        self.failed += 1
        self.problems.append(msg)

    def check_step(self, step: Step, rep: Path, rc: int) -> None:
        self.attempted += 1
        problems = [] if rc == 0 else [f"exit code {rc}"]
        for name in step.outputs:
            path = rep / name
            if not path.is_file():
                problems.append(f"missing output {name}")
                continue
            digest = sha256(path)
            ref = self.golden.get(name) if self.golden is not None else self.first.setdefault(name, digest)
            if digest != ref:
                problems.append(f"{name} digest {digest[:12]} != expected {str(ref)[:12]}")
        if step.metric == "premium_s" and not problems:
            problems += premium_problems(rep)
        if problems:
            self.fail(f"{rep.name}/{step.metric}: " + "; ".join(problems))

    def check_setup(self, rc: int) -> None:
        self.attempted += 1
        if rc != 0:
            self.fail(f"setup child exit code {rc}")


# ---------------------------------------------------------------------------
# runs


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, size: str):
        self.root = root
        self.workload = workload
        self.work = root / ".bench_build" / "perfbench" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "logs").mkdir(parents=True)
        self.facts = json.loads(subprocess.run(
            [sys.executable, str(HERE / "gen.py"), workload, str(self.work / "in"), str(seed), size],
            check=True, capture_output=True, text=True,
        ).stdout)
        # Byte-compile up front, as an installed package is, so that no
        # child pays for compiling the sources.
        compileall.compile_dir(str(root / "src" / "tokenlens"), quiet=1)
        self.steps = STEPS[workload](self.facts)
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "TOKENLENS_THREADS")}
        env["PYTHONPATH"] = str(root / "src")
        self.env = env
        golden = None
        if seed == DEFAULT_SEED and size == "full" and (HERE / "golden.json").is_file():
            golden = json.loads((HERE / "golden.json").read_text())["workloads"].get(workload)
        self.gate = Gate(golden)
        self.rss_mb: dict[str, list[float]] = {}  # ru_maxrss of each run, by step

    def pipeline(self, rep_name: str, traced: bool, steps: list[Step] | None = None, repeat: bool = False,
                 deadline: float | None = None, history: dict[str, list[float]] | None = None,
                 ) -> tuple[dict[str, list[float]], list[dict]]:
        """Run the steps (default: all) in order in directory rep_name (made
        if missing). With repeat, while some step's runs add up to less than
        its min_pass_s, run each such step once more (same inputs, same
        outputs), in pipeline order, up to MAX_STEP_RUNS runs a step: extra
        runs of one step are spread over several rounds rather than made back
        to back, so one slow moment of the host does not set all of them.
        With a deadline, a step whose median wall time so far (history plus
        this pass) would end past it is skipped, so a pass may be partial. A
        step's outputs are deleted before it runs, so a stale copy cannot pass
        the gate. Returns each step's wall times in this pass by metric and,
        when traced, the span documents (each with its child's result)."""
        rep = self.work / rep_name
        rep.mkdir(exist_ok=True)
        steps = self.steps if steps is None else steps
        walls: dict[str, list[float]] = {step.metric: [] for step in steps}
        traces = []
        todo = steps
        while todo:
            ran = []
            for step in todo:
                samples = walls[step.metric]
                past = (history or {}).get(step.metric, []) + samples
                if deadline is not None and past and time.perf_counter() + statistics.median(past) > deadline:
                    continue
                ran.append(step)
                stem = self.work / "logs" / f"{rep_name}.{step.metric}.{len(past)}"
                span_file = stem.with_suffix(".spans.json")
                if traced:
                    argv = [sys.executable, str(HERE / "traced_cli.py"), str(span_file), "--", *step.argv]
                else:
                    argv = [sys.executable, "-m", "tokenlens.cli", *step.argv]
                for name in step.outputs:
                    (rep / name).unlink(missing_ok=True)
                res = run_child(argv, rep, self.env, stem.with_suffix(".log"))
                self.rss_mb.setdefault(step.metric, []).append(res.maxrss_mb)
                samples.append(res.wall_s)
                self.gate.check_step(step, rep, res.rc)
                if traced and span_file.is_file():
                    doc = json.loads(span_file.read_text())
                    doc["child"] = res
                    traces.append(doc)
            todo = [step for step in ran if repeat and sum(walls[step.metric]) < step.min_pass_s
                    and len(walls[step.metric]) < MAX_STEP_RUNS]
        return walls, traces

    def setup_probe(self, rep_name: str) -> float:
        loads = self.work / "setup_loads.json"
        loads.write_text(json.dumps(setup_loads(self.workload, self.facts)))
        res = run_child([sys.executable, str(HERE / "setup_child.py"), str(loads)],
                        self.work / rep_name, self.env, self.work / "logs" / "setup.log")
        self.rss_mb.setdefault("setup", []).append(res.maxrss_mb)
        self.gate.check_setup(res.rc)
        return res.wall_s

    def peak_rss_mb(self) -> float:
        """The largest child's peak memory: the highest over the steps of the
        lower median of each step's ru_maxrss. The lower median, because
        augment's two pool threads now and then hold their large arrays at
        the same moment, which raises one run's peak by about 50 MB."""
        return max(statistics.median_low(v) for v in self.rss_mb.values())


def measure(bench: Bench, seconds: float) -> dict[str, float]:
    """End-to-end metrics: medians over passes of the workload's timed steps
    that fill the run. The first FULL_PASSES passes run every timed step;
    later ones skip a step that would end past the deadline, so the run ends
    in a partial pass rather than leaving its tail unmeasured. Every pass
    runs in one directory, so a step always finds the outputs of the steps
    before it (the gate checks each output after every run). pipeline_s is
    the sum of the timed steps' medians: the wall time of one pass of the
    workload's command sequence."""
    deadline = time.perf_counter() + seconds
    timed = [step for step in bench.steps if step.timed]
    step_walls: dict[str, list[float]] = {}
    setups: list[float] = []
    passes = 0
    while True:
        late = deadline if passes >= FULL_PASSES else None
        walls, _ = bench.pipeline("run", traced=False, steps=timed, repeat=True, deadline=late, history=step_walls)
        if not any(walls.values()):
            break
        passes += 1
        for metric, samples in walls.items():
            step_walls.setdefault(metric, []).extend(samples)
        # Setup probes ride between passes, so both sample the whole run.
        for _ in range(SETUP_PROBES_PER_PASS):
            if late is None or time.perf_counter() + statistics.median(setups) <= deadline:
                setups.append(bench.setup_probe("run"))
    medians = {metric: statistics.median(samples) for metric, samples in step_walls.items()}
    print(f"{passes} passes, {len(setups)} setup probes, "
          + ", ".join(f"{len(v)} {k} (median {medians[k]:.4f})" for k, v in step_walls.items()), file=sys.stderr)
    return {
        "pipeline_s": sum(medians.values()),
        "setup_s": statistics.median(setups),
        "premium_s": medians["premium_s"],
        "peak_rss_mb": bench.peak_rss_mb(),
    }


def trace(bench: Bench) -> dict[str, float]:
    """Per-layer metrics from two traced pipelines of every step, checked
    against one untraced pipeline (identical outputs) and against each other
    (exact counts). cli.<command>_wall_s is each command's wall time in the
    untraced pipeline."""
    plain, _ = bench.pipeline("u0", traced=False)
    plain_s = sum(w[0] for w in plain.values())
    cmd_walls = {f"cli.{metric[:-2]}_wall_s": w[0] for metric, w in plain.items()}
    runs = []
    for name in ("t0", "t1"):
        walls, docs = bench.pipeline(name, traced=True)
        st = spans.SpanStats()
        startup = 0.0
        cpu = 0.0
        for doc in docs:
            st.add(doc)
            main = [s for s in doc["spans"] if s[2] == "cli.main"]
            startup += doc["child"].wall_s - (main[0][4] - main[0][3] if main else 0.0)
            cpu += doc["child"].cpu_s
        values, missing = spans.layer_metrics(st)
        values["cli.startup_s"] = startup
        values["cli.child_cpu_s"] = cpu
        values["bench.trace_overhead_ratio"] = sum(w[0] for w in walls.values()) / plain_s
        runs.append(values)
    for key in spans.EXACT_COUNTS:
        if key in runs[0] and runs[0].get(key) != runs[1].get(key):
            bench.gate.fail(f"count {key} differs between traced runs: {runs[0][key]} vs {runs[1].get(key)}")
    for metric, reason in sorted(missing.items()):
        print(f"missing {metric}: {reason}", file=sys.stderr)
    return cmd_walls | {k: statistics.median(r[k] for r in runs) for k in runs[0] if all(k in r for r in runs)}


def units() -> dict[str, str]:
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def record_golden(workload: str, digests: dict[str, str]) -> None:
    path = HERE / "golden.json"
    doc = json.loads(path.read_text()) if path.is_file() else {"seed": DEFAULT_SEED, "workloads": {}}
    doc["workloads"][workload] = dict(sorted(digests.items()))
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs for the benchmark's own tests")
    ap.add_argument("--write-golden", action="store_true",
                    help="record this run's output digests as the golden ones (default seed, full size)")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "tokenlens" / "cli.py").is_file():
        print(f"error: {root} holds no tokenlens checkout (src/tokenlens/cli.py)", file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed, args.size)
    if args.write_golden:
        bench.gate.golden = None
    metrics = trace(bench) if args.trace else measure(bench, args.seconds)
    if args.write_golden:
        record_golden(args.workload, bench.gate.first)

    for msg in bench.gate.problems:
        print(f"FAILED {msg}", file=sys.stderr)
    unit = units()
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit.get(name, '')}")
    result = {
        "correct": bench.gate.failed == 0,
        "attempted": bench.gate.attempted,
        "failed": bench.gate.failed,
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in metrics.items() if name in unit},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
