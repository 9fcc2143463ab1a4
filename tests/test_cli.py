"""End-to-end command-line runs, in process via main(argv)."""

import ast
import base64
import csv
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tokenlens
from tokenlens.cli import _KINDS, _parse_spec, _split, main
from tokenlens.embedding import AugmentationPlan, DerivationStrategy, load_plan, read_matrix, save_plan, write_matrix
from tokenlens.errors import ToolkitError
from tokenlens.training import bpe_train
from tokenlens.vocab import MergeRuleList, Vocabulary, save_merges, save_vocab


def load_perfbench_spans():
    """The benchmark's tracing module, perfbench/spans.py, which is no package."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "_perfbench_spans", os.path.join(root, "perfbench", "spans.py")
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def write_text(path, content):
    with open(path, "w", encoding="utf-8") as f:
        f.write(content)
    return str(path)


def write_bytes(path, content):
    with open(path, "wb") as f:
        f.write(content)
    return str(path)


@pytest.fixture()
def worked_files(tmp_path):
    """Worked-example BPE artifacts on disk."""
    vocab, rules = bpe_train(["she_shakes_shoes"], min_pair_freq=2)
    vpath = str(tmp_path / "work.vocab.json")
    mpath = str(tmp_path / "work.merges.json")
    save_vocab(vocab, vpath)
    save_merges(rules, vocab, mpath)
    return vpath, mpath


@pytest.fixture()
def byte_level_files(tmp_path):
    """Byte-input tokenizer whose two-byte chars split in two, plus embeddings."""
    vocab = Vocabulary(
        [b"a", b"b", "Ã".encode("utf-8"), "©".encode("utf-8"), "¨".encode("utf-8")]
    )
    vpath = str(tmp_path / "bytes.vocab.json")
    mpath = str(tmp_path / "bytes.merges.json")
    save_vocab(vocab, vpath)
    save_merges(MergeRuleList(), vocab, mpath)
    v0 = np.random.default_rng(12).normal(size=(len(vocab), 3))
    epath = str(tmp_path / "v0.mat")
    write_matrix(epath, v0)
    cpath = write_text(tmp_path / "aug.txt", "aé\nbè\n")
    return {
        "tok": f"bytes=bpe-bytes:{vpath}:{mpath}",
        "embeddings": epath,
        "corpus": cpath,
    }


class TestTrainCommand:
    def test_bpe_worked_example(self, tmp_path, capsys):
        corpus = write_text(tmp_path / "c.txt", "she_shakes_shoes\n")
        prefix = str(tmp_path / "bpe")
        rc = main(
            ["train", "--algorithm", "bpe", "--corpus", corpus,
             "--min-pair-freq", "2", "--out-prefix", prefix]
        )
        assert rc == 0
        with open(prefix + ".merges.json", encoding="utf-8") as f:
            assert json.load(f) == [["s", "h"], ["_", "sh"], ["e", "s"]]
        with open(prefix + ".vocab.json", encoding="utf-8") as f:
            vocab = json.load(f)
        assert vocab["sh"] == 7  # first merge lands after the 7 characters
        with open(prefix + ".manifest.json", encoding="utf-8") as f:
            manifest = json.load(f)
        assert manifest["command"] == "train"
        assert manifest["flags"]["min_pair_freq"] == 2
        assert corpus in manifest["input_digests"]
        assert len(manifest["digest"]) == 64
        assert "timestamp" not in manifest
        assert manifest["digest"][:12] in capsys.readouterr().out

    def test_wordpiece(self, tmp_path):
        corpus = write_text(tmp_path / "c.txt", "aa\n")
        prefix = str(tmp_path / "wp")
        rc = main(
            ["train", "--algorithm", "wordpiece", "--corpus", corpus,
             "--target-size", "3", "--out-prefix", prefix]
        )
        assert rc == 0
        with open(prefix + ".merges.json", encoding="utf-8") as f:
            assert json.load(f) == [["a", "a"]]

    def test_ulm(self, tmp_path):
        corpus = write_text(tmp_path / "c.txt", "abab\nab\n")
        prefix = str(tmp_path / "ulm")
        rc = main(
            ["train", "--algorithm", "ulm", "--corpus", corpus,
             "--target-size", "3", "--out-prefix", prefix]
        )
        assert rc == 0
        with open(prefix + ".vocab.json", encoding="utf-8") as f:
            tokens = list(json.load(f))
        assert len(tokens) == 3
        assert {"a", "b"} <= set(tokens)
        with open(prefix + ".probs.json", encoding="utf-8") as f:
            probs = json.load(f)
        assert set(probs) == set(tokens)
        finite = [p for p in probs.values() if p != float("-inf")]
        assert sum(np.exp(finite)) == pytest.approx(1.0)

    def test_rerun_is_byte_identical(self, tmp_path):
        corpus = write_text(tmp_path / "c.txt", "she_shakes_shoes\n")
        outs = []
        for tag in ("one", "two"):
            prefix = str(tmp_path / tag)
            assert main(
                ["train", "--algorithm", "bpe", "--corpus", corpus,
                 "--min-pair-freq", "2", "--out-prefix", prefix]
            ) == 0
            with open(prefix + ".manifest.json", "rb") as f:
                outs.append(f.read())
        assert outs[0] == outs[1]

    def test_both_stop_rules_is_usage_error(self, tmp_path):
        corpus = write_text(tmp_path / "c.txt", "ab\n")
        with pytest.raises(SystemExit) as exc:
            main(["train", "--algorithm", "bpe", "--corpus", corpus,
                  "--target-size", "3", "--min-pair-freq", "2",
                  "--out-prefix", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_neither_stop_rule_is_usage_error(self, tmp_path):
        corpus = write_text(tmp_path / "c.txt", "ab\n")
        with pytest.raises(SystemExit) as exc:
            main(["train", "--algorithm", "bpe", "--corpus", corpus,
                  "--out-prefix", str(tmp_path / "x")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("algorithm", ["wordpiece", "ulm"])
    def test_wordpiece_and_ulm_need_target_size(self, tmp_path, capsys, algorithm):
        corpus = write_text(tmp_path / "c.txt", "abab\n")
        rc = main(["train", "--algorithm", algorithm, "--corpus", corpus,
                   "--min-pair-freq", "2", "--out-prefix", str(tmp_path / "x")])
        assert rc == 1
        assert f"{algorithm} requires --target-size" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["bpe", "wordpiece"])
    @pytest.mark.parametrize("option", [["--seed-size", "3"], ["--seed-max-token-len", "8"]])
    def test_merge_trainers_reject_ulm_seed_options(self, tmp_path, capsys, algorithm, option):
        # The corpus does not exist: the option is rejected before it is read.
        rc = main(["train", "--algorithm", algorithm, "--corpus", str(tmp_path / "nope.txt"),
                   "--target-size", "3", *option, "--out-prefix", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"--seed-max-token-len and --seed-size are for ulm, not {algorithm}" in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("algorithm", ["bpe", "wordpiece"])
    def test_merge_trainers_record_the_seed_defaults(self, tmp_path, algorithm):
        corpus = write_text(tmp_path / "c.txt", "abab\n")
        prefix = str(tmp_path / algorithm)
        assert main(["train", "--algorithm", algorithm, "--corpus", corpus,
                     "--target-size", "3", "--out-prefix", prefix]) == 0
        with open(prefix + ".manifest.json", encoding="utf-8") as f:
            flags = json.load(f)["flags"]
        assert (flags["seed_max_token_len"], flags["seed_size"]) == (8, None)

    def test_ulm_records_its_seed_options(self, tmp_path):
        corpus = write_text(tmp_path / "c.txt", "abab\nab\n")
        digests = []
        for tag, option in (("default", []), ("given", ["--seed-max-token-len", "8", "--seed-size", "4"])):
            prefix = str(tmp_path / tag)
            assert main(["train", "--algorithm", "ulm", "--corpus", corpus,
                         "--target-size", "3", *option, "--out-prefix", prefix]) == 0
            with open(prefix + ".manifest.json", encoding="utf-8") as f:
                manifest = json.load(f)
            digests.append(manifest["digest"])
        assert manifest["flags"]["seed_max_token_len"] == 8
        assert manifest["flags"]["seed_size"] == 4
        assert digests[0] != digests[1]

    def test_unknown_algorithm_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--algorithm", "sentencepiece", "--corpus", "c",
                  "--target-size", "3", "--out-prefix", "x"])
        assert exc.value.code == 2

    def test_runtime_error_exits_one(self, tmp_path, capsys):
        corpus = write_text(tmp_path / "c.txt", "abc\n")
        rc = main(["train", "--algorithm", "bpe", "--corpus", corpus,
                   "--target-size", "2", "--out-prefix", str(tmp_path / "x")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_corpus_exits_one(self, tmp_path):
        rc = main(["train", "--algorithm", "bpe", "--corpus",
                   str(tmp_path / "nope.txt"), "--min-pair-freq", "2",
                   "--out-prefix", str(tmp_path / "x")])
        assert rc == 1


class TestCompareCommand:
    def make_vocab(self, tmp_path, name, tokens):
        path = str(tmp_path / f"{name}.json")
        save_vocab(Vocabulary(tokens), path)
        return path

    def test_normalized_overlap(self, tmp_path):
        a = self.make_vocab(tmp_path, "a", [b"ing", b"her"])
        b = self.make_vocab(tmp_path, "b", [b"##ing", "Ġher".encode("utf-8")])
        out = str(tmp_path / "m.csv")
        rc = main(["compare", "--vocab", f"a={a}", "--vocab", f"b={b}", "--out", out])
        assert rc == 0
        with open(out, encoding="utf-8") as f:
            lines = f.read().splitlines()
        assert lines[0].startswith("# manifest: ")
        rows = list(csv.reader(lines[1:]))
        assert rows[0] == ["", "a", "b"]
        # "##ing" -> "ing" matches; "Ġher" -> " her" does not match "her"
        assert float(rows[1][2]) == pytest.approx(1 / 3)

    def test_builds_no_id_index(self, tmp_path, monkeypatch):
        # compare only iterates its vocabularies: no token -> id dict is built.
        def no_index(self):
            raise AssertionError("a token -> id dict was built")

        monkeypatch.setattr(Vocabulary, "_index", no_index)
        a = self.make_vocab(tmp_path, "a", [b"ing", b"her", b"\xff"])
        b = write_bytes(tmp_path / "b.txt", b"##ing\r\n\xc4\xa0her\n")
        rc = main(["compare", "--vocab", f"a={a}", "--vocab", f"b={b}",
                   "--breakdown", str(tmp_path / "c.tsv"), "--out", str(tmp_path / "m.csv")])
        assert rc == 0

    def test_each_vocabulary_freed_once_normalized(self, tmp_path, monkeypatch):
        # Only the normalized sets are kept: each Vocabulary is dead before
        # its breakdown runs and before the next file is loaded.
        from tokenlens import analysis, vocab

        paths = [self.make_vocab(tmp_path, n, [n.encode(), b"##" + n.encode() * 2]) for n in "abc"]
        loaded, events = [], []
        load, breakdown = vocab.load_vocab, analysis.vocab_breakdown

        def recording_load(path):
            events.append(("load", [r() is None for r in loaded]))
            v = load(path)
            loaded.append(weakref.ref(v))
            return v

        def recording_breakdown(tokens, label=""):
            events.append(("breakdown", [r() is None for r in loaded]))
            return breakdown(tokens, label=label)

        monkeypatch.setattr(vocab, "load_vocab", recording_load)
        monkeypatch.setattr(analysis, "vocab_breakdown", recording_breakdown)
        rc = main(["compare", *[f"--vocab={n}={p}" for n, p in zip("abc", paths)],
                   "--breakdown", str(tmp_path / "c.tsv"), "--out", str(tmp_path / "m.csv")])
        assert rc == 0
        assert events == [
            ("load", []), ("breakdown", [True]),
            ("load", [True]), ("breakdown", [True, True]),
            ("load", [True, True]), ("breakdown", [True, True, True]),
        ]

    def test_no_breakdown_without_the_option(self, tmp_path, monkeypatch):
        from tokenlens import analysis

        def no_breakdown(*args, **kwargs):
            raise AssertionError("vocab_breakdown called")

        monkeypatch.setattr(analysis, "vocab_breakdown", no_breakdown)
        a = self.make_vocab(tmp_path, "a", [b"ing"])
        b = self.make_vocab(tmp_path, "b", [b"##ing"])
        assert main(["compare", "--vocab", f"a={a}", "--vocab", f"b={b}", "--out", str(tmp_path / "m.csv")]) == 0

    def test_no_normalize_flag(self, tmp_path):
        a = self.make_vocab(tmp_path, "a", [b"ing"])
        b = self.make_vocab(tmp_path, "b", [b"##ing"])
        out = str(tmp_path / "m.csv")
        rc = main(["compare", "--vocab", f"a={a}", "--vocab", f"b={b}",
                   "--no-normalize", "--out", out])
        assert rc == 0
        with open(out, encoding="utf-8") as f:
            rows = list(csv.reader(f.read().splitlines()[1:]))
        assert float(rows[1][2]) == 0.0

    def test_custom_markers(self, tmp_path):
        a = self.make_vocab(tmp_path, "a", ["Xfoo".encode("utf-8")])
        b = self.make_vocab(tmp_path, "b", [b" foo"])
        out = str(tmp_path / "m.csv")
        rc = main(["compare", "--vocab", f"a={a}", "--vocab", f"b={b}",
                   "--space-marker", "X", "--out", out])
        assert rc == 0
        with open(out, encoding="utf-8") as f:
            rows = list(csv.reader(f.read().splitlines()[1:]))
        assert float(rows[1][2]) == 1.0

    # Each marker option replaces its own default and keeps the other one.
    @pytest.mark.parametrize(
        "option,marker,tokens",
        [("--strip-prefix", "@@", ["Ġfoo", "@@ing"]), ("--space-marker", "X", ["Xfoo", "##ing"])],
        ids=["strip-prefix-keeps-space-markers", "space-marker-keeps-strip-prefix"],
    )
    def test_one_marker_option_keeps_the_other_default(self, tmp_path, option, marker, tokens):
        a = self.make_vocab(tmp_path, "a", [t.encode("utf-8") for t in tokens])
        b = self.make_vocab(tmp_path, "b", [b" foo", b"ing"])
        out = str(tmp_path / "m.csv")
        rc = main(["compare", "--vocab", f"a={a}", "--vocab", f"b={b}", option, marker, "--out", out])
        assert rc == 0
        with open(out, encoding="utf-8") as f:
            rows = list(csv.reader(f.read().splitlines()[1:]))
        assert float(rows[1][2]) == 1.0

    # --no-normalize would silently drop a marker option, in either order.
    @pytest.mark.parametrize(
        "options,later,earlier",
        [
            (["--no-normalize", "--space-marker", "X"], "--space-marker", "--no-normalize"),
            (["--no-normalize", "--strip-prefix", "X"], "--strip-prefix", "--no-normalize"),
            (["--space-marker", "X", "--no-normalize"], "--no-normalize", "--space-marker"),
            (["--strip-prefix", "X", "--no-normalize"], "--no-normalize", "--strip-prefix"),
        ],
        ids=["space-marker", "strip-prefix", "space-marker-first", "strip-prefix-first"],
    )
    def test_no_normalize_with_a_marker_is_usage_error(self, tmp_path, capsys, options, later, earlier):
        a = self.make_vocab(tmp_path, "a", ["Xfoo".encode("utf-8")])
        b = self.make_vocab(tmp_path, "b", [b" foo"])
        out = str(tmp_path / "m.csv")
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--vocab", f"a={a}", "--vocab", f"b={b}", *options, "--out", out])
        assert exc.value.code == 2
        assert f"argument {later}: not allowed with argument {earlier}" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_help_states_the_no_normalize_rule(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--help"])
        assert exc.value.code == 0
        assert "not allowed with --space-marker or --strip-prefix" in " ".join(capsys.readouterr().out.split())

    def test_both_marker_options_together(self, tmp_path):
        a = self.make_vocab(tmp_path, "a", ["Xfoo".encode("utf-8"), b"@@ing"])
        b = self.make_vocab(tmp_path, "b", [b" foo", b"ing"])
        out = str(tmp_path / "m.csv")
        rc = main(["compare", "--vocab", f"a={a}", "--vocab", f"b={b}",
                   "--space-marker", "X", "--strip-prefix", "@@", "--out", out])
        assert rc == 0
        with open(out, encoding="utf-8") as f:
            rows = list(csv.reader(f.read().splitlines()[1:]))
        assert float(rows[1][2]) == 1.0

    def test_breakdown_written(self, tmp_path):
        a = self.make_vocab(tmp_path, "a", [b"a", b"ab"])
        b = self.make_vocab(tmp_path, "b", ["é".encode("utf-8")])
        out = str(tmp_path / "m.csv")
        tsv = str(tmp_path / "b.tsv")
        rc = main(["compare", "--vocab", f"a={a}", "--vocab", f"b={b}",
                   "--breakdown", tsv, "--out", out])
        assert rc == 0
        with open(tsv, encoding="utf-8") as f:
            lines = f.read().splitlines()
        assert lines[0].startswith("# manifest: ")
        rows = list(csv.reader(lines[1:], delimiter="\t"))
        assert rows[0][0] == "tokenizer"
        assert [r[0] for r in rows[1:]] == ["a", "b"]

    def test_single_vocab_exits_one(self, tmp_path):
        a = self.make_vocab(tmp_path, "a", [b"a"])
        rc = main(["compare", "--vocab", f"a={a}", "--out", str(tmp_path / "m.csv")])
        assert rc == 1

    def test_repeated_vocab_name_exits_one(self, tmp_path, capsys):
        a = self.make_vocab(tmp_path, "a", [b"a"])
        b = self.make_vocab(tmp_path, "b", [b"b"])
        out = str(tmp_path / "m.csv")
        rc = main(["compare", "--vocab", f"v={a}", "--vocab", f"w={b}", "--vocab", f"v={b}",
                   "--out", out])
        assert rc == 1
        assert "repeated vocab name: v" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("option", ["--space-marker", "--strip-prefix"])
    def test_empty_marker_exits_one(self, tmp_path, capsys, option):
        a = self.make_vocab(tmp_path, "a", [b"ab"])
        b = self.make_vocab(tmp_path, "b", [b"a"])
        out = str(tmp_path / "m.csv")
        tsv = str(tmp_path / "b.tsv")
        rc = main(["compare", "--vocab", f"a={a}", "--vocab", f"b={b}", option, "",
                   "--breakdown", tsv, "--out", out])
        assert rc == 1
        assert "normalization markers must not be empty" in capsys.readouterr().err
        assert not os.path.exists(out) and not os.path.exists(tsv)

    def test_bad_metric_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--vocab", "a=x", "--vocab", "b=y",
                  "--metric", "dice", "--out", "m.csv"])
        assert exc.value.code == 2

    def test_thread_count_is_byte_neutral(self, tmp_path):
        paths = [
            self.make_vocab(tmp_path, f"v{i}", [bytes([65 + i]), bytes([66 + i]), b"zz"])
            for i in range(4)
        ]
        outs = []
        for tag, threads in (("t1", "1"), ("t8", "8")):
            out = str(tmp_path / f"{tag}.csv")
            args = ["compare"]
            for i, p in enumerate(paths):
                args += ["--vocab", f"v{i}={p}"]
            args += ["--threads", threads, "--out", out]
            assert main(args) == 0
            with open(out, "rb") as f:
                outs.append(f.read())
        assert outs[0] == outs[1]


class TestPremiumCommand:
    @pytest.fixture()
    def pair_files(self, tmp_path):
        eng = write_text(tmp_path / "eng.txt", "shoes\nsho\nhe\n")
        tgt = write_text(tmp_path / "tgt.txt", "shakes\nshoe_shoe\nash\n")
        return eng, tgt

    def test_hand_corpus_csv_and_json(self, tmp_path, worked_files, pair_files):
        vpath, mpath = worked_files
        eng, tgt = pair_files
        out = str(tmp_path / "p.csv")
        jout = str(tmp_path / "p.json")
        rc = main(["premium", "--tokenizer", f"work=bpe:{vpath}:{mpath}",
                   "--pair", f"xx:Latn:{eng}:{tgt}", "--json", jout,
                   "--verbose", "--out", out])
        assert rc == 0
        with open(out, encoding="utf-8") as f:
            lines = f.read().splitlines()
        assert lines[1] == "language,script,work"
        assert lines[2] == "xx,Latn,1.78"
        with open(jout, encoding="utf-8") as f:
            doc = json.load(f)
        cell = doc["rows"][0]["cells"]["work"]
        assert cell["mean_ratio"] == sum([4 / 3, 3.0, 1.0]) / 3
        assert cell["ratios"] == [4 / 3, 3.0, 1.0]
        assert doc["manifest"]["command"] == "premium"

    def test_every_line_pair_counted_in_json(self, tmp_path, worked_files):
        vpath, mpath = worked_files
        eng = write_text(tmp_path / "eng.txt", "shoes\n\nshe\nshoes\n")
        tgt = write_text(tmp_path / "tgt.txt", "shakes\nshe_sells\nshe\n\n")
        jout = str(tmp_path / "p.json")
        rc = main(["premium", "--tokenizer", f"work=bpe:{vpath}:{mpath}",
                   "--pair", f"xx:Latn:{eng}:{tgt}", "--json", jout,
                   "--out", str(tmp_path / "p.csv")])
        assert rc == 0
        with open(jout, encoding="utf-8") as f:
            cell = json.load(f)["rows"][0]["cells"]["work"]
        assert (cell["n_pairs"], cell["n_skipped"]) == (2, 2)

    def test_self_pair_is_exactly_one(self, tmp_path, worked_files, pair_files):
        vpath, mpath = worked_files
        eng, _ = pair_files
        out = str(tmp_path / "p.csv")
        rc = main(["premium", "--tokenizer", f"work=bpe:{vpath}:{mpath}",
                   "--pair", f"eng:Latn:{eng}:{eng}", "--out", out])
        assert rc == 0
        with open(out, encoding="utf-8") as f:
            assert f.read().splitlines()[2] == "eng,Latn,1.00"

    def test_totals_aggregate(self, tmp_path, worked_files, pair_files):
        vpath, mpath = worked_files
        eng, tgt = pair_files
        out = str(tmp_path / "p.csv")
        rc = main(["premium", "--tokenizer", f"work=bpe:{vpath}:{mpath}",
                   "--pair", f"xx:Latn:{eng}:{tgt}",
                   "--aggregate", "totals", "--out", out])
        assert rc == 0
        with open(out, encoding="utf-8") as f:
            assert f.read().splitlines()[2] == "xx,Latn,1.71"  # 12/7

    def test_unusable_tokenizer_gets_na(self, tmp_path, worked_files, pair_files):
        vpath, mpath = worked_files
        eng, tgt = pair_files
        probs = write_text(tmp_path / "probs.json", '{"s": 0.0}\n')
        out = str(tmp_path / "p.csv")
        rc = main(["premium", "--tokenizer", f"work=bpe:{vpath}:{mpath}",
                   "--tokenizer", f"narrow=ulm:{probs}",
                   "--pair", f"xx:Latn:{eng}:{tgt}", "--out", out])
        assert rc == 0
        with open(out, encoding="utf-8") as f:
            lines = f.read().splitlines()
        assert lines[1] == "language,script,work,narrow"
        assert lines[2] == "xx,Latn,1.78,NA"

    def test_ulm_tokenizer_spec(self, tmp_path):
        import math

        probs = write_text(
            tmp_path / "probs.json",
            json.dumps({"a": math.log(0.5), "b": math.log(0.5)}),
        )
        eng = write_text(tmp_path / "e.txt", "ab\n")
        tgt = write_text(tmp_path / "t.txt", "abab\n")
        out = str(tmp_path / "p.csv")
        rc = main(["premium", "--tokenizer", f"u=ulm:{probs}",
                   "--pair", f"xx:Latn:{eng}:{tgt}", "--out", out])
        assert rc == 0
        with open(out, encoding="utf-8") as f:
            assert f.read().splitlines()[2] == "xx,Latn,2.00"

    def test_repeated_tokenizer_name_exits_one(self, tmp_path, capsys, worked_files, pair_files):
        vpath, mpath = worked_files
        eng, tgt = pair_files
        out = str(tmp_path / "p.csv")
        jout = str(tmp_path / "p.json")
        rc = main(["premium", "--tokenizer", f"gpt=bpe:{vpath}:{mpath}",
                   "--tokenizer", f"gpt=bpe:{vpath}:{mpath}",
                   "--pair", f"xx:Latn:{eng}:{tgt}", "--json", jout, "--out", out])
        assert rc == 1
        assert "repeated tokenizer name: gpt" in capsys.readouterr().err
        assert not os.path.exists(out) and not os.path.exists(jout)

    def test_ulm_token_over_a_char_that_is_no_token(self, tmp_path):
        import math

        # "a" is no token, so no token ends after it, but "ab" + "c" covers "abc".
        probs = write_text(tmp_path / "probs.json",
                           json.dumps({"ab": math.log(0.5), "c": math.log(0.5)}))
        eng = write_text(tmp_path / "e.txt", "abc\n")
        tgt = write_text(tmp_path / "t.txt", "ababc\n")
        out = str(tmp_path / "p.csv")
        rc = main(["premium", "--tokenizer", f"u=ulm:{probs}",
                   "--pair", f"xx:Latn:{eng}:{tgt}", "--out", out])
        assert rc == 0
        with open(out, encoding="utf-8") as f:
            assert f.read().splitlines()[2] == "xx,Latn,1.50"

    def test_skips_explained_on_stderr(self, tmp_path, capsys):
        import math

        probs = write_text(tmp_path / "probs.json",
                           json.dumps({t: math.log(0.25) for t in ["a", "b", "ab", " "]}))
        eng = write_text(tmp_path / "e.txt", "ab\nab\n")
        tgt = write_text(tmp_path / "t.txt", "a b\nक\n")
        out = str(tmp_path / "p.csv")
        rc = main(["premium", "--tokenizer", f"u=ulm:{probs}",
                   "--pair", f"xx:Latn:{eng}:{tgt}", "--pair", f"eng:Latn:{eng}:{eng}",
                   "--out", out])
        assert rc == 0
        captured = capsys.readouterr()
        # The self-pair skipped nothing, so it has no line.
        assert captured.err.splitlines() == [
            "premium: xx:Latn/u skipped 1 of 2 pairs (1 unencodable, 0 empty)"
        ]
        assert len(captured.out.splitlines()) == 1
        with open(out, encoding="utf-8") as f:
            assert f.read().splitlines()[2:] == ["xx,Latn,3.00", "eng,Latn,1.00"]

    def test_na_cells_and_empty_lines_explained_on_stderr(
        self, tmp_path, capsys, worked_files
    ):
        vpath, mpath = worked_files
        probs = write_text(tmp_path / "probs.json", '{"s": 0.0}\n')
        eng = write_text(tmp_path / "e.txt", "shoes\n\nshe\n")
        tgt = write_text(tmp_path / "t.txt", "shakes\nshe\n\n")
        rc = main(["premium", "--tokenizer", f"work=bpe:{vpath}:{mpath}",
                   "--tokenizer", f"narrow=ulm:{probs}",
                   "--pair", f"xx:Latn:{eng}:{tgt}", "--out", str(tmp_path / "p.csv")])
        assert rc == 0
        assert capsys.readouterr().err.splitlines() == [
            "premium: xx:Latn/work skipped 2 of 3 pairs (0 unencodable, 2 empty)",
            # A pair with a side that cannot be encoded counts as unencodable,
            # whatever its other side.
            "premium: xx:Latn/narrow is NA: all 3 pairs were skipped for tokenizer 'narrow'"
            " (3 unencodable, 0 empty)",
        ]

    def test_missing_tokenizer_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["premium", "--pair", "xx:Y:e:t", "--out", "p.csv"])
        assert exc.value.code == 2

    def test_malformed_pair_exits_one(self, tmp_path, worked_files):
        vpath, mpath = worked_files
        rc = main(["premium", "--tokenizer", f"w=bpe:{vpath}:{mpath}",
                   "--pair", "xx:e:t", "--out", str(tmp_path / "p.csv")])
        assert rc == 1

    @pytest.mark.parametrize(
        "pairs,needle",
        [
            (["xx:Latn:{eng}:{tgt}", "xx:Latn:{tgt}:{eng}"], "repeated pair language: xx:Latn"),
            (["xx:Latn:{eng}:{tgt}", "xx:{eng}:{tgt}"], "--pair must be LANG:SCRIPT:ENGPATH:TGTPATH"),
        ],
        ids=["repeated-language", "malformed"],
    )
    def test_pair_errors_exit_one_before_any_read(self, tmp_path, capsys, pair_files, pairs, needle):
        # The tokenizer files do not exist, so an error naming the pairs
        # shows that they were checked before any file was read.
        eng, tgt = pair_files
        args = ["premium", "--tokenizer", f"w=bpe:{tmp_path}/none.vocab.json:{tmp_path}/none.merges.json"]
        for pair in pairs:
            args += ["--pair", pair.format(eng=eng, tgt=tgt)]
        out = str(tmp_path / "p.csv")
        assert main(args + ["--out", out]) == 1
        assert needle in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_every_tokenizer_spec_is_checked_before_any_read(self, tmp_path, capsys, pair_files):
        # The first tokenizer's files do not exist, so the second spec's
        # error shows that every spec was checked before the first was read.
        eng, tgt = pair_files
        missing = str(tmp_path / "missing")
        out = str(tmp_path / "p.csv")
        rc = main(["premium", "--tokenizer", f"a=bpe:{missing}.vocab.json:{missing}.merges.json",
                   "--tokenizer", "b=bpe:x", "--pair", f"xx:Latn:{eng}:{tgt}", "--out", out])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: bpe spec must be bpe:VOCAB:MERGES, got 'bpe:x'\n"
        assert "missing" not in err
        assert not os.path.exists(out)

    def test_line_count_mismatch_exits_one(self, tmp_path, worked_files):
        vpath, mpath = worked_files
        eng = write_text(tmp_path / "e.txt", "shoes\nhe\n")
        tgt = write_text(tmp_path / "t.txt", "shakes\n")
        rc = main(["premium", "--tokenizer", f"w=bpe:{vpath}:{mpath}",
                   "--pair", f"xx:Latn:{eng}:{tgt}", "--out", str(tmp_path / "p.csv")])
        assert rc == 1

    def test_non_utf8_target_file_names_that_file(self, tmp_path, capsys, worked_files):
        vpath, mpath = worked_files
        eng = write_text(tmp_path / "e.txt", "shoes\nhe\n")
        tgt = write_bytes(tmp_path / "t.txt", b"sh\n\xff\n")
        out = str(tmp_path / "p.csv")
        rc = main(["premium", "--tokenizer", f"w=bpe:{vpath}:{mpath}",
                   "--pair", f"xx:Latn:{eng}:{tgt}", "--out", out])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {tgt}: invalid UTF-8 at byte offset 3: invalid start byte\n"
        assert not os.path.exists(out)

    def test_thread_count_is_byte_neutral(self, tmp_path, worked_files, pair_files):
        vpath, mpath = worked_files
        eng, tgt = pair_files
        outs = []
        for tag, threads in (("t1", "1"), ("t8", "8")):
            out = str(tmp_path / f"{tag}.csv")
            jout = str(tmp_path / f"{tag}.json")
            assert main(["premium", "--tokenizer", f"work=bpe:{vpath}:{mpath}",
                         "--pair", f"xx:Latn:{eng}:{tgt}", "--threads", threads,
                         "--json", jout, "--out", out]) == 0
            with open(out, "rb") as f1, open(jout, "rb") as f2:
                outs.append(f1.read() + f2.read())
        assert outs[0] == outs[1]


class TestAugmentCommand:
    def test_plan_written_with_stats(self, tmp_path, byte_level_files):
        bf = byte_level_files
        out = str(tmp_path / "plan.json")
        rc = main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                   "--encoder", "toy:0:1:3", "--strategy", "knn:2@0",
                   "--corpus", bf["corpus"], "--out", out])
        assert rc == 0
        with open(out, encoding="utf-8") as f:
            doc = json.load(f)
        assert [e["token"] for e in doc["entries"]] == ["è", "é"]
        assert doc["strategy"] == {"kind": "knn", "layer": 0, "k": 2}
        assert doc["manifest"]["command"] == "augment"
        assert bf["corpus"] in doc["stats"]["fraction_new_tokens"]
        assert read_matrix(out + ".mat").shape == (2, 3)
        with open(out + ".mat.json", encoding="utf-8") as f:
            assert json.load(f)["provenance"] == "knn:2@0"

    def test_explicit_chars(self, tmp_path, byte_level_files):
        bf = byte_level_files
        out = str(tmp_path / "plan.json")
        rc = main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                   "--encoder", "toy:0:1:3", "--strategy", "linreg@0",
                   "--corpus", bf["corpus"], "--chars", "é", "--out", out])
        assert rc == 0
        with open(out, encoding="utf-8") as f:
            doc = json.load(f)
        assert [e["token"] for e in doc["entries"]] == ["é"]

    def test_empty_scan_explained_on_stderr(self, tmp_path, capsys, byte_level_files):
        bf = byte_level_files
        latin = write_text(tmp_path / "latin.txt", "ab\n")  # each char is one token
        out = str(tmp_path / "plan.json")
        rc = main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                   "--encoder", "toy:0:1:3", "--grid", "knn:2@0,linreg@1",
                   "--corpus", latin, "--out", out])
        assert rc == 0
        assert capsys.readouterr().err == (
            f"augment: no character of {latin} encodes to two or more tokens under bytes; "
            "every plan is empty\n"
        )
        for tag in ("knn2-l0", "linreg-l1"):
            with open(str(tmp_path / f"plan.{tag}.json"), encoding="utf-8") as f:
                assert json.load(f)["entries"] == []
        # A scan that finds characters, or --chars, says nothing.
        for extra in ([], ["--chars", "é"]):
            assert main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                         "--encoder", "toy:0:1:3", "--strategy", "knn:2@0",
                         "--corpus", bf["corpus"], "--out", out] + extra) == 0
            assert capsys.readouterr().err == ""

    def test_empty_chars_is_usage_error(self, tmp_path, capsys, byte_level_files):
        bf = byte_level_files
        with pytest.raises(SystemExit) as exc:
            main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                  "--encoder", "toy:0:1:3", "--strategy", "linreg@0",
                  "--corpus", bf["corpus"], "--chars", "", "--out", str(tmp_path / "plan.json")])
        assert exc.value.code == 2
        assert "argument --chars: must not be empty" in capsys.readouterr().err
        assert not (tmp_path / "plan.json").exists()

    def test_grid_writes_tagged_files(self, tmp_path, byte_level_files):
        bf = byte_level_files
        out = str(tmp_path / "plan.json")
        rc = main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                   "--encoder", "toy:0:1:3", "--grid", "knn:1@0,linreg@0,local:3@1",
                   "--corpus", bf["corpus"], "--out", out])
        assert rc == 0
        for tag in ("knn1-l0", "linreg-l0", "local3-l1"):
            tagged = str(tmp_path / f"plan.{tag}.json")
            with open(tagged, encoding="utf-8") as f:
                json.load(f)

    def test_grid_bad_layer_writes_no_plan(self, tmp_path, byte_level_files):
        bf = byte_level_files
        rc = main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                   "--encoder", "toy:0:1:3", "--grid", "knn:1@0,linreg@9",
                   "--corpus", bf["corpus"], "--out", str(tmp_path / "plan.json")])
        assert rc == 1
        assert not [n for n in os.listdir(tmp_path) if n.startswith("plan")]

    @pytest.mark.parametrize(
        "out,tagged",
        [
            ("plan.json", "plan.knn1-l0.json"),
            ("plan", "plan.knn1-l0"),
            (".hidden", ".hidden.knn1-l0"),
            ("a.b.json", "a.b.knn1-l0.json"),
            ("out.d/plan", "out.d/plan.knn1-l0"),
        ],
    )
    def test_grid_tag_goes_before_the_file_extension(self, tmp_path, byte_level_files, out, tagged):
        bf = byte_level_files
        os.mkdir(tmp_path / "out.d")
        rc = main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                   "--encoder", "toy:0:1:3", "--grid", "knn:1@0,linreg@0",
                   "--corpus", bf["corpus"], "--out", str(tmp_path / out)])
        assert rc == 0
        assert os.path.exists(tmp_path / tagged)
        assert os.path.exists(tmp_path / tagged.replace("knn1", "linreg"))

    @pytest.mark.parametrize("grid", ["knn:1@0,knn:1@0", "local:3@1,linreg@0,local_linreg:3@1", ""])
    def test_duplicate_or_empty_grid_cells_exit_one(self, tmp_path, byte_level_files, grid):
        bf = byte_level_files
        rc = main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                   "--encoder", "toy:0:1:3", "--grid", grid,
                   "--corpus", bf["corpus"], "--out", str(tmp_path / "plan.json")])
        assert rc == 1
        assert not [n for n in os.listdir(tmp_path) if n.startswith("plan")]

    def test_one_reference_per_grid_layer(self, tmp_path, byte_level_files, monkeypatch):
        from tokenlens import embedding

        bf = byte_level_files
        layers = []
        build = embedding.build_reference

        def counting(enc, v0, layer):
            layers.append(layer)
            return build(enc, v0, layer)

        monkeypatch.setattr(embedding, "build_reference", counting)
        grid = ["knn:1@1", "linreg@1", "local:3@1", "knn:2@0"]
        out = str(tmp_path / "grid.json")
        assert main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                     "--encoder", "toy:0:1:3", "--grid", ",".join(grid),
                     "--corpus", bf["corpus"], "--out", out]) == 0
        assert layers == [0, 1]
        for cell, tag in zip(grid, ("knn1-l1", "linreg-l1", "local3-l1", "knn2-l0")):
            single = str(tmp_path / f"{tag}.json")
            assert main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                         "--encoder", "toy:0:1:3", "--strategy", cell,
                         "--corpus", bf["corpus"], "--out", single]) == 0
            with open(str(tmp_path / f"grid.{tag}.json.mat"), "rb") as f1:
                with open(single + ".mat", "rb") as f2:
                    assert f1.read() == f2.read()

    def test_single_token_char_exits_one_before_any_reference(self, tmp_path, capsys, byte_level_files,
                                                                monkeypatch):
        from tokenlens import embedding

        def no_reference(*args):
            raise AssertionError("build_reference called")

        monkeypatch.setattr(embedding, "build_reference", no_reference)
        bf = byte_level_files
        rc = main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                   "--encoder", "toy:0:1:3", "--strategy", "knn:1@1", "--chars", "aé",
                   "--corpus", bf["corpus"], "--out", str(tmp_path / "plan.json")])
        assert rc == 1
        assert "character 'a' encodes to a single token" in capsys.readouterr().err
        assert not [n for n in os.listdir(tmp_path) if n.startswith("plan")]

    def test_layer_above_encoder_depth_exits_one_before_any_reference(self, tmp_path, capsys, byte_level_files,
                                                                       monkeypatch):
        from tokenlens import embedding

        def no_reference(*args):
            raise AssertionError("build_reference called")

        monkeypatch.setattr(embedding, "build_reference", no_reference)
        bf = byte_level_files
        rc = main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                   "--encoder", "toy:0:1:3", "--grid", "knn:1@0,linreg@1,knn:1@9",
                   "--corpus", bf["corpus"], "--out", str(tmp_path / "plan.json")])
        assert rc == 1
        assert capsys.readouterr().err == "error: strategy knn:1@9: layer 9 outside 0..1\n"
        assert not [n for n in os.listdir(tmp_path) if n.startswith("plan")]

    @pytest.mark.parametrize("layer", ["0", "1"])
    def test_grid_failing_second_cell_writes_no_plan(self, tmp_path, capsys, byte_level_files, layer):
        bf = byte_level_files
        rc = main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                   "--encoder", "toy:0:1:3", "--grid", f"knn:1@{layer},knn:99999@{layer}",
                   "--corpus", bf["corpus"], "--out", str(tmp_path / "plan.json")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: strategy knn:99999@{layer}: k 99999 outside 1..5\n"
        assert not [n for n in os.listdir(tmp_path) if n.startswith("plan")]

    @pytest.mark.parametrize(
        "grid, message",
        [("knn:99999@1", "strategy knn:99999@1: k 99999 outside 1..5"),
         ("knn:2@1,local:6@0", "strategy local_linreg:6@0: k 6 outside 2..5")],
    )
    def test_oversized_k_exits_one_before_any_reference(self, tmp_path, capsys, byte_level_files, monkeypatch,
                                                         grid, message):
        from tokenlens import embedding

        def no_work(*args):
            raise AssertionError("a character was encoded or a reference built")

        monkeypatch.setattr(embedding, "build_reference", no_work)
        monkeypatch.setattr(embedding, "constituent_ids", no_work)
        bf = byte_level_files
        rc = main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                   "--encoder", "toy:0:1:3", "--grid", grid,
                   "--corpus", bf["corpus"], "--out", str(tmp_path / "plan.json")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_grid_failing_second_layer_writes_no_plan(self, tmp_path, capsys, byte_level_files):
        # Layer 2 is within the depth of a matrices:1,3 encoder but was not
        # exported: layer 1's plan is derived first, and none is written.
        bf = byte_level_files
        paths = []
        for layer in (1, 3):
            paths.append(f"{layer}={tmp_path / f'layer{layer}.mat'}")
            m = np.random.default_rng(layer).normal(size=read_matrix(bf["embeddings"]).shape)
            write_matrix(str(tmp_path / f"layer{layer}.mat"), m, layer=layer)
        rc = main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                   "--encoder", "matrices:" + ",".join(paths), "--grid", "knn:1@1,knn:1@2",
                   "--corpus", bf["corpus"], "--out", str(tmp_path / "plan.json")])
        assert rc == 1
        assert capsys.readouterr().err == "error: no exported matrix for layer 2\n"
        assert not [n for n in os.listdir(tmp_path) if n.startswith("plan")]

    @pytest.mark.parametrize("bad", ["nan", "unexported"])
    def test_empty_character_set_builds_no_reference(self, tmp_path, capsys, byte_level_files, monkeypatch, bad):
        # With no character to derive, neither a non-finite reference nor a
        # layer that was not exported fails the run: no reference is built.
        from tokenlens import embedding

        def no_reference(*args):
            raise AssertionError("build_reference called")

        monkeypatch.setattr(embedding, "build_reference", no_reference)
        bf = byte_level_files
        m = np.random.default_rng(5).normal(size=read_matrix(bf["embeddings"]).shape)
        if bad == "nan":
            m[2] = np.nan
        write_matrix(str(tmp_path / "layer3.mat"), m, layer=3)
        latin = write_text(tmp_path / "latin.txt", "ab\n")
        rc = main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                   "--encoder", f"matrices:3={tmp_path / 'layer3.mat'}", "--grid", "knn:2@3,linreg@2,local:3@0",
                   "--corpus", latin, "--out", str(tmp_path / "plan.json")])
        assert rc == 0
        assert "every plan is empty" in capsys.readouterr().err
        for tag in ("knn2-l3", "linreg-l2", "local3-l0"):
            with open(str(tmp_path / f"plan.{tag}.json"), encoding="utf-8") as f:
                assert json.load(f)["entries"] == []
            assert read_matrix(str(tmp_path / f"plan.{tag}.json.mat")).shape == (0, 3)

    def test_layer_above_depth_reported_before_a_single_token_char(self, tmp_path, capsys, byte_level_files):
        bf = byte_level_files
        rc = main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                   "--encoder", "toy:0:1:3", "--grid", "knn:1@0,linreg@9", "--chars", "aé",
                   "--corpus", bf["corpus"], "--out", str(tmp_path / "plan.json")])
        assert rc == 1
        assert capsys.readouterr().err == "error: strategy linreg@9: layer 9 outside 0..1\n"
        assert not [n for n in os.listdir(tmp_path) if n.startswith("plan")]

    def test_strategies_checked_before_the_corpus_is_read(self, tmp_path, capsys, byte_level_files, monkeypatch):
        from tokenlens import cli, embedding

        def unreachable(*args):
            raise AssertionError("read or scanned the corpus before checking the strategies")

        monkeypatch.setattr(cli, "load_corpus", unreachable)
        monkeypatch.setattr(embedding, "select_oov_chars", unreachable)
        bf = byte_level_files
        rc = main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                   "--encoder", "toy:0:1:3", "--grid", "knn:1@9",
                   "--corpus", bf["corpus"], "--out", str(tmp_path / "plan.json")])
        assert rc == 1
        assert capsys.readouterr().err == "error: strategy knn:1@9: layer 9 outside 0..1\n"

    @pytest.mark.parametrize("rows", [0, 4])
    def test_fewer_v0_rows_than_tokens_exits_one_before_the_corpus_is_read(
        self, tmp_path, capsys, byte_level_files, monkeypatch, rows
    ):
        from tokenlens import cli

        def unreachable(*args):
            raise AssertionError("read the corpus before checking V0's rows")

        monkeypatch.setattr(cli, "load_corpus", unreachable)
        bf = byte_level_files
        short = str(tmp_path / "short.mat")
        write_matrix(short, read_matrix(bf["embeddings"])[:rows])
        rc = main(["augment", "--tokenizer", bf["tok"], "--embeddings", short, "--encoder", "toy:0:1:3",
                   "--grid", "knn:1@1,linreg@1", "--corpus", bf["corpus"], "--out", str(tmp_path / "plan.json")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {short}: {rows} rows, fewer than the 5 tokens of tokenizer bytes\n"
        assert not [n for n in os.listdir(tmp_path) if n.startswith("plan")]

    def test_more_v0_rows_than_tokens_is_allowed(self, tmp_path, byte_level_files):
        # Models pad V0 past the tokenizer's vocabulary.
        bf = byte_level_files
        padded = str(tmp_path / "padded.mat")
        v0 = read_matrix(bf["embeddings"])
        write_matrix(padded, np.concatenate([v0, np.random.default_rng(3).normal(size=(3, 3))]))
        out = str(tmp_path / "plan.json")
        assert main(["augment", "--tokenizer", bf["tok"], "--embeddings", padded, "--encoder", "toy:0:1:3",
                     "--strategy", "knn:1@1", "--corpus", bf["corpus"], "--out", out]) == 0
        assert load_plan(out).tokens == ("è", "é")

    def test_single_token_char_reported_before_a_non_finite_reference(self, tmp_path, capsys, byte_level_files):
        bf = byte_level_files
        m4 = np.random.default_rng(5).normal(size=read_matrix(bf["embeddings"]).shape)
        m4[2] = np.nan
        m4path = str(tmp_path / "layer4.mat")
        write_matrix(m4path, m4, layer=4)
        rc = main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                   "--encoder", f"matrices:4={m4path}", "--grid", "linreg@4,knn:4@4", "--chars", "éa",
                   "--corpus", bf["corpus"], "--out", str(tmp_path / "plan.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: character 'a' encodes to a single token; nothing to derive\n"
        )
        assert not [n for n in os.listdir(tmp_path) if n.startswith("plan")]

    @pytest.mark.parametrize("grid", ["knn:2@1,linreg@1", "knn:2@1,local:3@0"])
    def test_tokenizer_freed_before_the_first_reference(self, tmp_path, byte_level_files, monkeypatch, grid):
        from tokenlens import cli, embedding, vocab

        made = []  # the Vocabulary, MergeRuleList and TokenizerHandle
        for module, name in ((vocab, "load_vocab"), (vocab, "load_merges"), (cli, "bpe_tokenizer")):
            real = getattr(module, name)

            def recording(*args, real=real, **kwargs):
                obj = real(*args, **kwargs)
                made.append(weakref.ref(obj))
                return obj

            monkeypatch.setattr(module, name, recording)
        alive = []
        build = embedding.build_reference

        def checking(*args):
            alive.append([r() is not None for r in made])
            return build(*args)

        monkeypatch.setattr(embedding, "build_reference", checking)
        bf = byte_level_files
        assert main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                     "--encoder", "toy:0:1:3", "--grid", grid,
                     "--corpus", bf["corpus"], "--out", str(tmp_path / "plan.json")]) == 0
        assert len(made) == 3
        assert alive and alive == [[False] * 3] * len(alive)

    @pytest.mark.parametrize(
        "grid,dtype",
        [("knn:2@1,linreg@1", np.float64), ("linreg@0", np.float64),
         ("knn:2@1,local:3@1", np.float32), ("knn:1@0", np.float32)],
    )
    def test_v0_held_once(self, tmp_path, byte_level_files, monkeypatch, grid, dtype):
        # With a linreg cell, V0 is widened before the encoder is built: the
        # encoder holds the float64 array, the fit reads it as it is, and
        # the float32 array read from the file is gone. Otherwise V0 stays
        # the float32 array it was read as.
        from tokenlens import embedding

        bf = byte_level_files
        m1path = str(tmp_path / "layer1.mat")
        write_matrix(m1path, np.random.default_rng(5).normal(size=read_matrix(bf["embeddings"]).shape), layer=1)
        encoders, targets, read, alive = [], [], [], []
        lookup, fit, read_matrix_, build = (
            embedding.LookupEncoder, embedding._fit_affine, embedding.read_matrix, embedding.build_reference
        )

        class RecordingEncoder(lookup):
            def __init__(self, *args):
                super().__init__(*args)
                encoders.append(self)

        def recording_read(path):
            arr = read_matrix_(path)
            if path == bf["embeddings"]:
                read.append(weakref.ref(arr))
            return arr

        def recording_build(*args):
            alive.append(read[0]() is not None)
            return build(*args)

        monkeypatch.setattr(embedding, "LookupEncoder", RecordingEncoder)
        monkeypatch.setattr(embedding, "_fit_affine", lambda design, y, *rest: targets.append(y) or fit(design, y, *rest))
        monkeypatch.setattr(embedding, "read_matrix", recording_read)
        monkeypatch.setattr(embedding, "build_reference", recording_build)
        assert main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                     "--encoder", f"matrices:1={m1path}", "--grid", grid,
                     "--corpus", bf["corpus"], "--out", str(tmp_path / "plan.json")]) == 0
        (enc,) = encoders
        assert enc._v0.dtype == dtype
        assert alive == [dtype == np.float32] * len(alive)
        if "linreg" in grid:
            assert np.shares_memory(targets[0], enc._v0)

    def test_non_finite_reference_exits_one_with_no_plan(self, tmp_path, capsys, byte_level_files):
        bf = byte_level_files
        m4 = np.random.default_rng(5).normal(size=read_matrix(bf["embeddings"]).shape)
        m4[2] = np.nan
        m4path = str(tmp_path / "layer4.mat")
        write_matrix(m4path, m4, layer=4)
        rc = main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                   "--encoder", f"matrices:4={m4path}", "--grid", "linreg@4,knn:4@4",
                   "--corpus", bf["corpus"], "--out", str(tmp_path / "plan.json")])
        assert rc == 1
        assert capsys.readouterr().err == "error: reference at layer 4 contains non-finite values\n"
        assert not [n for n in os.listdir(tmp_path) if n.startswith("plan")]

    def test_strategy_and_grid_is_usage_error(self, byte_level_files):
        bf = byte_level_files
        with pytest.raises(SystemExit) as exc:
            main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                  "--encoder", "toy:0:1:3", "--strategy", "knn:1@0", "--grid", "linreg@0",
                  "--corpus", bf["corpus"], "--out", "p.json"])
        assert exc.value.code == 2

    def test_neither_strategy_nor_grid_is_usage_error(self, byte_level_files):
        bf = byte_level_files
        with pytest.raises(SystemExit) as exc:
            main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                  "--encoder", "toy:0:1:3", "--corpus", bf["corpus"], "--out", "p.json"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "strategy",
        ["knn:0@0", "knn@0", "linreg:5@0", "local:1@0", "knn:2@-1", "knn:2", "pca@0",
         "knn:2@x", "knn:x@0", "knn:1:2@0"],
    )
    def test_bad_strategies_exit_one(self, tmp_path, byte_level_files, strategy):
        bf = byte_level_files
        rc = main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                   "--encoder", "toy:0:1:3", "--strategy", strategy,
                   "--corpus", bf["corpus"], "--out", str(tmp_path / "p.json")])
        assert rc == 1

    def test_encoder_dim_mismatch_exits_one(self, tmp_path, byte_level_files):
        bf = byte_level_files
        rc = main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                   "--encoder", "toy:0:1:5", "--strategy", "knn:1@0",
                   "--corpus", bf["corpus"], "--out", str(tmp_path / "p.json")])
        assert rc == 1

    def test_matrices_encoder(self, tmp_path, byte_level_files):
        bf = byte_level_files
        v0 = read_matrix(bf["embeddings"])
        m1 = np.random.default_rng(5).normal(size=v0.shape)
        m1path = str(tmp_path / "layer1.mat")
        write_matrix(m1path, m1, layer=1)
        out = str(tmp_path / "plan.json")
        rc = main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                   "--encoder", f"matrices:1={m1path}", "--strategy", "knn:2@1",
                   "--corpus", bf["corpus"], "--out", out])
        assert rc == 0
        with open(out, encoding="utf-8") as f:
            assert len(json.load(f)["entries"]) == 2

    @pytest.mark.parametrize(
        "encoder,needle",
        [
            ("matrices:x={a}", "matrices entry 'x={a}': layer must be an integer"),
            ("matrices:1={a},1={b}", "matrices entry '1={b}': layer 1 is given twice"),
            ("matrices:0={a}", "matrices entry '0={a}': layer must be >= 1"),
            ("matrices:1={a},-1={b}", "matrices entry '-1={b}': layer must be >= 1"),
            ("toy:0:x:3", "toy encoder spec needs integers, got 'toy:0:x:3'"),
        ],
        ids=["non-integer", "repeated", "layer-0", "negative", "toy-non-integer"],
    )
    def test_bad_matrices_entry_exits_one_before_any_read(
        self, tmp_path, capsys, byte_level_files, monkeypatch, encoder, needle
    ):
        from tokenlens import embedding, vocab

        bf = byte_level_files
        paths = {"a": str(tmp_path / "a.mat"), "b": str(tmp_path / "b.mat")}
        for path in paths.values():
            write_matrix(path, read_matrix(bf["embeddings"]))
        reads = []
        for module, name in ((embedding, "read_matrix"), (vocab, "load_vocab"), (vocab, "load_merges")):
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, real=real: reads.append(a[0]) or real(*a)
            )
        out = str(tmp_path / "plan.json")
        rc = main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                   "--encoder", encoder.format(**paths), "--strategy", "knn:1@1",
                   "--corpus", bf["corpus"], "--out", out])
        assert rc == 1
        assert needle.format(**paths) in capsys.readouterr().err
        assert reads == []
        assert not os.path.exists(out)

    def test_rerun_and_threads_byte_identical(self, tmp_path, byte_level_files):
        bf = byte_level_files
        blobs = []
        for tag, threads in (("r1", "1"), ("r2", "1"), ("r3", "4")):
            out = str(tmp_path / f"{tag}.json")
            assert main(["augment", "--tokenizer", bf["tok"],
                         "--embeddings", bf["embeddings"], "--encoder", "toy:0:1:3",
                         "--strategy", "local:3@1", "--corpus", bf["corpus"],
                         "--threads", threads, "--out", out]) == 0
            with open(out, "rb") as f:
                blobs.append(f.read())
        assert blobs[0] == blobs[1] == blobs[2]


class TestEvalCommand:
    @pytest.fixture()
    def planned(self, tmp_path, byte_level_files):
        bf = byte_level_files
        plan = str(tmp_path / "plan.json")
        assert main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                     "--encoder", "toy:2:1:3:linear", "--strategy", "linreg@0",
                     "--corpus", bf["corpus"], "--out", plan]) == 0
        return bf, plan

    def test_new_fraction_adds_no_encode(self, tmp_path, byte_level_files, monkeypatch):
        import tokenlens.cli as cli

        bf = byte_level_files
        model = ["--tokenizer", bf["tok"], "--embeddings", bf["embeddings"], "--encoder", "toy:0:1:3"]
        assert main(["augment", *model, "--grid", "knn:1@1,linreg@1", "--corpus", bf["corpus"],
                     "--out", str(tmp_path / "plan.json")]) == 0
        corpus = write_text(tmp_path / "c.txt", "aé\nab\n")
        factory = cli.bpe_tokenizer
        encoded = []

        def counting_tokenizer(*args, **kwargs):
            handle = factory(*args, **kwargs)
            encode = handle.encode
            handle.encode = lambda text: encoded.append(text) or encode(text)
            return handle

        monkeypatch.setattr(cli, "bpe_tokenizer", counting_tokenizer)
        counts = []
        for extra in ([], ["--report-new-fraction"]):
            encoded.clear()
            assert main(["eval", *model, "--plan", str(tmp_path / "plan.knn1-l1.json"),
                         "--plan", str(tmp_path / "plan.linreg-l1.json"), "--last-layer", "1",
                         "--corpus", f"c={corpus}", *extra, "--out", str(tmp_path / "sim.csv")]) == 0
            counts.append(len(encoded))
        # Each sentence is encoded once, then its unplanned run ("a", "ab")
        # once for the two plans' shared tokens; the fraction column reads
        # those same items.
        assert counts == [4, 4]

    def test_new_fraction_per_plan_token_set(self, tmp_path, byte_level_files):
        from test_embedding import oracle_fraction_new_tokens

        from tokenlens.embedding import load_plan
        from tokenlens.premium import bpe_tokenizer
        from tokenlens.vocab import load_merges, load_vocab

        bf = byte_level_files
        model = ["--tokenizer", bf["tok"], "--embeddings", bf["embeddings"], "--encoder", "toy:0:1:3"]
        plans = []
        for strategy, chars in (("knn:1@1", "é"), ("linreg@1", "è")):
            plans.append(str(tmp_path / f"{chars}.json"))
            assert main(["augment", *model, "--strategy", strategy, "--corpus", bf["corpus"],
                         "--chars", chars, "--out", plans[-1]]) == 0
        lines = ["aé", "bè", "éèé", "ab"]
        corpus = write_text(tmp_path / "c.txt", "\n".join(lines) + "\n")
        out = str(tmp_path / "sim.csv")
        assert main(["eval", *model, "--plan", plans[0], "--plan", plans[1], "--last-layer", "1",
                     "--corpus", f"c={corpus}", "--report-new-fraction", "--out", out]) == 0
        with open(out, encoding="utf-8") as f:
            header, row = list(csv.reader(f.read().splitlines()[1:]))
        assert header[3:] == ["knn:1@1_new_fraction", "linreg@1_new_fraction"]
        _, vpath, mpath = bf["tok"].split(":")
        vocab = load_vocab(vpath)
        tok = bpe_tokenizer("bytes", vocab, load_merges(mpath, vocab), byte_input=True)
        oracle = [f"{oracle_fraction_new_tokens(lines, tok, load_plan(p)):.6f}" for p in plans]
        assert row[3:] == oracle
        assert oracle[0] != oracle[1]

    def test_untouched_corpus_scores_one(self, tmp_path, planned):
        bf, plan = planned
        ascii_corpus = write_text(tmp_path / "plain.txt", "ab\nba\n")
        out = str(tmp_path / "sim.csv")
        rc = main(["eval", "--plan", plan, "--tokenizer", bf["tok"],
                   "--embeddings", bf["embeddings"], "--encoder", "toy:2:1:3:linear",
                   "--last-layer", "1", "--corpus", f"plain={ascii_corpus}",
                   "--out", out])
        assert rc == 0
        with open(out, encoding="utf-8") as f:
            lines = f.read().splitlines()
        assert lines[0].startswith("# manifest: ")
        assert lines[1] == "corpus,linreg@0"
        assert lines[2] == "plain,1.000000"

    def test_linear_equal_groups_near_one(self, tmp_path, planned):
        bf, plan = planned
        touched = write_text(tmp_path / "touched.txt", "éè\nèé\n")
        out = str(tmp_path / "sim.csv")
        rc = main(["eval", "--plan", plan, "--tokenizer", bf["tok"],
                   "--embeddings", bf["embeddings"], "--encoder", "toy:2:1:3:linear",
                   "--last-layer", "1", "--corpus", f"touched={touched}",
                   "--report-new-fraction", "--out", out])
        assert rc == 0
        with open(out, encoding="utf-8") as f:
            lines = f.read().splitlines()
        assert lines[1] == "corpus,linreg@0,linreg@0_new_fraction"
        label, sim, frac = lines[2].split(",")
        assert label == "touched"
        assert float(sim) == pytest.approx(1.0, abs=1e-6)
        assert frac == "1.000000"  # every emitted token is a plan token

    def test_multiple_plans_and_corpora(self, tmp_path, planned):
        bf, plan = planned
        plan2 = str(tmp_path / "plan2.json")
        assert main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                     "--encoder", "toy:2:1:3:linear", "--strategy", "knn:1@0",
                     "--corpus", bf["corpus"], "--out", plan2]) == 0
        c1 = write_text(tmp_path / "c1.txt", "aéb\n")
        c2 = write_text(tmp_path / "c2.txt", "ab\n")
        out = str(tmp_path / "sim.csv")
        rc = main(["eval", "--plan", plan, "--plan", plan2, "--tokenizer", bf["tok"],
                   "--embeddings", bf["embeddings"], "--encoder", "toy:2:1:3:linear",
                   "--last-layer", "1", "--corpus", f"one={c1}", "--corpus", f"two={c2}",
                   "--out", out])
        assert rc == 0
        with open(out, encoding="utf-8") as f:
            rows = list(csv.reader(f.read().splitlines()[1:]))
        assert rows[0] == ["corpus", "linreg@0", "knn:1@0"]
        assert [r[0] for r in rows[1:]] == ["one", "two"]
        assert rows[2][1] == "1.000000"
        assert rows[2][2] == "1.000000"

    def test_repeated_corpus_label_exits_one(self, tmp_path, capsys, planned):
        bf, plan = planned
        c1 = write_text(tmp_path / "c1.txt", "ab\n")
        out = str(tmp_path / "sim.csv")
        rc = main(["eval", "--plan", plan, "--tokenizer", bf["tok"],
                   "--embeddings", bf["embeddings"], "--encoder", "toy:2:1:3:linear",
                   "--last-layer", "1", "--corpus", f"c={c1}", "--corpus", f"c={bf['corpus']}",
                   "--out", out])
        assert rc == 1
        assert "repeated corpus label: c" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_repeated_plan_label_exits_one(self, tmp_path, capsys, planned):
        bf, plan = planned
        out = str(tmp_path / "sim.csv")
        rc = main(["eval", "--plan", plan, "--plan", plan, "--tokenizer", bf["tok"],
                   "--embeddings", bf["embeddings"], "--encoder", "toy:2:1:3:linear",
                   "--last-layer", "1", "--corpus", f"c={bf['corpus']}", "--out", out])
        assert rc == 1
        assert "repeated plan label: linreg@0" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("layer", ["-1", "99"])
    def test_last_layer_outside_encoder_exits_one_on_untouched_corpus(self, tmp_path, capsys, planned, layer):
        bf, plan = planned
        ascii_corpus = write_text(tmp_path / "plain.txt", "ab\nba\n")  # the plan touches no sentence
        out = str(tmp_path / "sim.csv")
        rc = main(["eval", "--plan", plan, "--tokenizer", bf["tok"],
                   "--embeddings", bf["embeddings"], "--encoder", "toy:2:1:3:linear",
                   "--last-layer", layer, "--corpus", f"plain={ascii_corpus}", "--out", out])
        assert rc == 1
        assert f"--last-layer {layer} outside 0..1" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("field,value", [("distance_metric", 5), ("stats", [])])
    def test_plan_field_of_wrong_type_exits_one(self, tmp_path, capsys, planned, field, value):
        bf, plan = planned
        with open(plan, encoding="utf-8") as f:
            doc = json.load(f)
        doc[field] = value
        with open(plan, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        rc = main(["eval", "--plan", plan, "--tokenizer", bf["tok"],
                   "--embeddings", bf["embeddings"], "--encoder", "toy:2:1:3:linear",
                   "--last-layer", "1", "--corpus", f"c={bf['corpus']}",
                   "--out", str(tmp_path / "sim.csv")])
        assert rc == 1
        assert f"'{field}' has the wrong type" in capsys.readouterr().err

    def test_plan_dim_mismatch_names_the_plan(self, tmp_path, capsys, planned):
        bf, plan = planned  # a 3-dim plan
        v4 = str(tmp_path / "v4.mat")
        write_matrix(v4, np.random.default_rng(3).normal(size=(5, 4)))
        out = str(tmp_path / "sim.csv")
        rc = main(["eval", "--plan", plan, "--tokenizer", bf["tok"], "--embeddings", v4,
                   "--encoder", "toy:2:1:4:linear", "--last-layer", "1",
                   "--corpus", f"c={bf['corpus']}", "--out", out])
        assert rc == 1
        assert f"{plan}: plan dim 3 does not match embeddings dim 4" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_non_finite_v0_exits_one_as_augment_does(self, tmp_path, capsys, planned):
        bf, plan = planned
        v0 = read_matrix(bf["embeddings"])
        v0[:2] = np.inf
        bad = str(tmp_path / "bad.mat")
        write_matrix(bad, v0)
        out = str(tmp_path / "sim.csv")
        rc = main(["eval", "--plan", plan, "--tokenizer", bf["tok"], "--embeddings", bad,
                   "--encoder", "toy:2:1:3:linear", "--last-layer", "1",
                   "--corpus", f"c={bf['corpus']}", "--out", out])
        assert rc == 1
        assert capsys.readouterr().err == "error: v0 contains non-finite values\n"
        assert not os.path.exists(out)
        rc = main(["augment", "--tokenizer", bf["tok"], "--embeddings", bad,
                   "--encoder", "toy:2:1:3:linear", "--strategy", "linreg@0",
                   "--corpus", bf["corpus"], "--out", str(tmp_path / "p.json")])
        assert rc == 1
        assert capsys.readouterr().err == "error: v0 contains non-finite values\n"

    def test_fewer_v0_rows_than_tokens_exits_one_before_the_corpus_is_read(self, tmp_path, capsys, planned, monkeypatch):
        from tokenlens import cli

        def unreachable(*args):
            raise AssertionError("read the corpus before checking V0's rows")

        monkeypatch.setattr(cli, "load_corpus", unreachable)
        bf, plan = planned
        short = str(tmp_path / "short.mat")
        write_matrix(short, read_matrix(bf["embeddings"])[:3])
        out = str(tmp_path / "sim.csv")
        rc = main(["eval", "--plan", plan, "--tokenizer", bf["tok"], "--embeddings", short,
                   "--encoder", "toy:2:1:3:linear", "--last-layer", "1",
                   "--corpus", f"c={bf['corpus']}", "--out", out])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {short}: 3 rows, fewer than the 5 tokens of tokenizer bytes\n"
        assert not os.path.exists(out)

    def test_non_finite_plan_vector_names_the_plan(self, tmp_path, capsys, planned):
        bf, plan = planned
        with open(plan, encoding="utf-8") as f:
            doc = json.load(f)
        doc["entries"][1]["vector_b64"] = base64.b64encode(np.full(3, np.nan, dtype="<f4").tobytes()).decode()
        with open(plan, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        out = str(tmp_path / "sim.csv")
        rc = main(["eval", "--plan", plan, "--tokenizer", bf["tok"],
                   "--embeddings", bf["embeddings"], "--encoder", "toy:2:1:3:linear",
                   "--last-layer", "1", "--corpus", f"c={bf['corpus']}", "--out", out])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {plan}: entry 'é' vector is not finite\n"
        assert not os.path.exists(out)

    def test_unencodable_sentence_exits_one_with_no_table(self, tmp_path, capsys):
        vpath = write_text(tmp_path / "v.json", '{"k": 0, "o": 1, "ok": 2}')
        mpath = write_text(tmp_path / "m.json", '[["o", "k"]]')
        v0 = str(tmp_path / "v0.mat")
        write_matrix(v0, np.random.default_rng(5).normal(size=(3, 2)))
        plan = str(tmp_path / "plan.json")
        save_plan(AugmentationPlan(tokens=("é",), vectors=np.ones((1, 2)),
                                   strategy=DerivationStrategy("knn", 0, k=1)), plan)
        corpus = write_text(tmp_path / "c.txt", "ok\nox\n")
        out = str(tmp_path / "sim.csv")
        rc = main(["eval", "--plan", plan, "--tokenizer", f"t=bpe:{vpath}:{mpath}",
                   "--embeddings", v0, "--encoder", "toy:0:1:2", "--last-layer", "1",
                   "--corpus", f"c={corpus}", "--out", out])
        assert rc == 1
        assert capsys.readouterr().err == "error: character 'x' (U+0078) at offset 1 is not in the vocabulary\n"
        assert not os.path.exists(out)

    def test_missing_plan_is_usage_error(self, byte_level_files):
        bf = byte_level_files
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                  "--encoder", "toy:2:1:3", "--last-layer", "1",
                  "--corpus", "c=x.txt", "--out", "s.csv"])
        assert exc.value.code == 2

    def test_thread_count_is_byte_neutral(self, tmp_path, planned):
        bf, plan = planned
        c1 = write_text(tmp_path / "c1.txt", "aéb\nèa\nab\n")
        outs = []
        for tag, threads in (("t1", "1"), ("t8", "8")):
            out = str(tmp_path / f"{tag}.csv")
            assert main(["eval", "--plan", plan, "--tokenizer", bf["tok"],
                         "--embeddings", bf["embeddings"], "--encoder", "toy:2:1:3:linear",
                         "--last-layer", "1", "--corpus", f"c={c1}",
                         "--threads", threads, "--out", out]) == 0
            with open(out, "rb") as f:
                outs.append(f.read())
        assert outs[0] == outs[1]


class TestMalformedFiles:
    """A malformed input file exits 1 with a one-line error, never a traceback."""

    def assert_one_line_error(self, capsys, rc, *needles):
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        for needle in needles:
            assert needle in err

    def premium(self, tmp_path, spec):
        text = write_text(tmp_path / "a.txt", "a\n")
        return main(["premium", "--tokenizer", f"t={spec}", "--pair", f"xx:Latn:{text}:{text}",
                     "--out", str(tmp_path / "p.csv")])

    @pytest.mark.parametrize(
        "vocab,merges,needle",
        [
            ('{"a": 0}', "[[1, 2]]", "pair of strings"),
            ('{"a": true, "b": false}', "[]", "is not an integer"),
            ('{"a": 0,', "[]", "v.json: Expecting property name"),
            # A merges file opening with "[" that is not JSON is read as plaintext.
            ('{"a": 0, "b": 1, "ab": 2}', '[["a", "b"],', "m.json: merge references unknown token '[[\"a\",'"),
            ("a\nb\na\n", "[]", "v.json: duplicate token 'a'"),
            ('{"": 0, "a": 1}', "[]", "v.json: empty tokens are not allowed"),
        ],
        ids=["merge-of-ints", "boolean-ids", "vocab-json-syntax", "merges-json-syntax",
             "plaintext-vocab-repeated-line", "vocab-json-empty-key"],
    )
    def test_bpe_files(self, tmp_path, capsys, vocab, merges, needle):
        vpath = write_text(tmp_path / "v.json", vocab)
        mpath = write_text(tmp_path / "m.json", merges)
        self.assert_one_line_error(capsys, self.premium(tmp_path, f"bpe:{vpath}:{mpath}"), needle)

    @pytest.mark.parametrize(
        "probs,needle",
        [
            ("[1, 2]", "must map each token to a number"),
            ('{"a": null}', "must map each token to a number"),
            ('{"a": true}', "must map each token to a number"),
            ('{"a": "0"}', "must map each token to a number"),
            ('{"a": Infinity}', "not finite or -inf"),
            ('{"a": NaN}', "not finite or -inf"),
            ('{"a": 1e999}', "not finite or -inf"),
            ('{"a": 1' + "0" * 400 + "}", "too large"),
            ('{"a": 0,', "Expecting property name"),
            ('{"\udcff": 0}', "'utf-8' codec can't decode byte 0xff"),
        ],
        ids=["array", "null", "bool", "string", "infinity", "nan", "overflow", "huge-int",
             "json-syntax", "not-utf8"],
    )
    def test_ulm_probs(self, tmp_path, capsys, probs, needle):
        # surrogateescape writes "\udcff" as the lone byte 0xff
        path = write_bytes(tmp_path / "probs.json", probs.encode("utf-8", "surrogateescape"))
        self.assert_one_line_error(capsys, self.premium(tmp_path, f"ulm:{path}"), path, needle)

    def test_vocab_json_array(self, tmp_path, capsys):
        a = write_text(tmp_path / "a.json", '["a", "b"]\n')
        b = write_text(tmp_path / "b.txt", "a\n")
        rc = main(["compare", "--vocab", f"a={a}", "--vocab", f"b={b}",
                   "--out", str(tmp_path / "m.csv")])
        self.assert_one_line_error(capsys, rc, "vocabulary JSON must be an object")

    @pytest.mark.parametrize(
        "content,needle",
        [
            (b'{"strategy": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
            (b'{"strategy": {"kind": "knn", "layer": 0, "k": 1}, "dim": 100000000000000000000, '
             b'"entries": []}', ""),
        ],
        ids=["not-utf8", "dim-beyond-numpy"],
    )
    def test_plan_parse_errors_name_the_plan(self, tmp_path, capsys, byte_level_files, content, needle):
        plan = write_bytes(tmp_path / "plan.json", content)
        rc = self.eval_plan(tmp_path, byte_level_files, plan)
        self.assert_one_line_error(capsys, rc, f"error: {plan}: {needle}")
        assert not os.path.exists(tmp_path / "sim.csv")

    def test_truncated_matrix(self, tmp_path, capsys, byte_level_files):
        bf = byte_level_files
        with open(bf["embeddings"], "rb") as f:
            data = f.read()
        path = write_bytes(tmp_path / "cut.mat", data[:-1])
        rc = main(["augment", "--tokenizer", bf["tok"], "--embeddings", path,
                   "--encoder", "toy:0:1:3", "--strategy", "knn:1@0",
                   "--corpus", bf["corpus"], "--out", str(tmp_path / "p.json")])
        # 5 rows of 3 float32 values after the 8-byte header
        self.assert_one_line_error(capsys, rc, f"error: {path}: expected 60 data bytes, found 59")

    def test_ulm_probs_accept_minus_infinity(self, tmp_path):
        path = write_text(tmp_path / "probs.json", '{"a": 0, "b": -Infinity}')
        assert self.premium(tmp_path, f"ulm:{path}") == 0

    def eval_plan(self, tmp_path, bf, plan):
        return main(["eval", "--plan", plan, "--tokenizer", bf["tok"],
                     "--embeddings", bf["embeddings"], "--encoder", "toy:2:1:3:linear",
                     "--last-layer", "1", "--corpus", f"c={bf['corpus']}",
                     "--out", str(tmp_path / "sim.csv")])

    @pytest.mark.parametrize("content", ["", "\n\n"], ids=["zero-bytes", "blank-lines"])
    @pytest.mark.parametrize("command", ["train", "augment-scan", "augment-chars", "eval"])
    def test_empty_corpus_fails_once_naming_it(
        self, tmp_path, capsys, monkeypatch, byte_level_files, command, content
    ):
        # It fails as it is read: augment prints no empty-scan notice and
        # builds no reference first.
        from tokenlens import embedding

        def no_reference(*args):
            raise AssertionError("build_reference ran")

        monkeypatch.setattr(embedding, "build_reference", no_reference)
        bf = byte_level_files
        corpus = write_text(tmp_path / "blank.txt", content)
        plan = str(tmp_path / "plan.json")
        save_plan(AugmentationPlan(tokens=("é",), vectors=np.ones((1, 3)),
                                   strategy=DerivationStrategy("knn", 0, k=1)), plan)
        model = ["--tokenizer", bf["tok"], "--embeddings", bf["embeddings"], "--encoder", "toy:0:1:3"]
        out = str(tmp_path / "out")
        augment = ["augment", *model, "--strategy", "knn:1@0", "--corpus", corpus, "--out", out]
        argv = {
            "train": ["train", "--algorithm", "bpe", "--corpus", corpus, "--min-pair-freq", "2",
                      "--out-prefix", out],
            "augment-scan": augment,
            "augment-chars": augment + ["--chars", "é"],
            "eval": ["eval", *model, "--plan", plan, "--last-layer", "1", "--corpus", f"c={corpus}",
                     "--out", out],
        }[command]
        files = sorted(os.listdir(tmp_path))
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {corpus}: corpus is empty\n"
        assert sorted(os.listdir(tmp_path)) == files

    @pytest.mark.parametrize(
        "kind,content",
        [
            ("vocab", "[" * 200_000),
            ("vocab", '{"a":' * 200_000),
            ("merges", "[" * 200_000),
            ("probs", '{"a":' * 200_000),
            ("plan", '{"a":' * 200_000),
        ],
        ids=["vocab-array", "vocab-object", "merges", "probs", "plan"],
    )
    def test_json_nested_beyond_the_decoder(self, tmp_path, capsys, worked_files, byte_level_files, kind, content):
        # Too deep to parse, a file that opens with "[" is an error, not plaintext.
        path = write_text(tmp_path / f"{kind}.json", content)
        vpath, mpath = worked_files
        if kind == "vocab":
            rc = main(["compare", "--vocab", f"x={path}", "--vocab", f"y={vpath}",
                       "--out", str(tmp_path / "m.csv")])
        elif kind == "merges":
            rc = self.premium(tmp_path, f"bpe:{vpath}:{path}")
        elif kind == "probs":
            rc = self.premium(tmp_path, f"ulm:{path}")
        else:
            rc = self.eval_plan(tmp_path, byte_level_files, path)
        self.assert_one_line_error(capsys, rc, f"error: {path}: maximum recursion depth exceeded")

    def test_plan_without_strategy_fields(self, tmp_path, capsys, byte_level_files):
        plan = write_text(tmp_path / "plan.json", '{"strategy": {}}')
        rc = self.eval_plan(tmp_path, byte_level_files, plan)
        self.assert_one_line_error(capsys, rc, "'kind' is missing")


class TestOutputDirectories:
    """An output path whose directory is missing fails before any input is
    read: these inputs do not exist either, and the one error line names the
    output option and its directory."""

    _TOKENIZER = "t=bpe:{src}/v.json:{src}/m.json"
    _MODEL = ["--embeddings", "{src}/v0.mat", "--encoder", "toy:0:1:3"]

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["train", "--algorithm", "bpe", "--corpus", "{src}/c.txt", "--target-size", "5",
              "--out-prefix", "{dst}/x"], "--out-prefix"),
            (["compare", "--vocab", "a={src}/a.txt", "--vocab", "b={src}/b.txt", "--out", "{dst}/m.csv"], "--out"),
            (["compare", "--vocab", "a={src}/a.txt", "--vocab", "b={src}/b.txt",
              "--breakdown", "{dst}/b.tsv", "--out", "{here}/m.csv"], "--breakdown"),
            (["premium", "--tokenizer", "u=ulm:{src}/p.json", "--pair", "hin:Deva:{src}/e.txt:{src}/h.txt",
              "--out", "{dst}/p.csv"], "--out"),
            (["premium", "--tokenizer", "u=ulm:{src}/p.json", "--pair", "hin:Deva:{src}/e.txt:{src}/h.txt",
              "--json", "{dst}/p.json", "--out", "{here}/p.csv"], "--json"),
            (["augment", "--tokenizer", _TOKENIZER, *_MODEL, "--strategy", "knn:1@1", "--corpus", "{src}/c.txt",
              "--out", "{dst}/plan.json"], "--out"),
            (["eval", "--plan", "{src}/plan.json", "--tokenizer", _TOKENIZER, *_MODEL, "--last-layer", "1",
              "--corpus", "hin={src}/h.txt", "--out", "{dst}/s.csv"], "--out"),
        ],
        ids=["train", "compare", "compare-breakdown", "premium", "premium-json", "augment", "eval"],
    )
    def test_missing_directory_exits_one_before_any_read(self, tmp_path, capsys, argv, option):
        paths = {"src": str(tmp_path / "absent"), "dst": str(tmp_path / "missing"), "here": str(tmp_path)}
        assert main([arg.format(**paths) for arg in argv]) == 1
        assert capsys.readouterr().err == f"error: {option}: {paths['dst']} is not an existing directory\n"
        assert os.listdir(tmp_path) == []

    def test_a_file_is_no_directory(self, tmp_path, capsys):
        corpus = write_text(tmp_path / "c.txt", "abab\n")
        rc = main(["train", "--algorithm", "bpe", "--corpus", corpus, "--target-size", "3",
                   "--out-prefix", os.path.join(corpus, "x")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: --out-prefix: {corpus} is not an existing directory\n"

    def test_a_bare_prefix_writes_to_the_working_directory(self, tmp_path, monkeypatch):
        corpus = write_text(tmp_path / "c.txt", "abab\n")
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--algorithm", "bpe", "--corpus", corpus, "--target-size", "3",
                     "--out-prefix", "x"]) == 0
        assert os.path.exists(tmp_path / "x.vocab.json")


class TestOptionGrammar:
    """The parser states every option rule, so the usage line shows it."""

    @pytest.mark.parametrize(
        "command,rules",
        [
            ("train", ["(--target-size TARGET_SIZE | --min-pair-freq MIN_PAIR_FREQ)"]),
            ("augment", ["(--strategy knn:K@L | linreg@L | local:K@L | --grid GRID)"]),
            ("premium", [" --tokenizer NAME=SPEC", " --pair LANG:SCRIPT:ENG:TGT"]),
            ("eval", [" --plan PLAN_PATH", " --corpus LABEL=PATH"]),
        ],
    )
    def test_usage_shows_rules(self, capsys, command, rules):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        usage = " ".join(capsys.readouterr().out.split("options:")[0].split())
        for rule in rules:
            assert rule in usage


    @pytest.mark.parametrize("value", ["0", "-1", "x"])
    @pytest.mark.parametrize("command", ["compare", "premium", "augment", "eval"])
    def test_threads_below_one_is_usage_error(self, capsys, command, value):
        with pytest.raises(SystemExit) as exc:
            main([command, "--threads", value])
        assert exc.value.code == 2
        assert f"argument --threads: must be an integer >= 1, got '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-2", "x"])
    @pytest.mark.parametrize(
        "option,args",
        [
            ("--seed-max-token-len", ["--algorithm", "ulm", "--target-size", "2"]),
            ("--min-pair-freq", ["--algorithm", "bpe"]),
        ],
        ids=["seed-max-token-len", "min-pair-freq"],
    )
    def test_train_count_below_one_is_usage_error(self, tmp_path, capsys, option, args, value):
        corpus = write_text(tmp_path / "c.txt", "abab\n")
        with pytest.raises(SystemExit) as exc:
            main(["train", *args, "--corpus", corpus, option, value,
                  "--out-prefix", str(tmp_path / "u")])
        assert exc.value.code == 2
        assert f"argument {option}: must be an integer >= 1, got '{value}'" in capsys.readouterr().err
        assert not list(tmp_path.glob("u.*"))


class TestBadSpecs:
    def test_bad_tokenizer_specs(self, tmp_path, byte_level_files):
        bf = byte_level_files
        for spec in ["w=bpe:onlyvocab", "w=mystery:x", "noequals", "=bpe:a:b", "w=ulm:a:b"]:
            rc = main(["augment", "--tokenizer", spec, "--embeddings", bf["embeddings"],
                       "--encoder", "toy:0:1:3", "--strategy", "knn:1@0",
                       "--corpus", bf["corpus"], "--out", str(tmp_path / "p.json")])
            assert rc == 1, spec

    def test_bad_encoder_specs(self, tmp_path, byte_level_files):
        bf = byte_level_files
        for spec in ["toy:1:2", "toy:a:b:c", "toy:0:1:3:quadratic", "matrices:",
                     "matrices:notanumber", "resnet:50"]:
            rc = main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                       "--encoder", spec, "--strategy", "knn:1@0",
                       "--corpus", bf["corpus"], "--out", str(tmp_path / "p.json")])
            assert rc == 1, spec

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("toy:-1:4:64", "seed must be >= 0, got -1"),
            ("toy:1:0:64", "depth must be >= 1, got 0"),
            ("toy:1:4:0", "dim must be >= 1, got 0"),
        ],
        ids=["seed", "depth", "dim"],
    )
    def test_toy_spec_out_of_range_exits_one_before_any_read(self, tmp_path, capsys, spec, message):
        # No input exists, so the error is the spec's only if nothing was read.
        missing = str(tmp_path / "missing")
        rc = main(["augment", "--tokenizer", f"t=bpe:{missing}.vocab:{missing}.merges",
                   "--embeddings", f"{missing}.mat", "--encoder", spec, "--strategy", "knn:1@0",
                   "--corpus", f"{missing}.txt", "--out", str(tmp_path / "p.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert message in err
        assert "missing" not in err


_NAMES = st.lists(st.text("ABCDEFGH", min_size=1), min_size=1, max_size=5, unique=True).map(tuple)
_FIELD = st.text(st.characters(blacklist_characters=":"), min_size=1)


class TestSpecTable:
    """One splitter for every tokenizer, encoder and pair spec."""

    @given(names=_NAMES, data=st.data())
    def test_fields_round_trip(self, names, data):
        fields = [data.draw(_FIELD) for _ in names[:-1]] + [data.draw(st.text(min_size=1))]
        assert _split(":".join(fields), "--thing", names) == fields

    @given(kind=st.sampled_from(sorted(_KINDS)), data=st.data())
    def test_kinded_fields_round_trip(self, kind, data):
        names = _KINDS[kind]
        fields = [data.draw(_FIELD) for _ in names[:-1]] + [data.draw(st.text(min_size=1))]
        assert _parse_spec(":".join([kind, *fields]), "thing", tuple(_KINDS)) == (kind, fields)

    @given(kind=st.sampled_from(sorted(_KINDS)), data=st.data())
    def test_too_few_or_empty_fields_name_the_kind_and_its_fields(self, kind, data):
        names = _KINDS[kind]
        fields = data.draw(st.lists(_FIELD, min_size=len(names), max_size=len(names)))
        if data.draw(st.booleans()):
            fields = fields[: data.draw(st.integers(0, len(names) - 1))]
        else:
            fields[data.draw(st.integers(0, len(names) - 1))] = ""
        spec = ":".join([kind, *fields])
        with pytest.raises(ToolkitError) as exc:
            _parse_spec(spec, "thing", tuple(_KINDS))
        assert str(exc.value) == f"{kind} spec must be {':'.join([kind, *names])}, got {spec!r}"

    @pytest.mark.parametrize(
        "option,spec,message",
        [
            ("--tokenizer", "w=mystery:x", "unknown tokenizer kind 'mystery'; known kinds: bpe, bpe-bytes, ulm"),
            ("--tokenizer", "w=toy:0:1:3", "unknown tokenizer kind 'toy'; known kinds: bpe, bpe-bytes, ulm"),
            ("--encoder", "resnet:50", "unknown encoder kind 'resnet'; known kinds: toy, matrices"),
            ("--encoder", "ulm:p.json", "unknown encoder kind 'ulm'; known kinds: toy, matrices"),
            ("--encoder", "toy:0:1:3:", "unknown toy encoder variant ''"),
        ],
    )
    def test_unknown_kinds_exit_one_before_any_read(self, tmp_path, capsys, option, spec, message):
        missing = str(tmp_path / "missing")
        argv = {"--tokenizer": f"t=bpe:{missing}.vocab:{missing}.merges", "--encoder": "toy:0:1:3"}
        argv[option] = spec
        rc = main(["augment", "--tokenizer", argv["--tokenizer"], "--embeddings", f"{missing}.mat",
                   "--encoder", argv["--encoder"], "--strategy", "knn:1@0",
                   "--corpus", f"{missing}.txt", "--out", str(tmp_path / "p.json")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @staticmethod
    def _rows(path):
        with open(path, encoding="utf-8") as f:
            return [line for line in f.read().splitlines() if not line.startswith("# manifest:")]

    @pytest.mark.parametrize("moved", ["probs", "merges", "tgt"])
    def test_colon_path_in_premium(self, tmp_path, worked_files, moved):
        # The last field of a spec takes the rest of it, so the ulm probs,
        # a bpe spec's MERGES and a pair's TGTPATH may sit under a colon.
        vpath, mpath = worked_files
        files = {
            "probs": write_text(tmp_path / "probs.json", json.dumps({c: -1.0 for c in "aehkos_"} | {"sh": -1.5})),
            "merges": mpath,
            "tgt": write_text(tmp_path / "tgt.txt", "shakes\nshoe_shoe\nash\n"),
        }
        eng = write_text(tmp_path / "eng.txt", "shoes\nsho\nhe\n")
        colon = tmp_path / "a:b"
        colon.mkdir()
        rows = []
        for where in (files, {**files, moved: shutil.copy(files[moved], colon)}):
            out = str(tmp_path / f"p{len(rows)}.csv")
            rc = main(["premium", "--tokenizer", f"work=bpe:{vpath}:{where['merges']}",
                       "--tokenizer", f"uni=ulm:{where['probs']}",
                       "--pair", f"xx:Latn:{eng}:{where['tgt']}", "--out", out])
            assert rc == 0
            rows.append(self._rows(out))
        assert rows[1] == rows[0]
        # ulm: sh|a|k|e|s / sh|o|e|s, sh|o|e|_|sh|o|e / sh|o, a|sh / h|e
        assert rows[0][1] == "xx,Latn,1.78,1.92"

    def test_colon_path_in_matrices_layer(self, tmp_path, byte_level_files):
        bf = byte_level_files
        m1 = np.random.default_rng(5).normal(size=read_matrix(bf["embeddings"]).shape)
        colon = tmp_path / "a:b"
        colon.mkdir()
        plans = []
        for i, m1path in enumerate((str(tmp_path / "layer1.mat"), str(colon / "layer1.mat"))):
            write_matrix(m1path, m1, layer=1)
            out = str(tmp_path / f"plan{i}.json")
            rc = main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                       "--encoder", f"matrices:1={m1path}", "--strategy", "knn:2@1",
                       "--corpus", bf["corpus"], "--out", out])
            assert rc == 0
            with open(out, encoding="utf-8") as f:
                doc = json.load(f)
            del doc["manifest"]
            with open(out + ".mat", "rb") as f:
                plans.append((doc, f.read()))
        assert plans[1] == plans[0]
        assert len(plans[0][0]["entries"]) == 2


class TestStartup:
    def test_train_compare_premium_never_import_numpy(self, tmp_path):
        # Only augment and eval need numpy, whose import would take longer
        # than many of these commands' own work.
        p = str(tmp_path)
        corpus = write_text(tmp_path / "c.txt", "she_shakes_shoes\nshe_sells\n")
        eng = write_text(tmp_path / "eng.txt", "shoes\n")
        tgt = write_text(tmp_path / "tgt.txt", "shakes\n")
        runs = [
            ["train", "--algorithm", "bpe", "--corpus", corpus, "--min-pair-freq", "2",
             "--out-prefix", f"{p}/bpe"],
            ["train", "--algorithm", "ulm", "--corpus", corpus, "--seed-size", "16",
             "--target-size", "12", "--out-prefix", f"{p}/ulm"],
            ["compare", "--vocab", f"bpe={p}/bpe.vocab.json", "--vocab", f"ulm={p}/ulm.vocab.json",
             "--out", f"{p}/m.csv"],
            ["premium", "--tokenizer", f"bpe=bpe:{p}/bpe.vocab.json:{p}/bpe.merges.json",
             "--tokenizer", f"ulm=ulm:{p}/ulm.probs.json", "--pair", f"xx:Latn:{eng}:{tgt}",
             "--out", f"{p}/p.csv"],
        ]
        script = (
            "import json, sys\n"
            "from tokenlens.cli import main\n"
            "after_import = 'numpy' in sys.modules\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([after_import, codes, 'numpy' in sys.modules]))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(tokenlens.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", script, json.dumps(runs)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
        ).stdout
        assert json.loads(out.splitlines()[-1]) == [False, [0, 0, 0, 0], False]

    def test_every_traced_name_exists(self):
        # perfbench/spans.py traces by module attribute and records a name
        # that is gone as missing, so a rename would silently drop its
        # per-layer metrics from the benchmark.
        spans = load_perfbench_spans()
        names = [(module, attr) for module, attr, _, _ in spans.PLAIN_WRAPS]
        names += [(module, "ordered_map") for module in spans.ORDERED_MAP_USERS]
        names += [("tokenlens.cli", attr) for attr in spans.HANDLE_FACTORIES]
        missing = [
            f"{module}.{attr}"
            for module, attr in names
            if not hasattr(importlib.import_module(module), attr)
        ]
        assert missing == []

    def test_traced_commands_take_every_count(self, tmp_path, byte_level_files):
        # A count that raises is recorded, not raised, and drops its
        # per-layer metric from the benchmark, so every command runs here
        # under the benchmark's tracing and every counted span must appear.
        spans = load_perfbench_spans()
        p = str(tmp_path)
        bf = byte_level_files
        corpus = write_text(tmp_path / "c.txt", "she_shakes_shoes\nshe_sells\n")
        eng = write_text(tmp_path / "eng.txt", "shoes\n")
        tgt = write_text(tmp_path / "tgt.txt", "shakes\n")
        model = ["--tokenizer", bf["tok"], "--embeddings", bf["embeddings"], "--encoder", "toy:0:1:3"]
        runs = [
            ["train", "--algorithm", "bpe", "--corpus", corpus, "--min-pair-freq", "2",
             "--out-prefix", f"{p}/bpe"],
            ["train", "--algorithm", "wordpiece", "--corpus", corpus, "--target-size", "14",
             "--out-prefix", f"{p}/wp"],
            ["train", "--algorithm", "ulm", "--corpus", corpus, "--seed-size", "16",
             "--target-size", "12", "--out-prefix", f"{p}/ulm"],
            ["compare", "--vocab", f"bpe={p}/bpe.vocab.json", "--vocab", f"ulm={p}/ulm.vocab.json",
             "--breakdown", f"{p}/b.tsv", "--out", f"{p}/m.csv"],
            ["premium", "--tokenizer", f"bpe=bpe:{p}/bpe.vocab.json:{p}/bpe.merges.json",
             "--tokenizer", f"ulm=ulm:{p}/ulm.probs.json", "--pair", f"xx:Latn:{eng}:{tgt}",
             "--out", f"{p}/p.csv"],
            ["augment", *model, "--grid", "knn:1@1,linreg@1,local:3@1", "--corpus", bf["corpus"],
             "--out", f"{p}/plan.json"],
            ["eval", *model, "--plan", f"{p}/plan.knn1-l1.json", "--last-layer", "1",
             "--corpus", f"c={bf['corpus']}", "--out", f"{p}/sim.csv"],
        ]
        tracer = spans.Tracer(run_id="test")
        undo = spans.install(tracer)
        try:
            codes = [main(argv) for argv in runs]
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)
        assert codes == [0] * len(runs)
        assert tracer.missing == {}
        assert [span for span in tracer.spans if span[5] and "count_error" in span[5]] == []
        counted = {name for _, _, name, counts in spans.PLAIN_WRAPS if counts is not None}
        assert counted - {span[2] for span in tracer.spans} == set()

    def test_traced_augment_spans_each_grid_cell_once(self, tmp_path, byte_level_files):
        # The benchmark's embedding.derive_calls counts derive_knn,
        # derive_linreg and derive_local_linreg spans, so every cell, linreg
        # included, must run through its public derive function, once.
        spans = load_perfbench_spans()
        bf = byte_level_files
        tracer = spans.Tracer(run_id="test")
        undo = spans.install(tracer)
        try:
            rc = main(["augment", "--tokenizer", bf["tok"], "--embeddings", bf["embeddings"],
                       "--encoder", "toy:0:1:3", "--grid", "knn:1@1,linreg@1,local:3@1",
                       "--corpus", bf["corpus"], "--out", str(tmp_path / "plan.json")])
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)
        assert rc == 0
        assert [span[2] for span in tracer.spans].count("embedding.derive") == 3

    def test_setup_child_names_exist(self):
        # perfbench/setup_child.py loads every workload file through
        # tokenlens.NAME, and a name that is gone fails each setup_s run.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "perfbench", "setup_child.py"), encoding="utf-8") as f:
            tree = ast.parse(f.read())
        names = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "tl"
        }
        assert "read_matrix" in names and "toy_encoder" in names
        assert sorted(name for name in names if not hasattr(tokenlens, name)) == []

    def test_traced_eval_counts_each_sentence_and_plan(self, tmp_path, byte_level_files):
        # The benchmark reads embedding.eval_sentences as eval_similarity's
        # calls and embedding.unchanged_sentences as those returning exactly
        # 1.0, so eval must call it once per (sentence, plan), touched or not.
        spans = load_perfbench_spans()
        p = str(tmp_path)
        bf = byte_level_files
        model = ["--tokenizer", bf["tok"], "--embeddings", bf["embeddings"], "--encoder", "toy:0:1:3"]
        assert main(["augment", *model, "--grid", "knn:1@1,linreg@1", "--corpus", bf["corpus"],
                     "--out", f"{p}/plan.json"]) == 0
        corpus = write_text(tmp_path / "c.txt", "aé\nab\n")  # both plans touch the first line only
        tracer = spans.Tracer(run_id="test")
        undo = spans.install(tracer)
        try:
            rc = main(["eval", *model, "--plan", f"{p}/plan.knn1-l1.json", "--plan", f"{p}/plan.linreg-l1.json",
                       "--last-layer", "1", "--corpus", f"c={corpus}", "--out", f"{p}/sim.csv"])
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)
        assert rc == 0
        stats = spans.SpanStats()
        stats.add({"spans": tracer.spans, "missing": tracer.missing})
        metrics, _ = spans.layer_metrics(stats)
        assert (metrics["embedding.eval_sentences"], metrics["embedding.unchanged_sentences"]) == (4, 2)

    def test_traced_new_fraction_runs_no_encode(self, tmp_path, byte_level_files):
        # --report-new-fraction reads the counts corpus_similarity took from
        # the items it encoded for the similarity column, so no bpe_encode
        # runs for the fraction and fraction_new_tokens never runs in eval.
        spans = load_perfbench_spans()
        p = str(tmp_path)
        bf = byte_level_files
        model = ["--tokenizer", bf["tok"], "--embeddings", bf["embeddings"], "--encoder", "toy:0:1:3"]
        assert main(["augment", *model, "--grid", "knn:1@1,linreg@1", "--corpus", bf["corpus"],
                     "--out", f"{p}/plan.json"]) == 0
        corpus = write_text(tmp_path / "c.txt", "aé\nab\n")
        tracer = spans.Tracer(run_id="test")
        undo = spans.install(tracer)
        try:
            rc = main(["eval", *model, "--plan", f"{p}/plan.knn1-l1.json", "--plan", f"{p}/plan.linreg-l1.json",
                       "--last-layer", "1", "--corpus", f"c={corpus}", "--report-new-fraction",
                       "--out", f"{p}/sim.csv"])
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)
        assert rc == 0
        by_id = {span[0]: span for span in tracer.spans}

        def under_fraction(span):
            while span[1]:
                span = by_id[span[1]]
                if span[2] == "embedding.fraction_new_tokens":
                    return True
            return False

        encodes = [span for span in tracer.spans if span[2] == "training.bpe_encode"]
        assert len(encodes) == 4
        assert [span for span in encodes if under_fraction(span)] == []
        assert [span[2] for span in tracer.spans].count("embedding.fraction_new_tokens") == 0

    def test_lazy_embedding_names_match_the_module(self):
        import tokenlens.embedding

        assert set(tokenlens._EMBEDDING_NAMES) == set(tokenlens.embedding.__all__)

    def test_package_loads_embedding_names_on_first_use(self):
        import tokenlens.embedding

        assert tokenlens.read_matrix is tokenlens.embedding.read_matrix
        assert tokenlens.toy_encoder is tokenlens.embedding.toy_encoder
        namespace: dict = {}
        exec("from tokenlens import *", namespace)
        assert namespace["read_matrix"] is tokenlens.embedding.read_matrix
        assert namespace["bpe_train"] is tokenlens.bpe_train
        with pytest.raises(AttributeError):
            tokenlens.no_such_name
