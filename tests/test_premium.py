"""Token-count premium over parallel corpora."""

import json

import pytest

from tokenlens.errors import OovCharacterError, ToolkitError
from tokenlens.premium import (
    PremiumReport,
    _byte_aliases,
    bpe_tokenizer,
    premium,
    premium_matrix,
    ulm_tokenizer,
    write_premium_csv,
    write_premium_json,
)
from tokenlens.text import ParallelCorpus, load_parallel_corpus
from tokenlens.training import UnigramVocab, bpe_train
from tokenlens.vocab import MergeRuleList, Vocabulary


@pytest.fixture(scope="module")
def worked_tok():
    vocab, rules = bpe_train(["she_shakes_shoes"], min_pair_freq=2)
    return bpe_tokenizer("worked", vocab, rules)


def corpus(pairs, lang="xx", script="Test"):
    return ParallelCorpus(pairs=tuple(pairs), target_lang=lang, target_script=script)


class TestTokenizerHandles:
    def test_bpe_handle_counts(self, worked_tok):
        assert len(worked_tok.encode("shoes")) == 3
        assert len(worked_tok.encode("shakes")) == 4

    def test_ulm_handle_counts(self):
        uv = UnigramVocab.from_probs({"a": 0.4, "b": 0.4, "ab": 0.2})
        tok = ulm_tokenizer("u", uv)
        assert tok.encode("ab") == [uv.id_of("ab")]

    def test_byte_input_aliases_utf8_bytes(self):
        # The alias of the space byte is the same character byte-level BPE
        # vocabularies spell it with.
        vocab = Vocabulary(["Ġ".encode("utf-8"), b"a"])
        tok = bpe_tokenizer("bytes", vocab, MergeRuleList(), byte_input=True)
        assert tok.encode(" a") == [0, 1]

    def test_without_byte_input_raw_space_is_oov(self):
        vocab = Vocabulary(["Ġ".encode("utf-8"), b"a"])
        tok = bpe_tokenizer("chars", vocab, MergeRuleList())
        with pytest.raises(OovCharacterError):
            tok.encode(" a")

    def test_byte_input_multibyte_char(self):
        # é is \xc3\xa9; both bytes alias to themselves as latin-1 chars
        vocab = Vocabulary(["Ã".encode("utf-8"), "©".encode("utf-8")])
        tok = bpe_tokenizer("bytes", vocab, MergeRuleList(), byte_input=True)
        assert len(tok.encode("é")) == 2


def byte_vocab(without: int | None = None) -> Vocabulary:
    """Every byte's alias, id = byte value; one byte's alias can be left
    out, which shifts the ids after it."""
    aliases = _byte_aliases()
    return Vocabulary([aliases[b].encode("utf-8") for b in range(256) if b != without])


class TestByteInput:
    def test_every_byte_class_aliases_to_its_token(self):
        # ASCII controls, space, DEL, NBSP and soft hyphen are remapped;
        # printable ASCII and latin-1 bytes alias to themselves.
        tok = bpe_tokenizer("bytes", byte_vocab(), MergeRuleList(), byte_input=True)
        text = "\x00\t a~\x7f\u00a0\u00ad\u00e9न"
        assert tok.encode(text) == list(text.encode("utf-8"))

    @pytest.mark.parametrize(
        "missing, text, char, offset",
        [
            (ord("z"), "नमz", "z", 2),  # offsets count characters, not bytes
            (0xE0, "abन", "न", 2),  # lead byte: name the character, not its alias
            (0xA4, "aनb", "न", 1),  # continuation byte
        ],
    )
    def test_oov_reports_text_character_and_offset(self, missing, text, char, offset):
        tok = bpe_tokenizer("bytes", byte_vocab(without=missing), MergeRuleList(), byte_input=True)
        with pytest.raises(OovCharacterError) as exc:
            tok.encode(text)
        assert (exc.value.char, exc.value.offset) == (char, offset)


class TestPremium:
    def test_hand_corpus_mean_and_totals(self, worked_tok):
        pc = corpus([("shoes", "shakes"), ("sho", "shoe_shoe"), ("he", "ash")])
        rep = premium(worked_tok, pc)
        assert rep.ratios == [4 / 3, 3.0, 1.0]
        assert rep.mean_ratio == sum([4 / 3, 3.0, 1.0]) / 3
        assert rep.totals_ratio == (4 + 6 + 2) / (3 + 2 + 2)
        assert rep.n_pairs == 3
        assert rep.n_skipped == 0

    def test_language_paired_with_itself_is_exactly_one(self, worked_tok):
        pc = corpus([("shoes", "shoes"), ("she_shakes", "she_shakes")])
        rep = premium(worked_tok, pc)
        assert rep.mean_ratio == 1.0
        assert rep.totals_ratio == 1.0

    def test_oov_pairs_skipped_and_counted(self, worked_tok):
        pc = corpus([("shoes", "shakes"), ("box", "shoe")])
        rep = premium(worked_tok, pc)
        assert rep.n_pairs == 1
        assert rep.n_skipped == 1
        assert rep.mean_ratio == 4 / 3

    def test_empty_target_pairs_skipped_and_counted(self, worked_tok):
        pc = corpus([("shoes", "shakes"), ("shoes", "")])
        rep = premium(worked_tok, pc)
        assert (rep.n_pairs, rep.n_skipped) == (1, 1)
        assert rep.ratios == [4 / 3]

    def test_empty_english_line_skipped_and_counted(self, tmp_path, worked_tok):
        eng = tmp_path / "eng.txt"
        tgt = tmp_path / "tgt.txt"
        eng.write_text("shoes\n\nhe\n", encoding="utf-8")
        tgt.write_text("shakes\nshoe\nash\n", encoding="utf-8")
        rep = premium(worked_tok, load_parallel_corpus(str(eng), str(tgt), "xx"))
        assert (rep.n_pairs, rep.n_skipped) == (2, 1)
        assert rep.ratios == [4 / 3, 1.0]

    def test_all_pairs_skipped_is_error(self, worked_tok):
        pc = corpus([("xyz", "shoe"), ("shoe", "qqq")])
        with pytest.raises(ToolkitError):
            premium(worked_tok, pc)

    def test_report_value_selects_aggregate(self):
        rep = PremiumReport(
            target_lang="xx",
            target_script="",
            tokenizer="t",
            mean_ratio=2.0,
            totals_ratio=3.0,
            n_pairs=1,
            n_skipped=0,
        )
        assert rep.value("ratios") == 2.0
        assert rep.value("totals") == 3.0


class TestPremiumMatrix:
    @pytest.fixture()
    def setup(self, worked_tok):
        corpora = [
            corpus([("shoes", "shakes")], lang="aaa", script="Latn"),
            corpus([("shoes", "box")], lang="bbb", script="Latn"),
        ]
        return [worked_tok], corpora

    def test_shape_and_none_cells(self, setup):
        toks, corpora = setup
        m = premium_matrix(toks, corpora)
        assert m.languages == [("aaa", "Latn"), ("bbb", "Latn")]
        assert m.tokenizers == ["worked"]
        assert m.cells[0][0] is not None
        assert m.cells[0][0].mean_ratio == 4 / 3
        assert m.cells[1][0] is None  # "box" is unencodable, every pair skipped

    def test_validation(self, setup):
        toks, corpora = setup
        with pytest.raises(ToolkitError):
            premium_matrix([], corpora)
        with pytest.raises(ToolkitError):
            premium_matrix(toks, [])
        with pytest.raises(ToolkitError):
            premium_matrix(toks, corpora, aggregate="median")


class TestPremiumFiles:
    @pytest.fixture()
    def matrix(self, worked_tok):
        corpora = [
            corpus([("shoes", "shakes")], lang="aaa", script="Latn"),
            corpus([("shoes", "box")], lang="bbb", script="Latn"),
        ]
        return premium_matrix([worked_tok], corpora)

    def test_csv_two_decimals_and_na(self, matrix, tmp_path):
        path = str(tmp_path / "premium.csv")
        write_premium_csv(matrix, path, manifest_digest="ab" * 32)
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        assert lines[0] == "# manifest: " + "ab" * 32
        assert lines[1] == "language,script,worked"
        assert lines[2] == "aaa,Latn,1.33"
        assert lines[3] == "bbb,Latn,NA"

    def test_json_full_precision_and_verbose(self, matrix, tmp_path):
        path = str(tmp_path / "premium.json")
        write_premium_json(matrix, path, manifest={"args": ["x"]}, verbose=True)
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        cell = doc["rows"][0]["cells"]["worked"]
        assert cell["mean_ratio"] == 4 / 3
        assert cell["ratios"] == [4 / 3]
        assert doc["rows"][1]["cells"]["worked"] is None
        assert doc["manifest"] == {"args": ["x"]}

    def test_json_omits_ratios_by_default(self, matrix, tmp_path):
        path = str(tmp_path / "premium.json")
        write_premium_json(matrix, path)
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        assert "ratios" not in doc["rows"][0]["cells"]["worked"]
        assert "manifest" not in doc
