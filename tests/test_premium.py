"""Token-count premium over parallel corpora."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tokenlens.errors import OovCharacterError, ToolkitError
from tokenlens.premium import (
    PremiumReport,
    TokenizerHandle,
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


def oracle_premium(tok, pc):
    """The spec of premium: each pair encodes both of its sides, and a pair
    that cannot be encoded, or has a side of zero tokens, is skipped.
    Returns (mean_ratio, totals_ratio, n_pairs, n_skipped, n_unencodable,
    ratios), or None when every pair was skipped."""

    def counts(pair):
        eng, tgt = pair
        try:
            n_eng = len(tok.encode(eng))
            n_tgt = len(tok.encode(tgt))
        except OovCharacterError:
            return "unencodable"
        if n_eng == 0 or n_tgt == 0:
            return "empty"
        return n_tgt, n_eng

    results = [counts(pair) for pair in pc.pairs]
    kept = [r for r in results if isinstance(r, tuple)]
    if not kept:
        return None
    ratios = [n_tgt / n_eng for n_tgt, n_eng in kept]
    return (
        sum(ratios) / len(ratios),
        sum(n_tgt for n_tgt, _ in kept) / sum(n_eng for _, n_eng in kept),
        len(kept),
        len(results) - len(kept),
        results.count("unencodable"),
        ratios,
    )


def observed(rep):
    if rep is None:
        return None
    return (rep.mean_ratio, rep.totals_ratio, rep.n_pairs, rep.n_skipped,
            rep.n_unencodable, rep.ratios)


def counting(tok, calls):
    """tok with every text it encodes appended to calls."""

    def encode(text):
        calls.append(text)
        return tok.encode(text)

    return TokenizerHandle(tok.name, encode)


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


def s_counter(text):
    """A handle's encode that cannot encode any k and gives one token per
    s, so a non-empty line without an s encodes to zero tokens."""
    if "k" in text:
        raise OovCharacterError("k", text.index("k"))
    return [0] * text.count("s")


@pytest.fixture(scope="module")
def oracle_toks(worked_tok):
    # k is only ever the start of "ke": a k before anything else cannot be
    # segmented, and ULM names it as the character at fault.
    uv = UnigramVocab.from_probs(
        dict.fromkeys(["s", "h", "e", "_", "a", "o", "sh", "she", "ke", "sho"], 0.1)
    )
    return [worked_tok, ulm_tokenizer("ulm", uv), TokenizerHandle("s", s_counter)]


# x is in no vocabulary; "" encodes to zero tokens everywhere.
LINES = st.text(alphabet="she_akox", max_size=6)


@st.composite
def corpus_lists(draw):
    """1-3 corpora over a small pool of lines, so lines repeat within and
    across corpora. Each corpus pairs the shared English list with itself
    or with a target list, or brings its own English list."""
    pick = st.sampled_from(draw(st.lists(LINES, min_size=1, max_size=6)))
    n = draw(st.integers(1, 5))
    english = draw(st.lists(pick, min_size=n, max_size=n))
    corpora = []
    for k in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["shared", "self", "own"]))
        eng = draw(st.lists(pick, min_size=n, max_size=n)) if kind == "own" else english
        tgt = eng if kind == "self" else draw(st.lists(pick, min_size=n, max_size=n))
        corpora.append(corpus(zip(eng, tgt), lang=f"l{k}"))
    return corpora


class TestPremiumMatchesOracle:
    """Mutants these catch, each tried in a copy of premium.py: one table
    shared across tokenizers; a side of zero tokens counted; a side that
    cannot be encoded counted (its length stored as 0 or as its character
    count)."""

    @given(corpus_lists())
    def test_matrix_cells(self, oracle_toks, corpora):
        m = premium_matrix(oracle_toks, corpora)
        for pc, row in zip(corpora, m.cells):
            assert [observed(rep) for rep in row] == [oracle_premium(tok, pc) for tok in oracle_toks]

    @given(corpus_lists())
    def test_single_corpus(self, oracle_toks, corpora):
        for tok in oracle_toks:
            try:
                got = observed(premium(tok, corpora[0]))
            except ToolkitError:
                got = None
            assert got == oracle_premium(tok, corpora[0])

    def test_na_reason_kept(self, oracle_toks):
        corpora = [
            corpus([("shoes", "she")], lang="aaa"),
            corpus([("shoes", "sky"), ("", "she")], lang="bbb"),
        ]
        m = premium_matrix(oracle_toks, corpora)
        assert m.cells[1][0] is None
        assert m.na == {
            (1, 0): "all 2 pairs were skipped for tokenizer 'worked' (1 unencodable, 1 empty)",
            (1, 1): "all 2 pairs were skipped for tokenizer 'ulm' (1 unencodable, 1 empty)",
            (1, 2): "all 2 pairs were skipped for tokenizer 's' (1 unencodable, 1 empty)",
        }


class TestEncodesEachLineOnce:
    """Mutant this catches: one table shared across tokenizers (the second
    tokenizer is then never called)."""

    def test_matrix(self, oracle_toks):
        eng = ["shoes", "she", "shoes", "", "box"]
        corpora = [
            corpus(zip(eng, ["shakes", "she", "ash", "he", "x"]), lang="aaa"),
            corpus(zip(eng, eng), lang="eng"),
            corpus(zip(eng, ["sho"] * 5), lang="bbb"),
        ]
        calls = {tok.name: [] for tok in oracle_toks}
        premium_matrix([counting(tok, calls[tok.name]) for tok in oracle_toks], corpora)
        first_seen = ["shoes", "shakes", "she", "ash", "", "he", "box", "x", "sho"]
        assert calls == {tok.name: first_seen for tok in oracle_toks}

    def test_single_corpus(self, worked_tok):
        calls = []
        premium(counting(worked_tok, calls), corpus([("she", "she"), ("she", "shoes")]))
        assert calls == ["she", "shoes"]

    def test_given_table_encodes_nothing(self, worked_tok):
        calls = []
        pc = corpus([("shoes", "shakes"), ("x", "she")])
        rep = premium(counting(worked_tok, calls), pc, {"shoes": 3, "shakes": 4, "x": None, "she": 2})
        assert calls == []
        assert (rep.ratios, rep.n_skipped, rep.n_unencodable) == ([4 / 3], 1, 1)
