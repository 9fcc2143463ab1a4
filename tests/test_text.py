"""Corpus loading, table writing and Unicode character utilities."""

import random
import re

import pytest

from tokenlens.errors import ToolkitError
from tokenlens.text import (
    char_byte_len,
    load_corpus,
    load_parallel_corpus,
    recover_utf8_chars,
    unicode_block,
    write_table,
)


class TestLoadCorpus:
    def test_one_document_per_line(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("first\nsecond\nthird\n", encoding="utf-8")
        corpus = load_corpus(str(p))
        assert list(corpus) == ["first", "second", "third"]

    def test_empty_lines_dropped_order_kept(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("a\n\n\nb\n\nc", encoding="utf-8")
        assert list(load_corpus(str(p))) == ["a", "b", "c"]

    def test_crlf_normalized(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_bytes(b"one\r\ntwo\r\n")
        assert list(load_corpus(str(p))) == ["one", "two"]

    def test_invalid_utf8_reports_byte_offset(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_bytes(b"ok\n\xff\xfe bad")
        msg = f"{p}: invalid UTF-8 at byte offset 3: invalid start byte"
        with pytest.raises(ToolkitError, match=f"^{re.escape(msg)}$"):
            load_corpus(str(p))


    @pytest.mark.parametrize("content", [b"", b"\n\r\n\n"])
    def test_corpus_without_a_nonempty_line_names_the_file(self, tmp_path, content):
        p = tmp_path / "c.txt"
        p.write_bytes(content)
        with pytest.raises(ToolkitError, match=f"^{re.escape(str(p))}: corpus is empty$"):
            load_corpus(str(p))


class TestLoadParallelCorpus:
    def test_pairs_align(self, tmp_path):
        e = tmp_path / "eng.txt"
        t = tmp_path / "tgt.txt"
        e.write_text("hello\nworld\n", encoding="utf-8")
        t.write_text("salut\nmonde\n", encoding="utf-8")
        pc = load_parallel_corpus(str(e), str(t), "fra", "Latn")
        assert pc.pairs == (("hello", "salut"), ("world", "monde"))
        assert pc.target_lang == "fra"

    def test_line_count_mismatch(self, tmp_path):
        e = tmp_path / "eng.txt"
        t = tmp_path / "tgt.txt"
        e.write_text("a\nb\n", encoding="utf-8")
        t.write_text("x\n", encoding="utf-8")
        msg = f"parallel line counts differ: {e} has 2, {t} has 1"
        with pytest.raises(ToolkitError, match=f"^{re.escape(msg)}$"):
            load_parallel_corpus(str(e), str(t), "fra")

    def test_every_pair_kept_in_file_order(self, tmp_path):
        e = tmp_path / "eng.txt"
        t = tmp_path / "tgt.txt"
        e.write_text("a\n\nc\n\n", encoding="utf-8")
        t.write_text("x\ny\n\n\n", encoding="utf-8")
        pc = load_parallel_corpus(str(e), str(t), "fra")
        assert pc.pairs == (("a", "x"), ("", "y"), ("c", ""), ("", ""))

    def test_empty_target_side_kept(self, tmp_path):
        e = tmp_path / "eng.txt"
        t = tmp_path / "tgt.txt"
        e.write_text("a\n", encoding="utf-8")
        t.write_text("\n", encoding="utf-8")
        pc = load_parallel_corpus(str(e), str(t), "fra")
        assert pc.pairs == (("a", ""),)


class TestWriteTable:
    def test_manifest_line_then_rows(self, tmp_path):
        path = str(tmp_path / "t.csv")
        write_table(path, [["", "a,b"], ["x", 0.5]], manifest_digest="ab12")
        with open(path, "rb") as f:
            assert f.read() == b'# manifest: ab12\n,"a,b"\nx,0.5\n'

    def test_no_digest_no_comment_and_tab_delimiter(self, tmp_path):
        path = str(tmp_path / "t.tsv")
        write_table(path, [["a", 1], ["b", 2]], delimiter="\t")
        with open(path, "rb") as f:
            assert f.read() == b"a\t1\nb\t2\n"


class TestUnicodeBlock:
    def test_basic_latin(self):
        assert unicode_block("a") == "Basic Latin"

    def test_latin_1_supplement(self):
        assert unicode_block("é") == "Latin-1 Supplement"

    def test_bengali(self):
        assert unicode_block("ক") == "Bengali"

    def test_unassigned_gap(self):
        assert unicode_block("⿠") == "No_Block"

    def test_extremes(self):
        assert unicode_block("\x00") == "Basic Latin"
        assert unicode_block("\U0010FFFF") == "Supplementary Private Use Area-B"

    def test_rejects_strings(self):
        with pytest.raises(ValueError):
            unicode_block("ab")


class TestCharByteLen:
    @pytest.mark.parametrize(
        "ch,n", [("a", 1), ("é", 2), ("€", 3), ("\U0001D11E", 4), ("ক", 3)]
    )
    def test_known_widths(self, ch, n):
        assert char_byte_len(ch) == n

    def test_matches_encoded_length_for_random_chars(self):
        rng = random.Random(7)
        for _ in range(300):
            cp = rng.randrange(0, 0x110000)
            if 0xD800 <= cp <= 0xDFFF:
                continue
            ch = chr(cp)
            assert char_byte_len(ch) == len(ch.encode("utf-8"))
            assert 1 <= char_byte_len(ch) <= 4

    def test_rejects_strings(self):
        with pytest.raises(ValueError):
            char_byte_len("ab")


class TestRecoverUtf8Chars:
    def test_already_valid(self):
        assert recover_utf8_chars(b"ab") == {"a", "b"}

    def test_leading_garbage_trimmed(self):
        assert recover_utf8_chars(bytes([0xA9]) + b"ab") == {"a", "b"}

    def test_lone_continuation_byte_unrecoverable(self):
        assert recover_utf8_chars(bytes([0xC3])) == set()

    def test_single_valid_byte_below_minimum(self):
        # at least 2 bytes must remain, so 1-byte inputs never recover
        assert recover_utf8_chars(b"a") == set()

    def test_trailing_garbage_trimmed(self):
        assert recover_utf8_chars("é".encode("utf-8") + bytes([0xFF])) == {"é"}

    def test_both_ends_trimmed(self):
        data = bytes([0xF0, 0x9F]) + "ab".encode("utf-8") + bytes([0x80])
        assert recover_utf8_chars(data) == {"a", "b"}

    def test_trim_budget_is_three_per_end(self):
        # 4 junk bytes up front exceed the front budget
        assert recover_utf8_chars(bytes([0xFF] * 4) + b"abcd") == set()
        assert recover_utf8_chars(bytes([0xFF] * 3) + b"abcd") == {"a", "b", "c", "d"}

    def test_recovered_subset_of_embedded_chars(self):
        rng = random.Random(11)
        pool = "abcdéßλ語紙𝄞"
        for _ in range(200):
            core = "".join(rng.choice(pool) for _ in range(rng.randrange(2, 8)))
            # junk pools chosen so junk bytes can never combine (with each
            # other or with core edges) into valid characters outside core
            junk_front = bytes(rng.choice([0xFF, 0xC3]) for _ in range(rng.randrange(0, 4)))
            junk_back = bytes(rng.choice([0xFF, 0x80]) for _ in range(rng.randrange(0, 4)))
            recovered = recover_utf8_chars(junk_front + core.encode("utf-8") + junk_back)
            assert recovered <= set(core)
