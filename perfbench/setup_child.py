"""Load everything a workload reads through the public tokenlens loaders,
then exit. Its wall time is the benchmark's setup_s.

    python3 perfbench/setup_child.py LOADS_JSON

LOADS_JSON names the files by kind: "bpe" [vocab, merges, byte_input],
"vocab", "ulm" (log-prob JSON), "matrix", "corpus", "pair" [eng, tgt] and
"toy" [seed, depth, dim].
"""

from __future__ import annotations

import json
import sys


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as f:
        loads = json.load(f)
    import tokenlens as tl

    for vocab_path, merges_path, byte_input in loads.get("bpe", []):
        v = tl.load_vocab(vocab_path)
        tl.bpe_tokenizer("t", v, tl.load_merges(merges_path, v), byte_input=byte_input)
    for path in loads.get("vocab", []):
        tl.load_vocab(path)
    for path in loads.get("ulm", []):
        with open(path, encoding="utf-8") as f:
            probs = json.load(f)
        tl.ulm_tokenizer("t", tl.UnigramVocab({t: float(lp) for t, lp in probs.items()}, check=False))
    for path in loads.get("matrix", []):
        tl.read_matrix(path)
    for path in loads.get("corpus", []):
        tl.load_corpus(path)
    for eng, tgt in loads.get("pair", []):
        tl.load_parallel_corpus(eng, tgt, "x")
    for seed, depth, dim in loads.get("toy", []):
        tl.toy_encoder(seed, depth, dim)
    return 0


if __name__ == "__main__":
    sys.exit(main())
