"""Golden corpus: stdout and exit code of fixed CLI invocations, byte for byte.

Each entry of ``golden.json`` was frozen before the refactor it guards;
every later change must reproduce it exactly.  The regenerator writes only
the cases missing from the corpus, so a refactor cannot re-freeze output.
For a deliberate output change, delete that entry, regenerate, and name
the change in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from radolab.cli import main

CORPUS = pathlib.Path(__file__).with_name("golden.json")

INVOCATIONS = [
    "construct-pi02 --seed {s} --family substantial --levels 2 --prefix-bound 1000000",
    "construct-thick --seed {s} --blocks 3 --prefix-bound 200000",
    "construct-thick --seed {s} --blocks 4 --prefix-bound 1000000",
    "sample-mup --seed {s} --p 1/2 --prefix-bound 20000",
    "density --seed {s} --host mup:1/2 --prefix-bound 1000000",
    "typefreq --seed {s} --f 1-4 --bound 100000",
    "extension --seed {s} --f 1-8 --bound 4096",
    "type --seed {s} --m 100 --base 1-10",
    "gfree-max --seed {s} --window 1-16 --pattern k:3",
    "dyadic-audit --seed {s} --pattern k:2 --n-param 3 --k-from 2 --k-to 6",
]
EXTRA = [
    "construct-pi02 --seed 7 --family substantial --levels 3 --prefix-bound 1000000",
    "sample-mup --seed 3 --p 1/3 --prefix-bound 5000",
    "typefreq --seed 1 --f 2,5,9 --mask 101 --bound 50000",
    "type --seed 3 --m 500 --base 1-100",
    "thick --seed 7 --host mup:1/2 --prefix-bound 100000",
    "sum --seed 7 --host mup:1/2 --prefix-bound 100000",
    "adj --seed 7 --host 1-40",
    "contains --seed 1 --host 1-64 --pattern petersen",
    "contains --seed 1 --host 1-10 --pattern k:5",
    "contains --seed 1 --host 1-64 --pattern k:5 --budget 3",
    "audit-weak --seed 1 --host 1-512 --kmax 5",
    "audit-weak --seed 1 --host 1-512 --kmax 6",
    "mc-gfree --seed 1 --pattern k:3 --n 8 --trials 2000",
    "mc-fn --seed 1 --pattern k:3 --n-list 8,12,20 --n-param 1 --trials 50",
    "gfree-max --seed 1 --window 1-60 --pattern c:4 --mode greedy",
    "dyadic-audit --seed 1 --pattern k:3 --n-param 2 --k-from 2 --k-to 8",
    "embed --seed 1 --target petersen --host 1-2000",
    "embed --seed 1 --target e:50 --host 1-300",
    "embed --seed 1 --target e:12 --host 1-300 --backtrack --candidate-cap 4",
    "construct-thick-copy --seed 1 --target petersen --blocks 3 --prefix-bound 100000",
    "construct-thick-copy --seed 1 --target k:10 --blocks 4 --prefix-bound 1000",
    "construct-thick --seed 1 --blocks 5 --prefix-bound 10000",
    "mc-density --seed 1 --k 2 --n 3 --pool 500 --trials 5",
    "mc-density --seed 1 --k 2 --n 3 --pool 500 --trials 5 --format csv",
    "mc-gfree --seed 1 --pattern k:3 --n 5 --trials 300 --c 0.1 --format csv",
    "mc-fn --seed 1 --pattern k:3 --n-list 1,8,12 --n-param 1 --trials 20 --format csv",
    "ap --seed 1 --host mup:1/2 --prefix-bound 2000",
    "edge --seed 5 -u 3 -v 9 --probability 1/3",
    "extension --seed 1 --f 1-8 --bound 300",
    "construct-thick --seed 1 --blocks 3 --probability 1/3 --prefix-bound 200000",
    "construct-thick --seed 1 --blocks 4 --probability 1/3 --prefix-bound 3000",
    "construct-thick-copy --seed 2 --target petersen --blocks 3 --probability 1/3 --prefix-bound 100000",
    "construct-thick-copy --seed 1 --target e:10 --blocks 4 --probability 1/3 --prefix-bound 3000",
    "embed --seed 9 --target e:1 --host 1-256 --score-horizon 16 --candidate-cap 40",
    "construct-pi02 --seed 1 --family power:0.5 --levels 2 --prefix-bound 100000",
    "sum --seed 7 --host mup:1/2 --prefix-bound 100000 --weight power:0.5",
    "contains --seed 1 --host 1-10 --pattern e:0",
    "gfree-max --seed 1 --window 1-400 --pattern k:4 --mode greedy",
    "gfree-max --seed 3 --window 1-30 --pattern p:3",
    "gfree-max --seed 2 --window 1-24 --pattern e:3",
    "mc-fn --seed 2 --pattern c:4 --n-list 10,18 --n-param 1 --trials 10",
    "gfree-max --seed 1 --window 1-100 --pattern k:8 --mode greedy",
    "mc-fn --seed 1 --pattern k:8 --n-list 1,2 --n-param 5 --trials 2",
    "construct-pi02 --seed 4 --family substantial --levels 3 --prefix-bound 1000000",
    "construct-pi02 --seed 3 --family power:0.5 --levels 3 --prefix-bound 100000",
    "construct-thick-copy --seed 3 --target petersen --blocks 4 --prefix-bound 300000",
    "gfree-max --seed 1 --window 1-2000 --pattern k:5 --mode greedy",
    "gfree-max --seed 3 --window 1-24 --pattern c:5",
    "gfree-max --seed 2 --window 1-24 --pattern k:4",
    "mc-fn --seed 3 --pattern p:4 --n-list 12,16 --n-param 1 --trials 20",
    "gfree-max --seed 1 --window 1-20 --pattern k:8",
    "mc-fn --seed 1 --pattern k:8 --n-list 12 --n-param 1 --trials 2",
    "ap --seed 2 --host mup:1/2 --prefix-bound 9800",
    "ap --seed 1 --host 1-3,10-12,20-22,31",
    "ap --seed 1 --host 1,5,9,13,1000000",
    "ap --seed 1 --host 2,4,6,11,13,15",
    "typefreq --seed 1 --probability 1/3 --f 2,5,9 --mask 010 --bound 50000",
    "typefreq --seed 1 --probability 3/4 --f 1-6 --bound 20000",
    "mc-gfree --seed 1 --pattern k:3 --n 7 --trials 20000",
    "mc-gfree --seed 1 --pattern c:7 --n 7 --trials 2000",
    "typefreq --seed 1 --f 1-63 --bound 100",
    "extension --seed 3 --probability 1/3 --f 1-6 --bound 70000",
    "extension --seed 4 --probability 1 --f 1-3 --bound 70000",
    "mc-density --seed 1 --k 3 --n 2 --pool 70000 --trials 3",
    "audit-weak --seed 1 --host 1-64 --kmax 3 --budget 1",
]
CASES = [line.format(s=s) for line in INVOCATIONS for s in (7, 1)] + EXTRA


def run_cli(line: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(line.split())
    return code, out.getvalue()


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text(encoding="ascii"))


def test_corpus_covers_every_case(corpus):
    assert sorted(corpus) == sorted(CASES)


@pytest.mark.parametrize("line", CASES)
def test_golden(corpus, line):
    code, stdout = run_cli(line)
    assert code == corpus[line]["exit"]
    assert stdout == corpus[line]["stdout"]


if __name__ == "__main__":
    frozen = json.loads(CORPUS.read_text(encoding="ascii")) if CORPUS.exists() else {}
    for line in CASES:
        if line in frozen:
            continue
        code, stdout = run_cli(line)
        frozen[line] = {"exit": code, "stdout": stdout}
        print(code, len(stdout), line, file=sys.stderr)
    CORPUS.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n", encoding="ascii")
