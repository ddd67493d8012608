"""Every parse outcome of a seeded corpus, pinned by one SHA-256.

The corpus is about 5,000 random strings over the parser's token alphabet
and a few larger pieces (1 to 12 pieces each), plus 200 expressions of the
benchmark's `normalize` shape.  An outcome is the parsed element rendered
(its terms sorted) or the `ParseError` text with its column.  A parser
change that must keep every outcome leaves the digest alone; a change that
alters outcomes on purpose re-records it and says which entries changed.
"""

import hashlib
import random

from qonsager import cli
from qonsager.words import render_poly

ALPHABET = ("0", "1", "2", "7", "12", "Gt", "G", "W", "q", "^", "[", "]",
            "(", ")", "+", "-", "*", "/", " ", "\t")
PIECES = ("W[1]", "q^-1", "[2]q", "(q - q^-1)", "$", "é", "10001")

# the benchmark's normalize stream: letters with W indices -3..4 and G/Gt
# indices 1..4, with their degrees, and its five scalar forms
LETTERS = ([(f"W[{n}]", 1 - 2 * n if n <= 0 else 2 * n - 1) for n in range(-3, 5)]
           + [(f"{fam}[{n}]", 2 * n) for fam in ("G", "Gt") for n in range(1, 5)])
SCALARS = ("{i}", "q^{k}", "[{n}]q", "(q - q^-1)", "1/(q^2 + q^-2)")

DIGEST = "5113b2d541978390a4919aecf32eb96b3fda35c00e7bef5618e2e279cfdfda3b"


def random_string(rng):
    choices = ALPHABET + PIECES
    return "".join(rng.choice(choices) for _ in range(rng.randint(1, 12)))


def bench_expression(rng, i, max_degree=12):
    terms = []
    for j in range(1 + i % 3):
        scalar = SCALARS[(i + j) % len(SCALARS)].format(
            i=rng.randint(1, 9), k=rng.randint(-3, 3), n=rng.randint(2, 4))
        length = 2 + (i // 3 + j) % 3
        while True:
            letters = [rng.choice(LETTERS) for _ in range(length)]
            if sum(d for _, d in letters) <= max_degree:
                break
        terms.append(scalar + "*" + "*".join(text for text, _ in letters))
    return " + ".join(terms)


def corpus():
    rng = random.Random("parse-corpus")
    return ([random_string(rng) for _ in range(5000)]
            + [bench_expression(rng, i) for i in range(200)])


def outcome(text):
    try:
        return render_poly(cli.parse_to_poly(text))
    except cli.ParseError as exc:
        return f"ParseError: {exc}"


def corpus_digest(texts):
    digest = hashlib.sha256()
    for text in texts:
        digest.update(f"{text!r}\t{outcome(text)}\n".encode())
    return digest.hexdigest()


def test_corpus_mixes_parses_and_errors():
    outcomes = [outcome(t) for t in corpus()]
    parsed = sum(not o.startswith("ParseError: ") for o in outcomes)
    # every bench expression parses, and so do some random strings
    assert 200 < parsed < len(outcomes) - 1000


def test_parse_outcomes_are_pinned():
    assert corpus_digest(corpus()) == DIGEST
