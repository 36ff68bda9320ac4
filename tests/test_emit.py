"""The CLI's JSON writer against the json.dumps reference it replaced.

``cli._write_json`` streams the envelope in one walk; its text must equal,
byte for byte, ``json.dumps(cli._jsonable(obj), sort_keys=True, indent=2)``,
the copy-then-dump path the CLI used before.
"""

import io
import json
import random
from fractions import Fraction

import pytest

from padicext import cli


def reference(obj) -> str:
    return json.dumps(cli._jsonable(obj), sort_keys=True, indent=2)


def written(obj) -> str:
    buf = io.StringIO()
    cli._write_json(obj, buf.write)
    return buf.getvalue()


def first_difference(obj):
    """None when the writer matches the reference, else both texts around
    the first differing character (a short message, where pytest's own diff
    of megabyte strings would take minutes)."""
    got, want = written(obj), reference(obj)
    if got == want:
        return None
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
              min(len(got), len(want)))
    lo = max(at - 60, 0)
    return got[lo:at + 60], want[lo:at + 60]


class Tagged(int):
    """An int subclass: _jsonable writes its str(), not its digits."""

    def __str__(self):
        return f"tag{int(self)}"


class Label(str):
    """A str subclass: json.dumps writes its characters, not its str()."""

    def __str__(self):
        return "relabelled"


CHARS = "ab%\"\\/\n\t\x00\x1f\x7fé€𝔽 "


def random_str(rng):
    return "".join(rng.choice(CHARS) for _ in range(rng.randrange(6)))


def random_leaf(rng):
    kind = rng.randrange(10)
    if kind == 0:
        return rng.choice((None, True, False))
    if kind == 1:
        return rng.randrange(-10**6, 10**6)
    if kind == 2:
        return rng.getrandbits(5000) * rng.choice((1, -1))
    if kind == 3:
        return Fraction(rng.randrange(-50, 50), rng.randrange(1, 9))
    if kind == 4:
        return rng.choice((0.5, -2.0, 1e300, Tagged(7), Label("x")))
    return random_str(rng)


def random_records(rng):
    keys = [random_str(rng) for _ in range(rng.randrange(1, 5))]
    rows = [{k: random_leaf(rng) for k in keys}
            for _ in range(rng.randrange(1, 5))]
    flaw = rng.randrange(5)
    if flaw == 0:  # one element differs in one key
        rows[-1][random_str(rng) + "!"] = rows[-1].pop(keys[0])
    elif flaw == 1:  # or in one value's type
        rows[-1][keys[0]] = rng.choice((Fraction(1, 3), (1,), {"k": 1}))
    elif flaw == 2:  # or in one key's type, though the key compares equal
        rows[-1][Label(keys[0])] = rows[-1].pop(keys[0])
    return rows


def random_tree(rng, depth=0):
    kind = rng.randrange(10) if depth < 4 else 0
    if kind <= 2:
        return random_leaf(rng)
    if kind == 3:
        return {random_str(rng): random_tree(rng, depth + 1)
                for _ in range(rng.randrange(4))}
    if kind == 4:  # non-str keys, colliding with str ones as "1" and 1 do
        return {rng.choice((1, "1", -2, None, True, Label("k"))):
                random_tree(rng, depth + 1) for _ in range(rng.randrange(4))}
    if kind == 5:
        return [random_tree(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 6:
        return tuple(random_tree(rng, depth + 1)
                     for _ in range(rng.randrange(3)))
    if kind == 7:
        return rng.choice((set, frozenset))(
            rng.choice((random_str(rng), rng.randrange(-9, 9)))
            for _ in range(rng.randrange(4)))
    if kind == 8:
        return random_records(rng)
    return rng.choice(({}, [], (), set()))


def test_random_trees_match_the_reference():
    rng = random.Random(25)
    for _ in range(400):
        tree = {"command": "t", "body": random_tree(rng)}
        assert first_difference(tree) is None, tree


@pytest.mark.parametrize("point", [(2, 7, 1, 1), (5, 3, 1, 1)])
def test_module_envelopes_match_the_reference(point):
    flags = [f"--{name}={value}" for name, value
             in zip(("p", "ell", "eK", "fK"), point)]
    args = cli.build_parser().parse_args(["module", *flags])
    body, _, _ = args.handler(args)
    envelope = {"command": "module", **body}
    assert first_difference(envelope) is None
