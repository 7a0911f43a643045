"""Loading raw quandle files: quandles.loads_quandle_json reads a flat list
of plain decimals under the one "rhd" key straight into int64 and hands
every other text to json.loads, so its results and errors are json.loads'."""
import json
import random

import numpy as np
import pytest

from quandle_cayley import quandles as Q
from quandle_cayley import specs
from quandle_cayley.cli import main

# inserted, deleted or overwritten by the fuzz, mostly inside the rhd list
PIECES = ("0", "1", "7", "00", "12", "123456789012345678", "1234567890123456789",
          ",", " ", "\n", "\t", "\r", "\f", "\v", "-", "+", ".", "e", "E", "[", "]", "{",
          "}", '"', ":", "\\", "é", "\u00a0", "true", "null", "rhd", '"rhd"', "NaN",
          "1e2", "-0")


def _base(rng):
    n = rng.randint(1, 4)
    obj = {"order": n, "names": [f"v{i}" for i in range(n)],
           "rhd": rng.choices(range(30), k=n * n)}
    if rng.random() < 0.3:
        obj["provenance"] = {"family": "raw"}
    keys = rng.sample(list(obj), len(obj))
    style = rng.choice([{}, {"indent": 2}, {"separators": (",", ":")}, {"indent": "\t"}])
    return json.dumps({k: obj[k] for k in keys}, **style)


def _mutate(rng, text):
    for _ in range(rng.randint(1, 3)):
        lo = text.find("[", text.find('"rhd"'))
        hi = text.find("]", lo) + 1
        pos = rng.randint(lo, max(lo, hi)) if rng.random() < 0.8 and lo >= 0 \
            else rng.randint(0, len(text))
        piece, op = rng.choice(PIECES), rng.random()
        if op < 0.4:
            text = text[:pos] + piece + text[pos:]
        elif op < 0.7:
            text = text[:pos] + text[pos + rng.randint(1, 3):]
        else:
            text = text[:pos] + piece + text[pos + len(piece):]
    return text


def _outcome(load, text):
    """("ok", the object with rhd as a list), or the exception; and
    whether rhd came back as an int64 array."""
    try:
        obj = load(text)
    except Exception as exc:
        return ("raise", type(exc), str(exc)), False
    if isinstance(obj, dict) and isinstance(obj.get("rhd"), np.ndarray):
        assert obj["rhd"].dtype == np.int64
        return ("ok", dict(obj, rhd=obj["rhd"].tolist())), True
    return ("ok", obj), False


def test_mutation_fuzz_matches_json_loads(monkeypatch):
    rng = random.Random(29)
    accepted = 0
    for _ in range(20_000):
        text = _mutate(rng, _base(rng)) if rng.random() < 0.95 else _base(rng)
        # one case in ten cuts its list into chunks of a few bytes
        monkeypatch.setattr(Q, "_RHD_CHUNK", rng.choice((1, 2, 5)) if rng.random() < 0.1
                            else 1 << 15)
        want, _ = _outcome(json.loads, text)
        got, kernel = _outcome(Q.loads_quandle_json, text)
        assert got == want, text
        accepted += kernel
    # the kernel took a good share of the cases, not just the unmutated ones
    assert accepted > 2_000


def _load_old(path):
    with open(path) as fh:
        return Q.quandle_from_json(json.load(fh))


def _load_new(path):
    return specs.build_quandle(specs.make_quandle_spec("raw", raw_path=str(path)))


def _quandle_outcome(load, path):
    try:
        q = load(path)
    except Exception as exc:
        return ("raise", type(exc), str(exc))
    return ("ok", q.rhd.tolist(), q.element_names, q.provenance, q.label)


NAMES = '"names": ["a", "b"]'
EDGE_CASES = {
    "minus zero": '{"order": 2, %s, "rhd": [-0, 0, 1, 1]}' % NAMES,
    "exponent": '{"order": 2, %s, "rhd": [0, 0, 1e0, 1]}' % NAMES,
    "exponent 1e2": '{"order": 2, %s, "rhd": [0, 0, 1, 1e2]}' % NAMES,
    "true": '{"order": 2, %s, "rhd": [true, 0, 1, 1]}' % NAMES,
    "float": '{"order": 2, %s, "rhd": [0.0, 0, 1, 1]}' % NAMES,
    "19 digits in range of int64": '{"order": 2, %s, "rhd": [1000000000000000000, 0, 1, 1]}'
                                   % NAMES,
    "19 digits past int64": '{"order": 2, %s, "rhd": [9223372036854775808, 0, 1, 1]}' % NAMES,
    "leading zero": '{"order": 2, %s, "rhd": [00, 0, 1, 1]}' % NAMES,
    "escaped key": '{"order": 2, %s, "rh\\u0064": [0, 0, 1, 1]}' % NAMES,
    "escaped name": '{"order": 2, "names": ["a\\n", "b"], "rhd": [0, 0, 1, 1]}',
    "duplicate keys": '{"order": 2, %s, "rhd": [1, 1, 1, 1], "rhd": [0, 0, 1, 1]}' % NAMES,
    "nested rhd beside the key": '{"order": 2, %s, "provenance": {"rhd": [5]}, '
                                 '"rhd": [0, 0, 1, 1]}' % NAMES,
    "nested rhd only": '{"order": 2, %s, "x": {"rhd": [0, 0, 1, 1]}}' % NAMES,
    "rhd as a name": '{"order": 2, "names": ["rhd", "b"], "rhd": [0, 0, 1, 1]}',
    "non-ASCII name": '{"order": 2, "names": ["é", "b"], "rhd": [0, 0, 1, 1]}',
    "non-ASCII space": '{"order": 2, %s, "rhd": [0,\u00a00, 1, 1]}' % NAMES,
    "form feed": '{"order": 2, %s, "rhd": [0,\f0, 1, 1]}' % NAMES,
    "space inside a decimal": '{"order": 2, %s, "rhd": [0, 0, 1 1]}' % NAMES,
    "trailing comma": '{"order": 2, %s, "rhd": [0, 0, 1, 1,]}' % NAMES,
    "empty list": '{"order": 2, %s, "rhd": []}' % NAMES,
    "nested list": '{"order": 2, %s, "rhd": [[0, 0], [1, 1]]}' % NAMES,
    "top-level list": '[{"order": 2, %s, "rhd": [0, 0, 1, 1]}]' % NAMES,
    "unclosed object": '{"order": 2, %s, "rhd": [0, 0, 1, 1]' % NAMES,
    "trailing data": '{"order": 2, %s, "rhd": [0, 0, 1, 1]} x' % NAMES,
}


@pytest.mark.parametrize("text", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_edge_cases_take_json_loads(tmp_path, text):
    path = tmp_path / "q.json"
    path.write_text(text, encoding="utf-8")
    assert _quandle_outcome(_load_new, path) == _quandle_outcome(_load_old, path)
    assert _outcome(Q.loads_quandle_json, text) == (_outcome(json.loads, text)[0], False)


@pytest.mark.parametrize("text", [
    '{"order": 2, "names": ["a", "b"], "rhd": [0, 0, 1, 1]}',
    '{"rhd":[0,0,1,1],"order":2,"names":["a","b"]}',
    '{"order": 2, "names": ["a", "b"], "rhd" :\r\n[ 0 ,\t0,1\n,1 ] }',
    # in range of int64 but not a table: the range gate speaks
    '{"order": 2, "names": ["a", "b"], "rhd": [999999999999999999, 0, 1, 1]}',
    '{"order": 2, "names": ["a", "b"], "rhd": [0, 0, 1]}',
    '{"order": 2, "names": ["a", "b"], "rhd": [1, 0, 1, 0]}',
    '{"order": 2, "names": ["a", "b"], "rhd": [0, 0, 1, 1], "provenance": [1]}',
])
def test_kernel_loads_like_json_load(tmp_path, text):
    path = tmp_path / "q.json"
    path.write_text(text)
    assert _outcome(Q.loads_quandle_json, text)[1]
    assert _quandle_outcome(_load_new, path) == _quandle_outcome(_load_old, path)


@pytest.mark.parametrize("chunk", range(1, 9))
def test_chunk_boundaries(monkeypatch, chunk):
    rng = random.Random(chunk)
    values = [rng.choice((0, 7, 10, 305, 99999, 10 ** 17, 10 ** 18 - 1)) for _ in range(60)]
    seps = [rng.choice((",", ", ", " ,", ",\n    ", "\t,\r\n")) for _ in values[1:]]
    body = "".join(str(v) + s for v, s in zip(values, seps)) + str(values[-1])
    text = '{"order": 1, "rhd": [ %s ], "names": ["x"]}' % body
    sizes = []
    real = Q._chunk_naturals
    monkeypatch.setattr(Q, "_RHD_CHUNK", chunk)
    monkeypatch.setattr(Q, "_chunk_naturals", lambda b: sizes.append(b.size) or real(b))
    obj = Q.loads_quandle_json(text)
    assert obj["rhd"].tolist() == values and obj == dict(json.loads(text), rhd=obj["rhd"])
    # each chunk runs from its start to the first comma at least chunk bytes
    # on, and takes a space of padding each side
    assert len(sizes) > 1 and max(sizes) <= chunk + max(map(len, body.split(","))) + 2
    # a comma cut off the end, or a sign past a boundary, sends it back
    for bad in (body + ",", body.replace(",", ",-", 1), body.replace(",", "", 1)):
        text = '{"order": 1, "rhd": [%s], "names": ["x"]}' % bad
        assert _outcome(Q.loads_quandle_json, text)[0] == _outcome(json.loads, text)[0]


def test_large_table_is_read_in_bounded_chunks(monkeypatch):
    q = Q.core_quandle(specs.group_from_string("D96"))
    text = json.dumps(Q.quandle_to_json(q), indent=2)
    sizes = []
    real = Q._chunk_naturals
    monkeypatch.setattr(Q, "_chunk_naturals", lambda b: sizes.append(b.size) or real(b))
    obj = Q.loads_quandle_json(text)
    assert (obj["rhd"] == q.rhd.ravel()).all() and obj["rhd"].dtype == np.int64
    # every chunk but the last runs to the first comma past _RHD_CHUNK bytes
    assert len(sizes) > 1 and min(sizes[:-1]) >= Q._RHD_CHUNK
    assert max(sizes) < Q._RHD_CHUNK + 32


def test_built_file_analyzes_like_its_family(capsys, tmp_path):
    """build writes indent=2, one entry a line; the raw file read back
    through the kernel gives the family's own analysis."""
    path = tmp_path / "core_d96.json"
    assert main(["build", "--family", "core", "--group", "D96", "--out", str(path)]) == 0
    assert _outcome(Q.loads_quandle_json, path.read_text())[1]
    capsys.readouterr()
    assert main(["analyze", "--family", "raw", "--raw-path", str(path), "--json"]) == 0
    raw = json.loads(capsys.readouterr().out)
    assert main(["analyze", "--family", "core", "--group", "D96", "--json"]) == 0
    family = json.loads(capsys.readouterr().out)
    assert raw.pop("spec") == f"raw:{path}" and family.pop("spec") == "core:D96"
    assert raw == family


def test_a_raw_load_gates_its_table_once(monkeypatch, tmp_path):
    """quandle_from_json passes the table through as_index_array once, and
    the axiom proof and the Quandle read it as gated."""
    from quandle_cayley import groups as G
    gate, calls = Q.as_index_array, []

    def spy(values, what, *args, **kwargs):
        calls.append(what)
        return gate(values, what, *args, **kwargs)

    monkeypatch.setattr(Q, "as_index_array", spy)
    monkeypatch.setattr(G, "as_index_array", spy)
    table = Q.core_quandle(G.make_dihedral(6)).rhd
    obj = {"order": 12, "names": [f"v{i}" for i in range(12)], "rhd": table.ravel().tolist()}
    path = tmp_path / "core_d6.json"
    path.write_text(json.dumps(obj))
    for load in (lambda: Q.quandle_from_json(obj),
                 lambda: Q.quandle_from_json(Q.loads_quandle_json(path.read_text())),
                 lambda: _load_new(path)):
        calls.clear()
        q = load()
        assert calls == ["rhd"]
        assert q.rhd.dtype == np.int64 and (q.rhd == table).all()
    # refusals gate once too: a range error, and a table that is no quandle
    for rhd, error in (([0, 0, 1, 2], "rhd entries must lie in 0..1"),
                       ([1, 0, 0, 1], "is not a quandle: idempotency fails at x=0")):
        calls.clear()
        with pytest.raises(ValueError, match=error):
            Q.quandle_from_json({"order": 2, "names": ["a", "b"], "rhd": rhd})
        assert calls == ["rhd"]
