import json

from hypothesis import given, settings
from hypothesis import strategies as st

from nilform import catalog, serialize
from nilform.errors import MalformedFile
from nilform.lie import LieAlgebra
from nilform.rational import rat


def test_roundtrip_bit_exact():
    for inst in catalog.enumerate_instances(9):
        text = serialize.dumps(inst.algebra)
        back = serialize.loads(text)
        assert back == inst.algebra
        assert serialize.dumps(back) == text


def test_format_shape():
    g = catalog.build(66, 3, rat(1, 2))
    d = serialize.algebra_to_dict(g)
    assert d["dim"] == 7
    assert d["labels"][0] == "X1"
    first = d["brackets"][0]
    assert first["i"] == 1 and first["j"] == 2            # 1-based, i < j
    coeffs = {item["i"]: item for item in d["brackets"]}
    entry = next(
        item for item in d["brackets"] if (item["i"], item["j"]) == (2, 4)
    )
    assert entry["coeffs"] == {"6": "-1/2"}               # [X2,X4] = -(1/2) X6


def test_file_roundtrip(tmp_path):
    g = catalog.build(7, 4, 2)
    path = tmp_path / "mu.json"
    serialize.save(g, path)
    assert serialize.load(path) == g
    raw = json.loads(path.read_text())
    assert raw["dim"] == 8


# -- properties ---------------------------------------------------------------

PROPERTY = settings(derandomize=True, max_examples=150, database=None, deadline=None)

rationals = st.builds(rat, st.integers(-50, 50), st.integers(1, 12))


@st.composite
def algebras(draw):
    """Any bracket dict on up to 8 basis vectors, with or without labels.

    Jacobi is not required: the file format does not check it.
    """
    dim = draw(st.integers(0, 8))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    brackets = {
        p: draw(st.dictionaries(st.integers(0, dim - 1), rationals, max_size=dim))
        for p in chosen
    }
    labels = draw(st.none() | st.lists(st.text(max_size=4), min_size=dim, max_size=dim))
    return LieAlgebra(dim, brackets, labels=labels)


@PROPERTY
@given(algebras())
def test_dumps_then_loads_gives_back_the_algebra(g):
    back = serialize.loads(serialize.dumps(g))
    assert back == g
    assert back.labels == g.labels


# JSON scalars and containers; text has no decimal digits, so no drawn string
# parses as a number (the format reads indices and dims with int()).
no_digits = st.text(st.characters(exclude_categories=("Nd", "Cs")), max_size=5)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-20, 20) | st.floats() | no_digits,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(no_digits, inner, max_size=3),
    max_leaves=8,
)
not_finite = st.sampled_from([float("inf"), float("-inf"), float("nan")])
small_numbers = st.integers(-5, serialize.MAX_DIM + 10)
dims = small_numbers | small_numbers.map(str) | st.floats(-5, serialize.MAX_DIM + 10) | (
    not_finite | json_values.filter(lambda v: not isinstance(v, (int, float)))
)
indices = st.integers(-2, 6) | st.integers(-2, 6).map(str) | not_finite | json_values
coeff_values = st.sampled_from(["1", "-2/3", "1/0", "0.5", "", " 7 "]) | json_values
coeff_maps = st.dictionaries(indices.map(str) | no_digits, coeff_values, max_size=3)


def _maybe(value, random_values):
    return st.just(value) | random_values


@st.composite
def documents(draw):
    """A valid 3-dimensional document with any of its fields replaced at random."""
    item = {
        "i": draw(_maybe(1, indices)),
        "j": draw(_maybe(2, indices)),
        "coeffs": draw(_maybe({"3": "1"}, coeff_maps | json_values)),
    }
    brackets = draw(_maybe([item], st.lists(_maybe(item, json_values), max_size=3) | json_values))
    doc = {
        "dim": draw(_maybe(3, dims)),
        "labels": draw(_maybe(["x", "y", "z"], json_values)),
        "brackets": brackets,
    }
    dropped = draw(st.sets(st.sampled_from(sorted(doc)), max_size=2))
    return {k: v for k, v in doc.items() if k not in dropped}


@PROPERTY
@given(documents())
def test_loads_returns_an_algebra_or_raises_malformed_file(doc):
    try:
        g = serialize.loads(json.dumps(doc))
    except MalformedFile:
        return
    assert isinstance(g, LieAlgebra)
