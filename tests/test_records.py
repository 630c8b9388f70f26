"""The package's twelve data records, by behaviour: construction by position
or keyword with defaults, argument errors, the checks `__post_init__` runs,
`repr`, equality within one class, hashing, and the refusal to assign to
or delete a field."""

import pytest

from intorder import (
    BuriedCertificate,
    BuriedCheck,
    ClosedRepresentation,
    GadgetOutput,
    GadgetSpec,
    Graph,
    InputError,
    LeveledSet,
    Obstruction,
    OrientationSet,
    PairGraph,
    StrictPartialOrder,
    UniquenessVerdict,
    decide_unique,
    pair_graph,
)

P3 = Graph(3, (0b010, 0b101, 0b010))
REP = ClosedRepresentation(3, (0, 1, 2), (1, 2, 3))
ORDER = StrictPartialOrder(3, (0b100, 0, 0))
CERT = BuriedCertificate(frozenset({0, 2}), frozenset({1}), frozenset({3}), (0, 2), 3, (0, 2))

# class, whether it hashes (a record holding a dict does not), fields in
# order, values, how many of them are required, and another value for the
# last field
RECORDS = [
    (Graph, True, ("n", "masks", "labels"), (3, (0b010, 0b001, 0), ("a", "b", "c")), 2, None),
    (StrictPartialOrder, True, ("n", "succ"), (3, (0b010, 0, 0)), 2, (0, 0, 0)),
    (ClosedRepresentation, True, ("n", "left", "right"), (2, (0, 1), (1, 2)), 3, (2, 2)),
    (Obstruction, True, ("kind", "cycle", "triple", "witness_paths"),
     ("asteroidal_triple", None, (3, 4, 5), ((3, 0, 1, 4), (3, 0, 2, 5), (4, 1, 2, 5))), 1, None),
    (PairGraph, False, ("base", "rows"), (P3, ({0: 0b100}, {2: 0b001})), 2, ()),
    (LeveledSet, False, ("v", "u", "level"), (0, 2, {0: 0, 2: 0, 1: 1}), 3, {0: 0, 2: 0}),
    (BuriedCheck, True, ("buried", "separators", "outside", "witness_nonedge", "witness_outside"),
     (True, frozenset({1}), frozenset({3}), (0, 2), 3), 5, None),
    (BuriedCertificate, True,
     ("members", "separators", "outside", "witness_nonedge", "witness_outside", "pair"),
     (frozenset({0, 2}), frozenset({1}), frozenset({3}), (0, 2), 3, (0, 2)), 6, (2, 0)),
    (UniquenessVerdict, True, ("unique", "wq_components", "order", "witness", "triple", "buried"),
     (False, 4, None, (ORDER, ORDER.dual()), (0, 1, 2), CERT), 2, None),
    (GadgetSpec, True, ("f", "stages"), ((2, 0, 1), 3), 2, 2),
    (GadgetOutput, True,
     ("graph", "representation", "predicted_members", "predicted_separators", "predicted_outside"),
     (P3, REP, frozenset({0, 2}), frozenset({1}), frozenset()), 5, frozenset({3})),
    (OrientationSet, True, ("orders", "dual_classes"), ((ORDER, ORDER.dual()), 1), 2, 2),
]
IDS = [row[0].__name__ for row in RECORDS]


@pytest.fixture(params=RECORDS, ids=IDS)
def row(request):
    return request.param


def test_the_table_names_all_twelve_records():
    assert len({cls for cls, *_ in RECORDS}) == 12


def test_positional_and_keyword_construction_agree(row):
    cls, _, fields, values, _, _ = row
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    for name, value in zip(fields, values):
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value
    assert by_position == by_keyword


def test_optional_fields_default_to_none(row):
    cls, _, fields, values, required, _ = row
    record = cls(*values[:required])
    for name in fields[required:]:
        assert getattr(record, name) is None


def test_argument_errors(row):
    cls, _, fields, values, required, _ = row
    with pytest.raises(TypeError, match="missing"):
        cls(*values[:required - 1])
    with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
        cls(*values, bogus=1)
    with pytest.raises(TypeError, match="positional argument"):
        cls(*values, None)
    with pytest.raises(TypeError, match="multiple values"):
        cls(*values, **{fields[0]: values[0]})


def test_repr_names_every_field_in_order(row):
    cls, _, fields, values, _, _ = row
    inner = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
    assert repr(cls(*values)) == f"{cls.__name__}({inner})"


def test_equality_reads_every_field_within_one_class(row):
    cls, _, _, values, _, last = row
    record = cls(*values)
    assert record == cls(*values)
    assert record != cls(*values[:-1], last)
    assert record.__eq__(tuple(values)) is NotImplemented
    assert record != tuple(values)
    other_cls, _, _, other_values, _, _ = RECORDS[(RECORDS.index(row) + 1) % len(RECORDS)]
    assert record.__eq__(other_cls(*other_values)) is NotImplemented
    assert record != other_cls(*other_values)


def test_records_hash_and_refuse_assignment(row):
    cls, hashes, fields, values, _, last = row
    record = cls(*values)
    if hashes:
        assert hash(record) == hash(cls(*values))
    else:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)
    for name in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field {name!r}"):
            setattr(record, name, last)
        with pytest.raises(AttributeError, match=f"cannot delete field {name!r}"):
            delattr(record, name)
    assert record == cls(*values)


@pytest.mark.parametrize("build,message", [
    (lambda: GadgetSpec((1, 1), 2), "pairwise distinct"),
    (lambda: GadgetSpec((0, 1), 3), "stage count 3 must be between 0 and len"),
    (lambda: ClosedRepresentation(2, (0, 3), (1, 2)), "interval for vertex 1 is empty"),
    (lambda: ClosedRepresentation(2, (0,), (1,)), "one entry per vertex"),
    (lambda: Graph(-1, ()), "nonnegative"),
    (lambda: Graph(n=2, masks=(0b10, 0)), "symmetric"),
    (lambda: StrictPartialOrder(3, (0b010, 0b100, 0)), "not transitively closed"),
])
def test_post_init_checks_still_run(build, message):
    with pytest.raises(InputError, match=message):
        build()


def test_a_verdict_and_a_pair_graph_cannot_be_rewritten():
    # a verdict that said unique while it carried a witness, or a pair graph
    # with no components, could be made by assignment before records refused it
    star = Graph(4, (0b1110, 0b0001, 0b0001, 0b0001))
    verdict = decide_unique(star)
    with pytest.raises(AttributeError, match="cannot assign to field 'unique'"):
        verdict.unique = True
    pg = pair_graph(star)
    with pytest.raises(AttributeError, match="cannot assign to field 'rows'"):
        pg.rows = ()
    assert (verdict.unique, pg.component_count) == (False, 6)
