"""Every record class in subsec is a ``graphs._Record``: each declares its
fields once, and all share one contract of frozen fields, equality and hash
by the fields, pickling, repr and argument binding."""

import pickle
import re
from fractions import Fraction

import pytest

from subsec import Graph, GraphError, SolveResult, SolverBudget, VertexSet
from subsec.bounds import BoundCheck, Claim, ConjectureReport, ConjectureRow
from subsec.certificates import Certificate, CertificateError, Construction, cert_third
from subsec.graphs import is_star
from subsec.subdivision import SubdivisionMap, subdivide

P2 = Graph(2, (2, 1))
ROW = ConjectureRow("Bw", 3, 2, Fraction(2, 3), "counterexample")

# (class, every field in declaration order, the same fields with one changed)
RECORDS = [
    (Graph, {"n": 3, "adj_masks": (2, 5, 2)}, {"n": 3, "adj_masks": (0, 4, 2)}),
    (VertexSet, {"universe": 4, "mask": 0b1010}, {"universe": 5, "mask": 0b1010}),
    (SolverBudget, {"max_vertices": 10, "max_nodes": 1000, "engine": "naive"},
     {"max_vertices": 10, "max_nodes": 1000, "engine": "branch"}),
    (SolveResult, {"value": 1, "witness": VertexSet(3, 0b10), "status": "exact",
                   "nodes": 7, "cap": None},
     {"value": None, "witness": None, "status": "skipped", "nodes": 7, "cap": "nodes"}),
    (BoundCheck, {"graph_id": "Ch", "theorem_id": "g13", "lower": Fraction(7, 2), "upper": 4,
                  "equality": None, "exact": 4, "status": "tight", "detail": "at upper"},
     {"graph_id": "Ch", "theorem_id": "g13", "lower": Fraction(7, 2), "upper": 4,
      "equality": None, "exact": 5, "status": "violated", "detail": "exact 5 > upper 4"}),
    (Claim, {"id": "t", "k": 2, "lower": None, "upper": None, "equality": None,
             "precondition": is_star, "strict": True, "text": "γ", "note": None, "skip": None},
     {"id": "t", "k": 3, "lower": None, "upper": None, "equality": None,
      "precondition": is_star, "strict": True, "text": "γ", "note": None, "skip": None}),
    (ConjectureRow, {"graph_id": "Bw", "n": 3, "value": 2, "ratio": Fraction(2, 3),
                     "status": "counterexample"},
     {"graph_id": "Bw", "n": 3, "value": None, "ratio": None, "status": "skipped"}),
    (ConjectureReport, {"rows": (ROW,), "min_ratio": Fraction(2, 3), "witnesses": ("Bw",),
                        "counterexamples": ("Bw",), "skipped": ()},
     {"rows": (ROW,), "min_ratio": Fraction(2, 3), "witnesses": ("Bw",),
      "counterexamples": (), "skipped": ()}),
    (Certificate, {"theorem_id": "third", "vertices": VertexSet(4, 0b1100),
                   "claimed_size": 2, "validated": True},
     {"theorem_id": "third", "vertices": VertexSet(4, 0b1100),
      "claimed_size": 2, "validated": False}),
    (Construction, {"id": "third", "k": 3, "build": cert_third, "param": None},
     {"id": "third", "k": 4, "build": cert_third, "param": None}),
    (SubdivisionMap, {"base": P2, "k": 1, "derived": P2},
     {"base": P2, "k": 2, "derived": Graph(3, (4, 4, 3))}),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, _", RECORDS, ids=IDS)
def test_fields_cannot_change(cls, fields, _):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert {name: getattr(record, name) for name in fields} == fields


@pytest.mark.parametrize("cls, fields, changed", RECORDS, ids=IDS)
def test_equality_and_hash_go_by_fields(cls, fields, changed):
    record, twin = cls(**fields), cls(**fields)
    assert record is not twin and record == twin and not record != twin
    assert hash(record) == hash(twin) == hash(tuple(fields.values()))
    assert record != cls(**changed)
    assert len({record, twin, cls(**changed)}) == 2
    # another class with the same fields is never equal, a subclass included
    subclass = type("Sub", (cls,), {})
    assert record != subclass(**fields) and subclass(**fields) != record
    assert record != tuple(fields.values())


@pytest.mark.parametrize("cls, fields, _", RECORDS, ids=IDS)
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(cls, fields, _, protocol):
    record = cls(**fields)
    back = pickle.loads(pickle.dumps(record, protocol))
    assert type(back) is cls and back == record and hash(back) == hash(record)
    with pytest.raises(AttributeError):
        setattr(back, next(iter(fields)), None)


@pytest.mark.parametrize("cls, fields, _", RECORDS, ids=IDS)
def test_fields_are_the_annotations_in_order(cls, fields, _):
    assert cls._fields == tuple(fields)
    record = cls(*fields.values())
    assert record == cls(**fields)
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"


@pytest.mark.parametrize("cls, fields, _", RECORDS, ids=IDS)
def test_arguments_bind_to_fields_once(cls, fields, _):
    values = list(fields.values())
    name = f"{cls.__name__}()"
    with pytest.raises(TypeError, match=re.escape(
            f"{name} takes {len(values)} positional arguments but {len(values) + 1} were given")):
        cls(*values, None)
    with pytest.raises(TypeError, match=re.escape(f"{name} got an unexpected keyword argument 'nope'")):
        cls(**fields, nope=1)
    first = cls._fields[0]
    with pytest.raises(TypeError, match=re.escape(f"{name} got multiple values for argument {first!r}")):
        cls(values[0], **fields)
    for field in cls._fields:
        rest = {key: value for key, value in fields.items() if key != field}
        if hasattr(cls, field):  # a class attribute is the default
            assert getattr(cls(**rest), field) == getattr(cls, field)
        else:
            with pytest.raises(TypeError, match=re.escape(f"{name} missing argument {field!r}")):
                cls(**rest)


def test_record_reprs():
    assert repr(ROW) == "ConjectureRow(graph_id='Bw', n=3, value=2, ratio=Fraction(2, 3), status='counterexample')"
    assert repr(subdivide(P2, 1)) == ("SubdivisionMap(base=Graph(n=2, adj_masks=(2, 1)), k=1, "
                                      "derived=Graph(n=2, adj_masks=(2, 1)))")


def test_subdivision_maps_compare_by_fields():
    assert subdivide(P2, 2) == subdivide(P2, 2) and subdivide(P2, 2) != subdivide(P2, 3)
    assert len({subdivide(P2, 2), subdivide(P2, 2)}) == 1


def test_pickled_graph_keeps_its_lazy_tables_working():
    g = Graph(3, (2, 5, 2))
    assert "closed_masks" not in vars(g) and "m" not in vars(g)
    assert g.closed_masks == (3, 7, 6) and g.m == 2
    assert vars(g)["closed_masks"] == (3, 7, 6)  # computed once, then stored
    back = pickle.loads(pickle.dumps(g))
    assert back.closed_masks == (3, 7, 6) and back.m == 2
    fresh = pickle.loads(pickle.dumps(Graph(3, (2, 5, 2))))
    assert fresh.closed_masks == (3, 7, 6) and fresh.full_mask == 7


def test_positional_keyword_and_default_construction():
    assert Graph(2, (2, 1)) == Graph(n=2, adj_masks=(2, 1))
    assert VertexSet(3, 0b1) == VertexSet(universe=3, mask=0b1)
    assert SolverBudget.max_vertices == 26 and SolverBudget.max_nodes == 500_000_000
    assert SolverBudget.engine == "branch"
    default = SolverBudget()
    assert (default.max_vertices, default.max_nodes, default.engine) == (26, 500_000_000, "branch")
    assert default == SolverBudget(26, 500_000_000, "branch") == SolverBudget(
        engine="branch", max_nodes=500_000_000, max_vertices=26)
    assert SolverBudget(5).max_vertices == 5 and SolverBudget(5).engine == "branch"
    assert SolveResult(1, None, "exact", 0).cap is None
    assert SolveResult(None, None, "skipped", 3, "nodes") == SolveResult(
        value=None, witness=None, status="skipped", nodes=3, cap="nodes")
    assert repr(SolverBudget()) == "SolverBudget(max_vertices=26, max_nodes=500000000, engine='branch')"
    assert repr(Graph(2, (2, 1))) == "Graph(n=2, adj_masks=(2, 1))"


@pytest.mark.parametrize("cls, fields, _", RECORDS, ids=IDS)
def test_the_constructor_is_the_inverse_of_values(cls, fields, _):
    record = cls(**fields)
    assert record._values() == tuple(fields.values())
    assert cls(*record._values()) == record


@pytest.mark.parametrize("build, error, message", [
    (lambda: SolverBudget(engine="dp"), ValueError, "unknown engine 'dp' (choose from branch, naive)"),
    (lambda: SolverBudget(max_nodes=0), ValueError, "budget caps must be positive"),
    (lambda: SolverBudget(max_vertices=-1), ValueError, "budget caps must be positive"),
    (lambda: SolverBudget(max_vertices=5001), ValueError,
     "max_vertices 5001 is past the search's depth limit 5000"),
    (lambda: Graph(3, (0, 0)), GraphError, "adjacency length 2 != n=3"),
    (lambda: Graph(-1, ()), GraphError, "adjacency length 0 != n=-1"),
    (lambda: Graph(2, (4, 0)), GraphError, "neighbor id out of range at vertex 0"),
    (lambda: Graph(2, (-1, 0)), GraphError, "neighbor id out of range at vertex 0"),
    (lambda: Graph(2, (1, 0)), GraphError, "self-loop at vertex 0"),
    (lambda: Graph(2, (2, 0)), GraphError, "asymmetric adjacency between 1 and 0"),
    (lambda: VertexSet(3, 0b1000), GraphError, "vertex 3 outside universe 0..2"),
    (lambda: VertexSet(3, 0b101100), GraphError, "vertex 5 outside universe 0..2"),
    (lambda: VertexSet(3, -1), GraphError, "vertex set mask must be nonnegative"),
    (lambda: Certificate("third", VertexSet(4, 0b100), 2, True), CertificateError,
     "third: built 1 vertices, formula says 2"),
])
def test_validation_messages(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
