"""Malformed input is a named error: a shipped case or partition with one
value replaced by a value of each JSON type, or with one key dropped,
either loads or raises ``CaseError``, and nothing else."""

import json
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from gridweld.netmodel import CaseError, case_from_dict, partition_from_dict

from conftest import CASES, PARTITIONS, load, raw_case

# each shipped partition with a case it partitions
PARTITIONED = {"micro_default": "case_micro_td", "micro_single": "case_micro_td",
               "feeder210": "case_feeder210", "twofeeder": "case_twofeeder_td",
               "threefeeder": "case_threefeeder_td"}
# one value of each JSON type, a number too large for a float among them
VALUES = [True, "x", None, [], {}, 10 ** 400]
PROBE = settings(derandomize=True, max_examples=100, deadline=None, database=None)


def _positions(doc, at=()):
    """The path of every value below the root: each object key and list
    entry, depth first."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for k, v in items:
        yield at + (k,)
        yield from _positions(v, at + (k,))


def _mutate(doc, data):
    """Replace one drawn value of ``doc`` by a drawn one of ``VALUES``, or
    drop one drawn object key; returns ``doc``."""
    *path, last = data.draw(st.sampled_from(list(_positions(doc))))
    parent = doc
    for k in path:
        parent = parent[k]
    drop = ["drop"] if isinstance(parent, dict) else []
    new = data.draw(st.sampled_from(VALUES + drop))
    if new == "drop":
        del parent[last]
    else:
        parent[last] = new
    return doc


def _loads_or_case_error(load_it):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            load_it()
    except CaseError:
        pass


@PROBE
@given(st.data())
def test_mutated_case_loads_or_raises_case_error(data):
    name = data.draw(st.sampled_from(sorted(p.stem for p in CASES.glob("*.json"))))
    raw = _mutate(raw_case(name), data)
    _loads_or_case_error(lambda: case_from_dict(raw))


@PROBE
@given(st.data())
def test_mutated_partition_loads_or_raises_case_error(data):
    name = data.draw(st.sampled_from(sorted(PARTITIONED)))
    with open(PARTITIONS / f"{name}.json") as fh:
        raw = _mutate(json.load(fh), data)
    nets, coups = load(PARTITIONED[name])
    _loads_or_case_error(lambda: partition_from_dict(raw, nets, coups))
