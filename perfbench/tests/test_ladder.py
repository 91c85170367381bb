"""The scale-ladder generator: seeded, valid, and of the stated sizes."""

import ladder
import pytest
from gridweld import load_case, load_partition
from workloads import LADDER_SIZES


def _files(tmp_path, sub, feeders, seed, **kw):
    paths = ladder.write_ladder(str(tmp_path / sub), feeders, seed, **kw)
    return [open(p, "rb").read() for p in paths]


def test_same_seed_gives_identical_files(tmp_path):
    assert _files(tmp_path, "a", 3, 7) == _files(tmp_path, "b", 3, 7)


def test_seed_perturbs_only_the_loads(tmp_path):
    a, _ = ladder.ladder_case(3, 7)
    b, _ = ladder.ladder_case(3, 8)
    assert a != b
    for na, nb in zip(a["networks"], b["networks"]):
        assert na["buses"] == nb["buses"]
        assert na["branches"] == nb["branches"]
    la = [ld["p"]["a"] for n in a["networks"] for ld in n["loads"]]
    lb = [ld["p"]["a"] for n in b["networks"] for ld in n["loads"]]
    assert all(abs(x / y - 1.0) <= 2 * ladder.JITTER + 1e-12
               for x, y in zip(la, lb))


@pytest.mark.parametrize("feeders,kw", [
    (1, {}), (4, {}), (5, {"trunk": 4, "laterals": 2}),
])
def test_generated_cases_pass_validation(tmp_path, feeders, kw):
    case, part = ladder.write_ladder(str(tmp_path), feeders, 3, **kw)
    nets, coups = load_case(case)
    partition = load_partition(part, nets, coups)
    assert len(nets) == feeders + 1
    assert len(coups) == feeders
    assert len(partition.external_couplings) == feeders


def test_benchmark_sizes():
    nodes = {size: ladder.phase_nodes(ladder.ladder_case(f, 1)[0])
             for size, f in LADDER_SIZES.items()}
    assert 900 <= nodes["small"] <= 1200
    assert 4500 <= nodes["large"] <= 5500
