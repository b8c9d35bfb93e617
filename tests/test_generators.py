import hashlib
import json

from raagcheeger import GF2, GF3

from generators import random_triple, sample_labeled_graphs, zero_triple


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


def test_generators_are_pinned():
    # every seeded expectation in the suite rests on these exact outputs
    assert _digest(random_triple(7, 5, GF2, 3).to_json_dict()) == "0df9a2f1e42eaf07"
    assert _digest(random_triple(5, 2, GF3, 11, "symmetric").to_json_dict()) == "e984e482d2168810"
    assert _digest(zero_triple(4, 2, GF3).to_json_dict()) == "fc56990dc99f4a23"
    graphs = sample_labeled_graphs(6, 25, seed=606)
    assert _digest([g.to_json_dict() for g in graphs]) == "9588ebdd73ba91af"
