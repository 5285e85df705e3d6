"""Sequence mining keeps journaling the per-op reference stream."""

import hashlib
import json

from repro.obs import seqmine

#: ``[label, count, steps]`` of ``mine_workload("nreverse", top=20)``
#: as mined from the per-op reference stream.
NREVERSE_TOP20_SHA256 = \
    "f20c181b1ebae995c4e00a174bad19cb09697b3dc1a7171990a7201f3275d0f3"


def test_mined_candidates_match_reference():
    candidates = seqmine.mine_workload("nreverse", top=20)
    payload = json.dumps([[c.label, c.count, c.steps] for c in candidates])
    assert len(candidates) == 20
    assert hashlib.sha256(payload.encode()).hexdigest() == \
        NREVERSE_TOP20_SHA256
