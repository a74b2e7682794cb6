"""The catalog triples as a test parameter."""

from __future__ import annotations

import pytest

from dmlat.catalog import catalog

ALL_TRIPLES = [(s.p, s.k, s.p_prime) for s in catalog()]


@pytest.fixture(params=ALL_TRIPLES, ids=[str(t) for t in ALL_TRIPLES])
def triple(request):
    return request.param
