"""The memory cap of tests/conftest.py is in force and refuses a large
allocation at once."""

import pytest

from conftest import MEMORY_LIMIT_BYTES, resource


@pytest.mark.skipif(resource is None, reason="no resource module on this platform")
def test_address_space_cap_refuses_an_allocation_above_it():
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    assert soft != resource.RLIM_INFINITY and soft <= MEMORY_LIMIT_BYTES
    with pytest.raises(MemoryError):
        bytearray(2 * MEMORY_LIMIT_BYTES)
