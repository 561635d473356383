"""Suite-wide guards."""

import sys

# the suite leaves no bytecode next to the sources: a stale __pycache__
# under src/ would change what a fresh checkout's first import compiles
sys.dont_write_bytecode = True

import pytest  # noqa: E402

from toricray import kernels, polytope  # noqa: E402


@pytest.fixture(autouse=True)
def geometry_cache_starts_empty():
    """Clear the geometry the polytope constructor shares between
    constructions of one system, so that a test that counts or patches the
    enumeration sees the same calls in any order."""
    polytope._geometry.cache_clear()


@pytest.fixture(autouse=True)
def kernels_keep_their_attributes():
    """Fail a test that leaves new instance attributes on the kernels
    ``get_kernel`` caches, and remove them, so that no later test runs on
    a patched kernel.  ``monkeypatch.setattr`` on a kernel instance leaves
    its restored bound methods behind as instance attributes, which a later
    patch of the ``Kernel`` class then misses; patch a fresh kernel
    instead."""
    cached = [kernels.get_kernel(name) for name in kernels.KERNEL_NAMES]
    before = [set(vars(k)) for k in cached]
    yield
    leaks = []
    for kern, keys in zip(cached, before):
        for key in sorted(set(vars(kern)) - keys):
            delattr(kern, key)
            leaks.append(f"{kern.name}.{key}")
    if leaks:
        pytest.fail(f"test left instance attributes on cached kernels: "
                    f"{', '.join(leaks)}")
