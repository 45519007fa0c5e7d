"""The reachability allow-list names live functions, each with its surface.

``tests/reachability.py`` exits 1 on a ``src/`` function only tests
reach unless ``tests/reachability_allow.txt`` names it.  That file only
shrinks: an entry whose function was deleted or renamed fails here, as
a stale ``repro-check`` baseline entry does.
"""

from tests.reachability import ALLOW, read_allow, src_functions


def test_entries_name_existing_functions():
    keys = {fn.key for fn in src_functions()}
    stale = [key for key, _ in read_allow() if key not in keys]
    assert not stale, f"{ALLOW.name} names functions that no longer exist: {stale}"


def test_entries_give_a_surface():
    bare = [key for key, surface in read_allow() if not surface]
    assert not bare, f"{ALLOW.name} entries without a surface: {bare}"


def test_entries_sorted_and_unique():
    keys = [key for key, _ in read_allow()]
    assert keys == sorted(set(keys)), f"{ALLOW.name} must be sorted, one line per key"
