"""A pytest plugin that runs the collected tests in reversed order.

Load it with ``-p reversed_order`` and ``tests`` on ``PYTHONPATH``.  A test
that passes only because an earlier test filled a cache it reads (a jet
ring, its principal table, the order-3 data) fails in one of the two
orders; the suite must pass in both.
"""


def pytest_collection_modifyitems(session, config, items):
    items.reverse()
