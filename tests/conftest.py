import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


def pytest_collection_modifyitems(config, items):
    # tests marked slow run only with CHARIDEALS_SLOW=1 in the environment
    if os.environ.get("CHARIDEALS_SLOW") == "1":
        return
    skip = pytest.mark.skip(reason="slow; set CHARIDEALS_SLOW=1 to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(autouse=True)
def _no_workers_unless_asked(monkeypatch):
    # imap_workers and cross_check follow GRAPHTOOL_THREADS; a test that
    # wants workers sets it, so the caller's environment changes no test
    monkeypatch.delenv("GRAPHTOOL_THREADS", raising=False)
