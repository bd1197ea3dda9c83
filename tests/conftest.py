"""Session set-up shared by every test module."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def _no_exported_seed():
    """Clear AEROSURVEY_SEED for the whole session.

    The golden digests and the chain and reproducibility tests pin the
    seed their configs give, so a seed exported by the caller would move
    them. Session scope clears it before any module-scoped fixture runs a
    pipeline, and subprocesses that copy os.environ inherit the clearing.
    Tests of the override set it with monkeypatch.setenv.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("AEROSURVEY_SEED", raising=False)
        yield
