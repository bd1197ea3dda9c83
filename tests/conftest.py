"""The suite's one hypothesis profile: the same examples on every run.

Property tests are derandomized, keep no example database and have no
deadline; each sets only its own max_examples on top of this profile.
"""

from hypothesis import settings

settings.register_profile("aerosurvey", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("aerosurvey")
