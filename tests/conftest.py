from hypothesis import settings

# Every property test draws the same examples on every run, keeps no example
# database between runs and has no per-example deadline, so a property test
# cannot pass on one run and fail on the next.
settings.register_profile("hoicascade", derandomize=True, database=None, deadline=None)
settings.load_profile("hoicascade")
