from hypothesis import settings

# solve times swing with the load on a shared machine, so a wall-clock
# deadline would fail examples at random
settings.register_profile("wfcolor", deadline=None, max_examples=40)
settings.load_profile("wfcolor")
