import doctest

import fishburn.bijections
import fishburn.enumeration
import fishburn.objects
import fishburn.statistics


def test_doctests():
    for module in (fishburn.objects, fishburn.bijections,
                   fishburn.enumeration, fishburn.statistics):
        result = doctest.testmod(module)
        assert result.failed == 0, f"doctest failures in {module.__name__}"
        assert result.attempted > 0, f"no doctests run in {module.__name__}"
