import pytest

from hyperbernardi.fixtures import (c4, k5_setup, matching_example,
                                    numbered_order_example, process_example,
                                    running_graph, running_graph_knot_setup,
                                    single_edge, tour_example)


@pytest.fixture(scope="session")
def c4_fixture():
    return c4()


@pytest.fixture(scope="session")
def running_fixture():
    return running_graph()


@pytest.fixture(scope="session")
def knot_fixture():
    return running_graph_knot_setup()


@pytest.fixture(scope="session")
def process_fixture():
    return process_example()


@pytest.fixture(scope="session")
def tour_fixture():
    return tour_example()


@pytest.fixture(scope="session")
def numbered_fixture():
    return numbered_order_example()


@pytest.fixture(scope="session")
def k5_fixture():
    return k5_setup()


@pytest.fixture(scope="session")
def matching_fixture():
    return matching_example()


@pytest.fixture(scope="session")
def single_edge_fixture():
    return single_edge()


@pytest.fixture
def family_runs(monkeypatch):
    """Each ``bernardi_runs`` call made during the test, as ((graph id,
    variant, paranoid), the hypertrees of its runs in order)."""
    from hyperbernardi import bernardi, campaign
    calls = []
    runs_of = bernardi.bernardi_runs

    def recording(g, variant, paranoid=False):
        runs = runs_of(g, variant, paranoid)
        calls.append(((id(g), variant, paranoid), [run.hypertree for run in runs]))
        return runs
    for module in (bernardi, campaign):
        monkeypatch.setattr(module, "bernardi_runs", recording)
    return calls
