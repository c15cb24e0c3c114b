import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


# Filled in by tests/test_acceptance.py: number -> (title, passed, detail).
ACCEPTANCE_RESULTS = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        title, passed, detail = ACCEPTANCE_RESULTS[number]
        status = "PASS" if passed else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        terminalreporter.write_line(f"criterion {number:2d} [{status}] {title}{suffix}")


@pytest.fixture(scope="session")
def oracle_corpus():
    """Ideals drawn from the objects the acceptance suite touches, filtered to
    at most 12 generators and 8 variables so the exponential oracles stay fast."""
    from scarflab.graphs import cycle_graph, enumerate_connected_graphs, path_graph, spider5_graph
    from scarflab.ideals import IdealSpec, build_ideal

    from reference import degree_t_ideals

    ideals = []
    for t in (3, 4):
        spec = IdealSpec("connected", t)
        for r in range(3, 9):
            ideals.append(build_ideal(path_graph(r), spec))
            ideals.append(build_ideal(cycle_graph(r), spec))
    for n in range(1, 7):
        for graph in enumerate_connected_graphs(n):
            for spec in (IdealSpec("connected", 3), IdealSpec("connected", 4),
                         IdealSpec("path", 4)):
                ideals.append(build_ideal(graph, spec))
    for t in (3, 4):
        ideals.extend(degree_t_ideals(t))
    ideals.append(build_ideal(spider5_graph(1, 1, 1), IdealSpec("path", 4)))

    unique = {}
    for ideal in ideals:
        if ideal.num_generators <= 12 and ideal.universe.size <= 8:
            unique[(ideal.universe.names, ideal.generator_masks)] = ideal
    return list(unique.values())
