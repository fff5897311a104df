import pytest

from sgmarket.harness import MarketRuntime, Scenario


@pytest.fixture()
def market_factory():
    """Boot bank + broker + front-ends for a scenario without running its
    workload; tests drive submissions and ticks by hand."""
    runtimes: list[MarketRuntime] = []

    def build(
        clusters,
        users,
        workload=(),
        duration_s=1000,
        seed=0,
    ) -> MarketRuntime:
        scenario = Scenario(
            clusters=tuple(clusters),
            users=tuple(users),
            workload=tuple(workload),
            duration_s=duration_s,
            seed=seed,
        )
        runtime = MarketRuntime(scenario)
        runtimes.append(runtime)
        return runtime

    yield build
    for runtime in runtimes:
        runtime.shutdown()
