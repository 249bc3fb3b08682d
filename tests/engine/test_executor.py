"""Unit tests for the fluid-flow executor."""

from __future__ import annotations

import pytest

from repro.cloud import CloudProvider, ConstantPerformance, aws_2013_catalog
from repro.engine import FluidExecutor
from repro.sim import Environment
from repro.workloads import ConstantRate, SteppedRate


def deploy(provider, allocations):
    """Provision one xlarge per allocation dict and allocate cores."""
    for alloc in allocations:
        vm = provider.provision("m1.xlarge", now=0.0)
        for pe_name, cores in alloc.items():
            vm.allocate(pe_name, cores)


def make_executor(chain3, rate=4.0, allocations=None, performance=None, **kwargs):
    env = Environment()
    provider = CloudProvider(
        aws_2013_catalog(), performance=performance or ConstantPerformance()
    )
    deploy(
        provider,
        allocations
        if allocations is not None
        else [{"src": 1, "mid": 2, "out": 1}],
    )
    executor = FluidExecutor(
        env,
        chain3,
        provider,
        {"src": ConstantRate(rate)},
        selection=chain3.default_selection(),
        **kwargs,
    )
    executor.sync()
    executor.start()
    return env, executor


class TestSteadyState:
    def test_full_capacity_serves_everything(self, chain3):
        env, ex = make_executor(chain3, rate=2.0)
        env.run(until=300.0)
        stats = ex.roll_interval()
        assert stats.omega(chain3.outputs) == pytest.approx(1.0, abs=0.02)

    def test_undercapacity_throttles(self, chain3):
        # mid has 1 xlarge core = 2 units → 2 msg/s; feed 8 msg/s.
        env, ex = make_executor(
            chain3, rate=8.0, allocations=[{"src": 2, "mid": 1, "out": 1}]
        )
        env.run(until=600.0)
        stats = ex.roll_interval()
        assert stats.omega(chain3.outputs) == pytest.approx(0.25, abs=0.05)

    def test_backlog_accumulates_under_overload(self, chain3):
        env, ex = make_executor(
            chain3, rate=8.0, allocations=[{"src": 2, "mid": 1, "out": 1}]
        )
        env.run(until=300.0)
        # 6 msg/s excess × 300 s ≈ 1800 messages queued at mid.
        assert ex.pe_backlog("mid") == pytest.approx(1800, rel=0.05)

    def test_message_conservation(self, chain3):
        """Messages in = messages processed + backlog (selectivity 1)."""
        env, ex = make_executor(
            chain3, rate=6.0, allocations=[{"src": 2, "mid": 1, "out": 1}]
        )
        env.run(until=400.0)
        stats = ex.roll_interval()
        entered = stats.external_in["src"]
        processed_mid = stats.processed["mid"]
        backlog_mid = ex.pe_backlog("mid")
        assert processed_mid + backlog_mid == pytest.approx(entered, rel=0.02)

    def test_selectivity_halves_flow(self, fig1):
        env = Environment()
        provider = CloudProvider(aws_2013_catalog())
        deploy(provider, [{"E1": 1, "E2": 2, "E3": 1}, {"E3": 2, "E4": 2}])
        ex = FluidExecutor(
            env,
            fig1,
            provider,
            {"E1": ConstantRate(2.0)},
            selection=fig1.default_selection(),
        )
        ex.sync()
        ex.start()
        env.run(until=600.0)
        stats = ex.roll_interval()
        # E3 selectivity is 0.5: E4 receives 2 + 1 = 3 msg/s and emits it.
        assert stats.delivered["E4"] / stats.duration == pytest.approx(
            3.0, rel=0.05
        )

    def test_rate_change_tracked(self, chain3):
        env, ex = make_executor(chain3)
        ex.profiles["src"] = SteppedRate([(0.0, 2.0), (300.0, 0.0)])
        env.run(until=300.0)
        busy = ex.roll_interval()
        env.run(until=600.0)
        quiet = ex.roll_interval()
        assert busy.external_in["src"] > 0
        assert quiet.external_in.get("src", 0.0) == 0.0


class TestInfrastructureEffects:
    def test_slow_cpu_reduces_throughput(self, chain3):
        fast = make_executor(
            chain3,
            rate=4.0,
            allocations=[{"src": 1, "mid": 2, "out": 1}],
            performance=ConstantPerformance(cpu=1.0),
        )
        slow = make_executor(
            chain3,
            rate=4.0,
            allocations=[{"src": 1, "mid": 2, "out": 1}],
            performance=ConstantPerformance(cpu=0.4),
        )
        for env, _ in (fast, slow):
            env.run(until=300.0)
        omega_fast = fast[1].roll_interval().omega(chain3.outputs)
        omega_slow = slow[1].roll_interval().omega(chain3.outputs)
        assert omega_slow < omega_fast

    def test_network_bandwidth_limits_edge(self, chain3):
        """A starved link between src and mid throttles delivery even with
        ample CPU."""
        throttled = make_executor(
            chain3,
            rate=8.0,
            allocations=[{"src": 4}, {"mid": 4}, {"out": 4}],
            performance=ConstantPerformance(bandwidth_mbps=1.0),
        )
        env, ex = throttled
        env.run(until=300.0)
        omega = ex.roll_interval().omega(chain3.outputs)
        # 1 Mbps / 0.8 Mbit per message = 1.25 msg/s of 8 → ~0.16.
        assert omega < 0.3

    def test_startup_delay_masks_capacity(self, chain3):
        env = Environment()
        provider = CloudProvider(aws_2013_catalog(), startup_delay=120.0)
        deploy(provider, [{"src": 1, "mid": 2, "out": 1}])
        ex = FluidExecutor(
            env,
            chain3,
            provider,
            {"src": ConstantRate(2.0)},
            selection=chain3.default_selection(),
        )
        ex.sync()
        ex.start()
        env.run(until=100.0)
        booting = ex.roll_interval()
        env.run(until=400.0)
        ready = ex.roll_interval()
        assert booting.omega(chain3.outputs) < 0.2
        assert ready.omega(chain3.outputs) > 0.8


class TestReconfiguration:
    def test_sync_preserves_backlog(self, chain3):
        env, ex = make_executor(
            chain3, rate=8.0, allocations=[{"src": 2, "mid": 1, "out": 1}]
        )
        env.run(until=200.0)
        backlog_before = ex.pe_backlog("mid")
        assert backlog_before > 0
        ex.sync()
        assert ex.pe_backlog("mid") == pytest.approx(backlog_before)

    def test_selection_switch_changes_capacity(self, fig1):
        env = Environment()
        provider = CloudProvider(aws_2013_catalog())
        deploy(provider, [{"E1": 1, "E2": 2}, {"E3": 2, "E4": 2}])
        sel = fig1.default_selection()
        ex = FluidExecutor(
            env, fig1, provider, {"E1": ConstantRate(3.0)}, selection=sel
        )
        ex.sync()
        ex.start()
        env.run(until=120.0)
        ex.roll_interval()
        cheap = dict(sel)
        cheap["E2"] = "e2.2"
        ex.set_selection(cheap)
        env.run(until=240.0)
        stats = ex.roll_interval()
        assert stats.processed["E2"] > 0  # keeps flowing after the switch

    def test_vm_removal_migrates_backlog(self, chain3):
        env, ex = make_executor(
            chain3,
            rate=8.0,
            allocations=[{"src": 2, "mid": 1, "out": 1}, {"mid": 4}],
        )
        env.run(until=200.0)
        provider = ex.provider
        victim = [
            r for r in provider.active_instances() if r.allocations == {"mid": 4}
        ][0]
        backlog_before = ex.pe_backlog("mid")
        victim.release_all()
        provider.terminate(victim, env.now)
        ex.sync()
        # Backlog survives the migration (now queued or in flight).
        assert ex.pe_backlog("mid") == pytest.approx(backlog_before, rel=0.01)

    def test_empty_fleet_counts_losses(self, chain3):
        env = Environment()
        provider = CloudProvider(aws_2013_catalog())
        ex = FluidExecutor(
            env,
            chain3,
            provider,
            {"src": ConstantRate(5.0)},
            selection=chain3.default_selection(),
        )
        ex.sync()
        ex.start()
        env.run(until=60.0)
        stats = ex.roll_interval()
        assert stats.omega(chain3.outputs) == 0.0
        assert stats.deliverable["out"] > 0


class TestValidation:
    def test_missing_profile_rejected(self, chain3):
        env = Environment()
        provider = CloudProvider(aws_2013_catalog())
        with pytest.raises(ValueError, match="missing rate profiles"):
            FluidExecutor(
                env, chain3, provider, {}, selection=chain3.default_selection()
            )

    def test_bad_tick_rejected(self, chain3):
        env = Environment()
        provider = CloudProvider(aws_2013_catalog())
        with pytest.raises(ValueError):
            FluidExecutor(
                env,
                chain3,
                provider,
                {"src": ConstantRate(1.0)},
                selection=chain3.default_selection(),
                tick=0.0,
            )

    def test_unknown_pe_on_vm_rejected(self, chain3):
        env = Environment()
        provider = CloudProvider(aws_2013_catalog())
        vm = provider.provision("m1.small", 0.0)
        vm.allocate("ghost", 1)
        ex = FluidExecutor(
            env,
            chain3,
            provider,
            {"src": ConstantRate(1.0)},
            selection=chain3.default_selection(),
        )
        with pytest.raises(ValueError, match="unknown PE"):
            ex.sync()


class OpaquePerformance(ConstantPerformance):
    """Constant performance the engine can only ask VM by VM: phase 1
    has scalar lanes, which no jump and no window spans."""

    cpu_series_view = None


def test_shut_gates_do_not_read_the_kernel(chain3, monkeypatch):
    """With macro-stepping on, a tick reads the kernel's next event only
    while a jump or a window can still be armed.  Here neither ever can:
    the jump gate backs off 64 ticks after each refusal, and scalar
    lanes shut the window gate, so one tick in 64 peeks."""
    env, ex = make_executor(chain3, performance=OpaquePerformance(),
                            macrostep=True)
    peeks = []
    peek = env.peek

    def counted() -> float:
        peeks.append(env.now)
        return peek()

    monkeypatch.setattr(env, "peek", counted)
    env.run(until=640.0)
    assert ex.ticks_executed == 641 and ex.macro_ticks_skipped == 0
    assert peeks == [64.0 * k for k in range(11)]
