"""The package's deliberate public API."""

import importlib
import types

import pytest

import snoopdns


def test_all_lists_exactly_the_re_exported_names():
    exported = {name for name, value in vars(snoopdns).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(snoopdns.__all__) == len(set(snoopdns.__all__))
    assert set(snoopdns.__all__) == exported


# perfbench/run.py's install_tracing wraps these by name: a method is read
# from its class's own __dict__, a function from its module. A refactor
# that moves one (say, hoists step into a base class) fails here instead
# of breaking `perfbench/run.py --trace 1`.
TRACED_METHODS = [
    ("transport", "Prober", "probe"), ("transport", "UdpExchange", "exchange"),
    ("ratelimit", "RateLimiter", "acquire"),
    ("clock", "VirtualClock", "sleep_until"), ("clock", "SystemClock", "sleep_until"),
    ("simnet", "Sim", "handle_query"), ("simnet", "SimExchange", "exchange"),
    ("engine", "TtlRecursiveMachine", "step"), ("engine", "Rd0Machine", "step"),
    ("engine", "TimingMachine", "step"), ("corpus", "ObservationWriter", "write"),
]
TRACED_FUNCTIONS = [
    ("wire", "encode_query"), ("wire", "decode_query"), ("wire", "encode_response"),
    ("wire", "decode_response"), ("engine", "discover_max_ttl"), ("scan", "discover_all"),
    ("scan", "run_scan"), ("estimation", "aggregate"), ("estimation", "estimate"),
    ("estimation", "rank_domains"), ("corpus", "load_observations"),
]


@pytest.mark.parametrize("module,owner,name", TRACED_METHODS)
def test_a_traced_method_is_defined_on_its_own_class(module, owner, name):
    cls = getattr(importlib.import_module(f"snoopdns.{module}"), owner)
    assert callable(cls.__dict__.get(name)), f"{owner}.{name} is not in {owner}.__dict__"


@pytest.mark.parametrize("module,name", TRACED_FUNCTIONS)
def test_a_traced_function_is_a_module_function(module, name):
    fn = getattr(importlib.import_module(f"snoopdns.{module}"), name, None)
    assert isinstance(fn, types.FunctionType), f"snoopdns.{module}.{name}"
