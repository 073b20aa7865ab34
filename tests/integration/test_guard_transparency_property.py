"""Property: guard injection is semantically transparent.

The central correctness requirement of the whole system (paper §3.3
implicitly; §4.1 'No code was modified in the driver' only works if the
transform never changes behaviour): for ANY module and ANY input, the
protected build under an allow-everything policy computes exactly what
the baseline build computes — same return values, same global state.

Hypothesis generates random memory-traffic-heavy programs and checks the
pair; the guard-optimizer variant must match too.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.pipeline import CompileOptions, compile_module
from repro.kernel import Kernel
from repro.policy import CaratPolicyModule, PolicyManager

_M64 = (1 << 64) - 1


@st.composite
def memory_program(draw):
    """A program doing random arithmetic over a global array."""
    n_slots = draw(st.integers(min_value=2, max_value=8))
    n_steps = draw(st.integers(min_value=1, max_value=10))
    lines = [f"long cells[{n_slots}];"]
    body = []
    for step in range(n_steps):
        kind = draw(st.sampled_from(["store", "combine", "swap", "loop"]))
        a = draw(st.integers(0, n_slots - 1))
        b = draw(st.integers(0, n_slots - 1))
        if kind == "store":
            v = draw(st.integers(-(2**31), 2**31))
            body.append(f"cells[{a}] = seed + {v};")
        elif kind == "combine":
            op = draw(st.sampled_from(["+", "^", "|", "&", "*"]))
            body.append(f"cells[{a}] = cells[{a}] {op} cells[{b}];")
        elif kind == "swap":
            body.append(
                f"{{ long t = cells[{a}]; cells[{a}] = cells[{b}]; "
                f"cells[{b}] = t; }}"
            )
        else:
            body.append(
                f"for (int i = 0; i < {draw(st.integers(1, 6))}; i++) "
                f"{{ cells[{a}] += cells[{b}] + i; }}"
            )
    body.append("long acc = 0;")
    body.append(f"for (int i = 0; i < {n_slots}; i++) {{ acc += cells[i] * (i + 1); }}")
    body.append("return acc;")
    lines.append("__export long run(long seed) {")
    lines.extend("    " + l for l in body)
    lines.append("}")
    return "\n".join(lines)


def _execute(source: str, protect: bool, opt_level: int, seeds):
    kernel = Kernel()
    if protect:
        policy = CaratPolicyModule(kernel).install()
        PolicyManager(kernel).set_default(True)  # allow-everything
    compiled = compile_module(
        source,
        CompileOptions(
            module_name="prog", protect=protect, opt_level=opt_level,
        ),
    )
    loaded = kernel.insmod(compiled)
    return [kernel.run_function(loaded, "run", [s & _M64]) for s in seeds]


@settings(max_examples=40, deadline=None)
@given(
    memory_program(),
    st.lists(st.integers(0, _M64), min_size=1, max_size=3),
)
def test_guarded_equals_baseline(source, seeds):
    baseline = _execute(source, protect=False, opt_level=0, seeds=seeds)
    guarded = _execute(source, protect=True, opt_level=0, seeds=seeds)
    assert guarded == baseline


@settings(max_examples=25, deadline=None)
@given(
    memory_program(),
    st.lists(st.integers(0, _M64), min_size=1, max_size=2),
)
def test_guard_optimizer_preserves_semantics(source, seeds):
    plain = _execute(source, protect=True, opt_level=0, seeds=seeds)
    optimized = _execute(source, protect=True, opt_level=1, seeds=seeds)
    assert optimized == plain


@settings(max_examples=30, deadline=None)
@given(memory_program(), st.integers(0, _M64))
def test_denied_programs_fail_as_clean_panics(source, seed):
    """Under default-deny, any generated program either runs (it touched
    nothing) or dies with the paper's diagnosis — never an internal
    error.  The panic must identify the module by name."""
    from repro.kernel import KernelPanic

    kernel = Kernel()
    CaratPolicyModule(kernel).install()  # empty policy, default deny
    compiled = compile_module(
        source, CompileOptions(module_name="prog")
    )
    loaded = kernel.insmod(compiled)
    try:
        kernel.run_function(loaded, "run", [seed])
    except KernelPanic as e:
        assert "CARAT KOP: forbidden" in str(e)
        assert "module prog" in str(e)
        assert kernel.panicked is not None
