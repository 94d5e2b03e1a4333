"""Each built-in law's hook expressions and the compile cost of its two-cycles kernel.

Run as ``PYTHONPATH=src python tests/kernel_costs.py``. For each built-in
law it prints the four hook expressions at gain 1, so a change to a law's
definition shows, and the time and source size of the flow kernel, the
RK4 loop and the flow kernel for NumPy arrays compiled afresh for the
two-cycles graph, so a change that grows the generated source shows its
cost. The hooks compile at import, before ``compile`` is timed.
"""

import builtins
import time

import formation_forge as ff


def main():
    compiled, compile_builtin = [], builtins.compile

    def timed(source, *args, **kwargs):
        start = time.perf_counter()
        code = compile_builtin(source, *args, **kwargs)
        compiled.append((time.perf_counter() - start, len(source)))
        return code

    builtins.compile = timed
    try:
        for name in ff.BUILTIN_LAW_NAMES:
            ff.graph_matrices.cache_clear()
            law = ff.builtin_law(name)
            lengths = ff.TargetLengths.from_values((2.0, 2.6, 2.0, 3.3, 1.4), law.convention)
            b = ff.VectorFieldBundle(ff.two_cycles(), law, lengths)
            compiled.clear()
            ff.integrate_ode(b.flow, [0.1, -0.2, 1.7, 0.3, 0.9, 1.6, -1.2, 1.1], 0.0, 1e-3)
            (kernel_s, kernel_chars), (loop_s, _) = compiled
            compiled.clear()
            b.array_flow(b.lengths.d)
            [(array_s, array_chars)] = compiled
            hooks = "; ".join(f"{hook} = {getattr(law, hook).source}" for hook in
                              ("weight", "weight_dlen", "weight_dtarget", "weight_dlen2"))
            print(f"{name} hooks at gain 1 (c = {law.c}): {hooks}")
            print(f"{name} on two-cycles: kernel compiled in {1e3 * kernel_s:.2f} ms "
                  f"({kernel_chars} characters of source), RK4 loop in {1e3 * loop_s:.2f} ms, "
                  f"array kernel in {1e3 * array_s:.2f} ms ({array_chars} characters)")
    finally:
        builtins.compile = compile_builtin


if __name__ == "__main__":
    main()
