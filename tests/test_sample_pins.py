"""Digests of every bit the sweep, the census and Sotomayor's test produce on drawn targets.

fig2 and sweep_s0 pin one target set each; these pin twelve singular
members and twelve feasible target sets under both gradient laws, so a
rewrite of a per-sample call that moves any bit of a kind, a position, a
spectrum or a Sotomayor field fails here.
"""

import hashlib

import numpy as np
import pytest

from formation_forge.bifurcation import mu_sweep, sotomayor_at_witness
from formation_forge.dynamics import VectorFieldBundle, builtin_law
from formation_forge.equilibria import census, solve_ancillary_aligned
from formation_forge.errors import InfeasibleLengthsError
from formation_forge.graph import two_cycles
from formation_forge.rigidity import (
    TargetLengths, realize_two_cycles, singular_witnesses,
)
from normal_forms import one_spectrum
from test_equilibria import census_digest, singular_members

LAWS = ("gradient_squared", "gradient_plain")

# sha256 per law of the aligned records, the sweep (eps 0.2, 21 samples, third
# edge) with each point's gauge spectrum, and every Sotomayor field at the
# first witness, over the twelve drawn members of singular_members(12, seed=1).
SINGULAR_PINS = {
    "gradient_squared": "f03bcbe0ca042a4e744a129f398acda1760986329031eec1b544b77fa5dd26df",
    "gradient_plain": "0f83fda52fc31234471068d8b6c2652df668505c40fb7f6f2b9634a763097f8b",
}

# sha256 per law of census(n_random=0) over FEASIBLE_COUNT feasible target sets.
CENSUS_PINS = {
    "gradient_squared": "505970e2c90b470d5b1c0201bf7faad700c6a6a2185e5bdf0cbd00169706f405",
    "gradient_plain": "e4b499fd8ef1d0ffa29c1ef19219537df90eb3edb47848fd2b155eed55a00aa2",
}
FEASIBLE_COUNT = 12


def bundle(law_name, d):
    law = builtin_law(law_name)
    return VectorFieldBundle(graph=two_cycles(), law=law, lengths=TargetLengths(d=d))


def feasible_targets(count, seed):
    """``count`` squared target sets uniform on [0.25, 40]^5 that two-cycles realizes."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        d = tuple(rng.uniform(0.25, 40.0, 5).tolist())
        try:
            realize_two_cycles(two_cycles(), TargetLengths(d=d))
        except InfeasibleLengthsError:
            continue
        found.append(d)
    return found


def update(h, *values):
    """Feed strings as UTF-8 and numbers, or arrays of them, as their float64 or complex bytes."""
    for v in values:
        if isinstance(v, str):
            h.update(v.encode())
        elif isinstance(v, (tuple, list)) and v and isinstance(v[0], complex):
            h.update(np.array(v, dtype=complex).tobytes())
        else:
            h.update(np.ascontiguousarray(v, dtype=float).tobytes())


def singular_digest(law_name):
    h = hashlib.sha256()
    for d in singular_members(12, seed=1)[1:]:
        b = bundle(law_name, d)
        for rec in solve_ancillary_aligned(b):
            update(h, rec.kind, repr((rec.index, rec.stable)), rec.framework.x,
                   rec.spectrum_gauge.values, rec.residual)
        for p in mu_sweep(b, eps=0.2, samples=21, mu_edge=2):
            spec = one_spectrum(b.with_lengths(b.lengths.perturbed(2, p.mu)), p.framework)
            update(h, p.branch, repr(p.stable), p.mu, p.framework.x, p.leading_real, spec.values)
        witness = singular_witnesses(realize_two_cycles(b.graph, b.lengths))[0]
        r = sotomayor_at_witness(b, witness, 2)
        update(h, repr((r.zero_eig_unique, r.others_negative, r.verdict, r.degenerate)),
               r.w, r.v, [r.t_mu, r.t_quad, r.t_mixed, r.fmu_norm], r.slice_spectrum.values)
    return h.hexdigest()


@pytest.mark.parametrize("law_name", LAWS)
def test_singular_members_are_pinned(law_name):
    assert singular_digest(law_name) == SINGULAR_PINS[law_name]


@pytest.mark.parametrize("law_name", LAWS)
def test_census_records_are_pinned(law_name):
    h = hashlib.sha256()
    for d in feasible_targets(FEASIBLE_COUNT, seed=2):
        report = census(bundle(law_name, d), n_random=0, seed=0)
        h.update(census_digest(report).encode())
        update(h, repr(report.dropped_seeds))
    assert h.hexdigest() == CENSUS_PINS[law_name]
