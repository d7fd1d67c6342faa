"""Seeded results and stage reports pinned to recorded values.

The Monte Carlo reference trajectory in test_experiments shares its gates
and noise channels with the engine, so a kernel change that moves a
seeded outcome would still agree with it; these values would not.  Counts
are compared exactly, floats to the 12 significant digits of the CSV
format, and a pinned 0 exactly: the entropy of a pure run at eps = 0 is
reported as 0, not as round-off.
"""

import hashlib
import itertools

import numpy as np
import pytest

from mixshor.circuit import InitialStateKind, build_instance
from mixshor.experiments import (
    _sweep_outcomes,
    ensemble_profile,
    extraction_success_mask,
    find_entanglement_crossing,
    mix_sweep,
    monte_carlo_sweep,
    tree_leaf_distribution,
    tree_profile,
)
from mixshor.noise import MEASUREMENT, PAULI, NoiseConfig

PURE = InitialStateKind.PURE
MIXED_N = InitialStateKind.MIXED_N
MIXED_FULL = InitialStateKind.MIXED_FULL


def close(value):
    return pytest.approx(value, rel=1e-12, abs=0.0)


# seed: success counts of the noise15 benchmark sweep (N=15, a=2, pure,
# p = 0.1 and 0.3, 250 runs, control not excluded), per channel
NOISE15 = {
    1: {"pauli": [52, 23], "measurement": [87, 46]},
    2: {"pauli": [65, 29], "measurement": [87, 40]},
    3: {"pauli": [54, 27], "measurement": [84, 40]},
    4: {"pauli": [44, 24], "measurement": [79, 43]},
    5: {"pauli": [66, 25], "measurement": [95, 50]},
}


@pytest.mark.parametrize("channel", ["pauli", "measurement"])
@pytest.mark.parametrize("seed", list(NOISE15))
def test_noise15_success_counts(seed, channel):
    inst = build_instance(15, 2)
    rows = monte_carlo_sweep(inst, PURE, channel, [0.1, 0.3], 250, exclude_control=False, seed=seed)
    assert [r.successes for r in rows] == NOISE15[seed][channel]


# (N, a, kind, channel): per seed, the success counts at p = 0.1 and 0.3 of
# 50 runs, control not excluded, recorded while every stage still formed
# its control blocks.  (10, 3) has multiplier 1 on 6 of its 8 stages, and
# (21, 8), of order 2, on 9 of its 10, on 32-dimensional work blocks
SWEEPS = {
    (10, 3, MIXED_N, "pauli"): {1: [11, 4], 2: [8, 6]},
    (21, 8, PURE, "measurement"): {1: [18, 5], 2: [16, 11]},
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("N, a, kind, channel", list(SWEEPS))
def test_sweep_success_counts(N, a, kind, channel, seed):
    inst = build_instance(N, a)
    rows = monte_carlo_sweep(inst, kind, channel, [0.1, 0.3], 50, exclude_control=False, seed=seed)
    assert [r.successes for r in rows] == SWEEPS[(N, a, kind, channel)][seed]


# (N, a): sha256 of the outcomes of runs 0..63 under seed 7 at every kind,
# channel and exclude_control, p = 0, 0.05, 0.3 and 1, recorded while the
# control's noise was an explicit channel on its blocks; each kind,
# channel and exclude_control adds one (4, 64) little-endian int64 array
FINGERPRINTS = {
    (15, 2): "ea638e9536471d6357d02fe14c17057941dd347162d86cb2e59b76b63350141d",
    (10, 3): "800e616ba998d0775725874d5614062840022e31569dd13cfd316a8fbf91e464",
    (21, 8): "a5d57b1f6531c8b29da4674e8ed4d5b20e1debf4da5de735de01d8661c741efc",
    (21, 2): "11602ee0c01cca5be355084ff7a2892aba89e2f9c5d1ac7c9d613246bf09a491",
    (9, 8): "2db744731f640baea896606f907f56d841b6d31a1a94aebd4ab827910cf03765",
    (15, 4): "2200785a95a1e6a6fab4dd2470e20792d995a11c89e3aba94fa215ac36a25f2b",
    (6, 5): "b35c3888f045bcafb36d66b99ce259dddee8c3c834d36cef2e2253021a2a197e",
    (26, 5): "c857f3222e78fa14848d8896972826bacd98c685982b01f75c6d6b90d2868214",
}


@pytest.mark.parametrize("N, a", list(FINGERPRINTS))
def test_sweep_outcome_fingerprints(N, a):
    inst = build_instance(N, a)
    digest = hashlib.sha256()
    cases = itertools.product(InitialStateKind, (PAULI, MEASUREMENT), (False, True))
    for kind, channel, exclude in cases:
        configs = [NoiseConfig(channel, p, exclude) for p in (0.0, 0.05, 0.3, 1.0)]
        digest.update(_sweep_outcomes(inst, kind, configs, 64, 7).astype("<i8").tobytes())
    assert digest.hexdigest() == FINGERPRINTS[(N, a)]


# (kind, epsilon): whole-run average entanglement, last mixedness, exact success probability
TREE_15_2 = {
    (PURE, 0.0): (0.21726865155855707, 0.0, 0.5),
    (PURE, 0.25): (0.11970382121053122, 1.6225562489182659, 0.1880414936790024),
    (MIXED_N, 0.0): (0.1145430902531873, 1.9412943652509174, 0.4),
    (MIXED_N, 0.25): (0.018542149008957606, 3.6622263153376258, 0.1692762339200542),
    (MIXED_FULL, 0.0): (0.10007248970722907, 2.0637218755408697, 0.375),
    (MIXED_FULL, 0.25): (0.008624472010866538, 3.7597229054108547, 0.16456682042517784),
}


@pytest.mark.parametrize("kind, eps", list(TREE_15_2))
def test_tree_profile_15_2(kind, eps):
    inst = build_instance(15, 2)
    result = tree_profile(inst, kind, eps)
    entanglement, mixedness, success = TREE_15_2[(kind, eps)]
    assert result.whole_run_average_entanglement() == close(entanglement)
    assert result.reports[-1].mixedness == close(mixedness)
    assert float(result.leaf_probs[extraction_success_mask(inst)].sum()) == close(success)


# (N, a), every composite N <= 16 with a base of largest order: the
# entanglement crossings of mixed-full and mixed-n, and the mixed-full
# success probability at its crossing.  The crossings are compared exactly:
# each is a grid point or a bisection midpoint, chosen by the decisions
# of the search alone
CROSSINGS = {
    (6, 5): (0.25, 0.5, 0.20816784510491404),
    (8, 3): (0.0, 0.0, 0.375),
    (9, 2): (0.4456875, 0.5, 0.050423734556578934),
    (10, 3): (0.33287500000000003, 0.5, 0.12843561008278678),
    (12, 5): (0.25, 0.5, 0.1549239878856419),
    (14, 3): (0.444625, 0.5, 0.0383755638091632),
    (15, 2): (0.3963125, 0.5, 0.0964461815765488),
    (16, 3): (0.0, 0.0, 0.25),
}


@pytest.mark.parametrize("N, a", list(CROSSINGS))
def test_entanglement_crossings(N, a):
    inst = build_instance(N, a)
    full, mixed_n, success = CROSSINGS[(N, a)]
    assert find_entanglement_crossing(inst, MIXED_FULL) == full
    assert find_entanglement_crossing(inst, MIXED_N) == mixed_n
    (row,) = mix_sweep(inst, MIXED_FULL, [full])
    assert row.success_prob == close(success)


# (N, a) for every composite N in 6..31: the base of largest order (the
# smallest on ties) and N - 1, the pairs of the leaf_sweep benchmark
LEAF_PAIRS = [
    (6, 5), (8, 3), (8, 7), (9, 2), (9, 8), (10, 3), (10, 9), (12, 5), (12, 11),
    (14, 3), (14, 13), (15, 2), (15, 14), (16, 3), (16, 15), (18, 5), (18, 17),
    (20, 3), (20, 19), (21, 2), (21, 20), (22, 7), (22, 21), (24, 5), (24, 23),
    (25, 2), (25, 24), (26, 7), (26, 25), (27, 2), (27, 26), (28, 3), (28, 27),
    (30, 7), (30, 29),
]

# sha256 over the little-endian leaf distributions of LEAF_PAIRS, every kind
# in InitialStateKind order, recorded while the tree was walked stage by stage
LEAVES = "dc74f5eac93d5aa058aa338f9d81396817b628ea674b2edcd02eafe999ea7e8d"


def test_leaf_distributions_bit_for_bit():
    digest = hashlib.sha256()
    for (N, a), kind in itertools.product(LEAF_PAIRS, InitialStateKind):
        digest.update(tree_leaf_distribution(build_instance(N, a), kind).astype("<f8").tobytes())
    assert digest.hexdigest() == LEAVES


# kind: whole-run mean avg_logneg and last mixedness of the 4-bit ensemble,
# recorded before the mixed kinds ran one tree per pair {a, a^-1 mod N}
ENSEMBLE_4 = {
    MIXED_N: (0.19204131967089744, 1.9480321903192266),
    MIXED_FULL: (0.1271872306906013, 2.5190015325931445),
}


@pytest.mark.parametrize("kind", list(ENSEMBLE_4))
def test_ensemble_profile_4(kind):
    reports = ensemble_profile(4, kind)
    entanglement, mixedness = ENSEMBLE_4[kind]
    assert np.mean([r.avg_logneg for r in reports]) == close(entanglement)
    assert reports[-1].mixedness == close(mixedness)


# kind: (avg_logneg, mixedness) at each of the 16 sampling points of the
# 4-bit ensemble, recorded while the ensemble mean re-read every tree's reports
ENSEMBLE_4_POINTS = {
    PURE: [
        (0.29333333333333333, 0.0),
        (0.15999999999999998, 0.0),
        (0.35786111742470983, 0.0),
        (0.20993019521325823, 0.0),
        (0.30942018078333555, 0.0),
        (0.2262643918151857, 0.0),
        (0.2855435712488901, 0.0),
        (0.2298620772023141, 0.0),
        (0.26325212228850753, 0.0),
        (0.23102801181881616, 0.0),
        (0.2505062529728603, 0.0),
        (0.23155036074364874, 0.0),
        (0.4556681600882274, 0.0),
        (0.3383842127961549, 0.0),
        (0.9425057426894503, 0.0),
        (0.6787991613696149, 0.0),
    ],
    MIXED_N: [
        (0.103774723458071, 3.6100209035710646),
        (0.058581407628278695, 3.3941472205545367),
        (0.13946554605926464, 3.3941472205545367),
        (0.12874027226365056, 3.184962742270063),
        (0.15818396375341565, 3.184962742270063),
        (0.15191035135956657, 3.0938852707058593),
        (0.16441012060133622, 3.0938852707058593),
        (0.16074038570546684, 3.049431329997816),
        (0.16668258241100936, 3.049431329997816),
        (0.1646818897830339, 3.0293959310789944),
        (0.16758497706419181, 3.0293959310789944),
        (0.166540831257507, 3.0201009692341323),
        (0.2345902811458438, 3.0201009692341323),
        (0.23150488235738167, 2.7244374749280555),
        (0.4415608257734724, 2.7244374749280555),
        (0.4337080741128684, 1.9480321903192261),
    ],
    MIXED_FULL: [
        (0.06682185217077796, 4.0),
        (0.03223888725908469, 3.791562466058848),
        (0.08801440596189884, 3.791562466058848),
        (0.07882516119151228, 3.621435498312833),
        (0.09968911679324177, 3.621435498312833),
        (0.09478176892363047, 3.549951666174497),
        (0.10377032003783718, 3.549951666174497),
        (0.10101763018506563, 3.5160485692712684),
        (0.1053241135799728, 3.5160485692712684),
        (0.10384864845044572, 3.50098443523176),
        (0.10596032307329464, 3.50098443523176),
        (0.10519588767779604, 3.4940539522812317),
        (0.15846835006560647, 3.4940539522812317),
        (0.15440994246567366, 3.2187898580978263),
        (0.32440040478612764, 3.2187898580978263),
        (0.312228878427655, 2.519001532593145),
    ],
}


@pytest.mark.parametrize("kind", list(ENSEMBLE_4_POINTS))
def test_ensemble_profile_4_every_point(kind):
    reports = ensemble_profile(4, kind)
    assert len(reports) == len(ENSEMBLE_4_POINTS[kind])
    for report, (entanglement, mixedness) in zip(reports, ENSEMBLE_4_POINTS[kind]):
        assert report.avg_logneg == close(entanglement)
        assert report.mixedness == close(mixedness)
