"""Checksums of outputs that a refactor of the rules, the config loader or the
index-set construction must not move: the greedy node tables, one refined
minimum of the min-Lebesgue objective, what `load_config` makes of a fixed
corpus of config files (the config, and the target fields a file sets), the
curved sets `lambda_curved` makes of a fixed corpus of weights and levels, the
margins `margin` finds of a fixed corpus of lower sets, and the tail minima
`curved_tail_min` gives on a fixed corpus of weights and starts.

The digests were computed before the refactors they guard and are not
re-derived: a failure here means the code changed an output.
"""

import functools
import hashlib
import math
import random

import numpy as np

from adasg import cli
from adasg import rules1d as r1
from adasg.multiindex import (
    CLASSIC_KINDS,
    CurvedWeights,
    IndexSet,
    curved_tail_min,
    lambda_classic,
    lambda_curved,
    margin,
)

NODE_TABLES = {
    ("leja", 60): "1e5de29904f8e8e53492422d36290f6009a7b38eeff961c370ea68bf7ebd4853",
    ("max_lebesgue", 12): "93f7e0fedf2b56602e5db9e3514ba59e6adc1e5fda0afd508ba9565a6136437e",
    ("min_delta", 8): "749f05fee1abe47bc7d375d61523d0dfa474317ef4875254f40f700f2267b841",
}
MIN_LEBESGUE_4 = "18a7588416b7758d8ec1148323df21ead58b5935a1ade14a84877ed9f8231ef1"
CURVED_SETS = "9a4e85d2bf9f32690c8267fa0ef779a39f6f9a9bb6ea8529cc7d262da4bf6761"
MARGINS = "c3584b52cc346009cdff7c5904db32dfab810cb3fcab12907c7326f8c027b7eb"
TAIL_MINIMA = "5cdc01e0a9c21c4d4a3a349105059bd95b08ff94259cd22cfd0007a89a8bd1d0"
CONFIG_CORPUS = "41ea89fe2e6f01020e9eae3003eb5069e75b16aaf01f95d4b7a57d83722d1587"


def _digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()


def test_greedy_node_tables_are_pinned():
    got = {(kind, n): _digest(r1.family_nodes(kind, n)) for kind, n in NODE_TABLES}
    assert got == NODE_TABLES


def test_min_lebesgue_refined_minimum_is_pinned():
    # the only greedy rule whose refinement searches for a minimum through
    # the augmented Lebesgue constant
    nodes = r1.greedy_sequence("min_lebesgue", 4, candidate_count=10**4 + 1, probe_count=10**3)
    assert _digest(nodes) == MIN_LEBESGUE_4


# per run key: values the loader accepts, then values it refuses (malformed
# or out of range); the target keys get only values their parser reads (a
# malformed value of a key the chosen target does not use was ignored by
# the loader the digest was made with)
_RUN_VALUES = {
    "rule": (["leja", "clenshaw_curtis", "fejer2", "min_delta_odd", "rleja_double2"], ["bogus"]),
    "fit_source": (["legendre"], ["fourier"]),
    "fit_beta": (["true", "false", "yes", "off"], ["maybe"]),
    "batch": (["minimal", "4", "16"], ["0", "-2", "lots"]),
    "max_iterations": (["0", "5", "200"], ["x"]),
    "max_samples": (["10", "800"], ["1e3"]),
    "probe_count": (["0", "100", "1000"], ["-3"]),
    "probe_seed": (["7", "20240101"], ["s"]),
    "initial": (["total_degree", "tensor", "curved", "hyperbolic", "smolyak", "bogus"], []),
    "initial_level": (["2", "3.5", "nan"], ["x"]),
    "initial_alpha": (["1,1,1", "1,0.5", "2"], ["a,b"]),
    "initial_beta": (["0,0,0", "0.5,-0.25", "1"], ["a"]),
    "min_magnitude": (["1e-14", "1e-6"], ["x"]),
}
_TARGETS = ["rational", "expsum", "gaussian_peak", "legendre_mode", "external"]


def _vector(rng, d, values):
    if rng.random() < 0.1:
        d += rng.choice([-1, 1]) if d > 1 else 1  # the wrong length, never empty
    return ",".join(rng.choice(values) for _ in range(d))


def _target_values(rng, d):
    return {
        "target_c0": rng.choice(["3", "0.5", "10"]),
        "target_c": _vector(rng, d, ["1", "0.5", "0.25", "0"]),
        "target_t": _vector(rng, d, ["0", "0.1", "-0.2"]),
        "target_nu": _vector(rng, d, ["0", "1", "2"]),
        "external_workdir": rng.choice(["ext", ""]),
        "external_command": rng.choice(["", "python3 eval.py"]),
        "external_timeout": rng.choice(["5", "600", "0.5"]),
    }


def _config_corpus(count=400, seed=20261018):
    """Config file texts drawn from a fixed seed: a target (or none, for the
    default), a dimension (sometimes missing, zero or malformed), a random
    subset of the other keys with now and then a refused value, and now and
    then an unknown key or a line without '='."""
    rng = random.Random(seed)
    for _ in range(count):
        lines = []
        d = rng.choice([1, 2, 3, 3, 4])
        roll = rng.random()
        if roll < 0.92:
            lines.append(f"d = {d}")
        elif roll < 0.95:
            lines.append(rng.choice(["d = three", "d = 0"]))
        target = rng.choice(_TARGETS + [None])
        if target is not None:
            lines.append(f"target = {target}")
        for key, (good, bad) in _RUN_VALUES.items():
            if rng.random() < 0.3:
                refused = bad and rng.random() < 0.05
                lines.append(f"{key} = {rng.choice(bad if refused else good)}")
        for key, value in _target_values(rng, d).items():
            if rng.random() < 0.85:
                lines.append(f"{key} = {value}")
        roll = rng.random()
        if roll < 0.02:
            lines.append("bogus_key = 1")
        elif roll < 0.04:
            lines.append("no equals sign here")
        rng.shuffle(lines)
        yield "\n".join(lines) + "\n"


# the target fields a config file sets
_TARGET_FIELDS = ("kind", "dim", "params", "workdir", "command", "timeout")


def test_config_files_load_as_pinned(tmp_path):
    outcomes = []
    for n, text in enumerate(_config_corpus()):
        path = tmp_path / f"{n}.cfg"
        path.write_text(text)
        try:
            config, target = cli.load_config(path)
            outcomes.append(repr((config, [getattr(target, f) for f in _TARGET_FIELDS])))
        except Exception as err:  # noqa: BLE001 - the error's type is the outcome
            outcomes.append(type(err).__name__)
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == CONFIG_CORPUS


def _curved_corpus(count=300, seed=20261020):
    """Curved weights and levels drawn from a fixed seed: d = 1..4, alpha in
    [0.3, 2], beta either in [0, alpha] or in [-4 alpha, alpha], and a level
    up to 5 above the least weight.  Half the levels are then moved exactly
    onto the tail-minimum sum of a member of the set they select, summed
    left to right as membership is, so ties at the level are exercised."""
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(1, 4)
        alpha = [rng.uniform(0.3, 2.0) for _ in range(d)]
        low = rng.choice([0.0, -4.0])
        beta = [a * rng.uniform(low, 1.0) for a in alpha]
        w = CurvedWeights(alpha, beta)
        floor = sum(curved_tail_min(a, b, 0) for a, b in zip(alpha, beta))
        L = floor + rng.uniform(-0.5, 5.0)
        if rng.random() < 0.5:
            members = lambda_curved(w, L).members
            if members:
                nu = rng.choice(members)
                L = 0.0
                for a, b, t in zip(alpha, beta, nu):
                    L += curved_tail_min(a, b, t)
        yield w, L


def test_curved_sets_are_pinned():
    sets = [repr(lambda_curved(w, L).members) for w, L in _curved_corpus()]
    assert hashlib.sha256("\n".join(sets).encode()).hexdigest() == CURVED_SETS


def _margin_corpus(seed=20261021, most=300):
    """Lower sets drawn from a fixed seed: at each d = 1..8, sets of every
    classic kind and curved sets, with alpha in [0.3, 2] and (for curved
    sets) beta in [0, alpha] or [-4 alpha, alpha]. Each starts from a small
    level, raised by a factor 1.25 up to 12 times while the raised set has
    at most `most` members.  Then the empty set at d = 1..3, a d=16
    total-degree set weighted by 1 - log c_k with c_k = (k+1)^-1.5 (826
    members), and the d=32 total-degree-2 set (561 members, 5984 margin
    levels)."""
    rng = random.Random(seed)

    def grown(make, level):
        s = make(level)
        for _ in range(rng.randint(0, 12)):
            level *= 1.25
            if len(bigger := make(level)) > most:
                break
            s = bigger
        return s

    for d in range(1, 9):
        for _ in range(6):
            alpha = [rng.uniform(0.3, 2.0) for _ in range(d)]
            for kind in CLASSIC_KINDS:
                low = 1.0 if kind == "hyperbolic" else 0.0
                yield grown(functools.partial(lambda_classic, kind, alpha), low + rng.uniform(0.2, 1.0))
            beta = [a * rng.uniform(rng.choice([0.0, -4.0]), 1.0) for a in alpha]
            w = CurvedWeights(alpha, beta)
            floor = sum(curved_tail_min(a, b, 0) for a, b in zip(alpha, beta))
            yield grown(lambda excess: lambda_curved(w, floor + excess), rng.uniform(0.2, 1.0))
    for d in (1, 2, 3):
        yield IndexSet(d, [])
    yield lambda_classic("total_degree", [1 - math.log((k + 1) ** -1.5) for k in range(16)], 11.0)
    yield lambda_classic("total_degree", [1.0] * 32, 2.0)


def test_margins_are_pinned():
    margins = [repr(margin(s)) for s in _margin_corpus()]
    assert hashlib.sha256("\n".join(margins).encode()).hexdigest() == MARGINS


def _tail_corpus(count=20000, seed=20261021):
    """(alpha, beta, start) drawn from a fixed seed, start in 0..8, one kind
    per draw: beta >= 0; beta exactly 0.0 or -0.0; beta < 0 at random;
    t* = -beta/alpha - 1 an exact integer (alpha a power of 2); and t* in
    (start, start + 1), that is start = floor(t*) for a t* that is not an
    integer."""
    rng = random.Random(seed)
    for _ in range(count):
        kind = rng.randrange(5)
        alpha = rng.uniform(0.05, 3.0)
        start = rng.randint(0, 8)
        if kind == 0:
            beta = alpha * rng.uniform(0.0, 2.0)
        elif kind == 1:
            beta = rng.choice([0.0, -0.0])
        elif kind == 2:
            beta = -alpha * rng.uniform(0.0, 12.0)
        elif kind == 3:
            alpha = rng.choice([0.125, 0.25, 0.5, 1.0, 2.0])
            beta = -alpha * (rng.randint(0, 12) + 1)
        else:
            tstar = rng.randint(0, 8) + rng.uniform(0.01, 0.99)
            beta = -alpha * (tstar + 1.0)
            start = math.floor(-beta / alpha - 1.0)
        yield alpha, beta, start


def test_tail_minima_are_pinned():
    values = [curved_tail_min(a, b, start) for a, b, start in _tail_corpus()]
    got = hashlib.sha256(np.array(values, dtype="<f8").tobytes()).hexdigest()
    assert got == TAIL_MINIMA
