"""Pinned artifacts: the sha256 of every emitted file and the search's step
count for a fixed set of specs.

A change to the analyzer's arithmetic or to the search must leave plans,
C (both shift styles), VHDL and ``report.json`` byte for byte as they are,
and a change in a search's record (``Plan.searches``: its steps, leaves
and prunes) is a change in the search's behaviour. The number of searches
that the grid floor did not cut, each of which makes a ``PlanBuilder``, is
pinned too. The specs are
``demos/specs/fir4.fps``, copies of the benchmark's FIR-5, Horner-8,
``matvec2x3`` and ``matvec2x2`` sources, two of acceptance criterion 06's
fuzz specs under that criterion's config, and three larger rungs: FIR-32,
an 80-term sum and ``matvec4x4``. FIR-64, a 160-term sum and Horner-16 are
held to a step bound instead. One graph with non-decimal constants pins
every node's exact error bound.

``PYTHONPATH=src python tests/test_golden.py`` prints, for each pinned
spec, its builder and step counts and digests now next to the pinned ones,
and exits 1 when any of them moved.
"""

import hashlib
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from fpsynt import Config, emit_c, emit_vhdl, report_json, synthesize
from fpsynt.analysis import PlanBuilder, check_plan
from fpsynt.core import NodeKind
from fpsynt.optimizer import topological_optimize

from conftest import make_fir_src, make_graph, make_horner_src, make_matvec_src, make_sum_src

FIR4 = (Path(__file__).resolve().parent.parent / "demos" / "specs" / "fir4.fps").read_text()

FIR5 = """\
input x0 : sif(1/0/15);
input x1 : sif(1/0/15);
input x2 : sif(1/0/15);
input x3 : sif(1/0/15);
input x4 : sif(1/0/15);
const w0 = -0.150;
const w1 = -0.896;
const w2 = -0.196;
const w3 = 0.801;
const w4 = 0.511;
output y = w0*x0 + w1*x1 + w2*x2 + w3*x3 + w4*x4;
"""

HORNER8 = """\
input x : sif(1/0/15);
const c0 = -0.223;
const c1 = 0.026;
const c2 = -0.181;
const c3 = 0.108;
const c4 = 0.130;
const c5 = 0.532;
const c6 = 0.797;
const c7 = -0.889;
const c8 = -0.212;
output y = c0 + x*(c1 + x*(c2 + x*(c3 + x*(c4 + x*(c5 + x*(c6 + x*(c7 + x*(c8))))))));
"""

MATVEC2X3 = """\
input x0 : sif(1/0/15);
input x1 : sif(1/0/15);
input x2 : sif(1/0/15);
const a00 = -0.838;
const a01 = 0.650;
const a02 = 0.402;
const a10 = 0.115;
const a11 = 0.889;
const a12 = 0.394;
output y0 = a00*x0 + a01*x1 + a02*x2;
output y1 = a10*x0 + a11*x1 + a12*x2;
"""

MATVEC2X2_W32 = """\
input x0 : sif(1/0/31);
input x1 : sif(1/0/31);
const a00 = -0.845;
const a01 = -0.573;
const a10 = -0.394;
const a11 = 0.800;
output y0 = a00*x0 + a01*x1;
output y1 = a10*x0 + a11*x1;
"""

FUZZ04_FIR6_W8 = """\
input x0 : sif(1/0/7);
input x1 : sif(1/0/7);
input x2 : sif(1/0/7);
input x3 : sif(1/0/7);
input x4 : sif(1/0/7);
input x5 : sif(1/0/7);
const w0 = 0.49;
const w1 = 0.046;
const w2 = 0.555;
const w3 = 1.199;
const w4 = -0.705;
const w5 = 0.606;
output y = w0*x0 + w1*x1 + w2*x2 + w3*x3 + w4*x4 + w5*x5;
"""

FUZZ11_FIR8_W32 = """\
input x0 : sif(1/0/15);
input x1 : sif(1/0/15);
input x2 : sif(1/0/15);
input x3 : sif(1/0/15);
input x4 : sif(1/0/15);
input x5 : sif(1/0/15);
input x6 : sif(1/0/15);
input x7 : sif(1/0/15);
const w0 = 0.256;
const w1 = -0.647;
const w2 = 1.188;
const w3 = -0.322;
const w4 = -0.713;
const w5 = -0.016;
const w6 = 0.808;
const w7 = -0.861;
output y = w0*x0 + w1*x1 + w2*x2 + w3*x3 + w4*x4 + w5*x5 + w6*x6 + w7*x7;
"""

FIR32 = make_fir_src([(k + 1) / 100 for k in range(32)])  # 0.01, 0.02, ..., 0.32
SUM80 = make_sum_src(80)
MATVEC4X4 = make_matvec_src(4)


def _fuzz_config(width: int, chain: bool) -> Config:
    return Config(width=width, k_max=1, enable_topology_opt=False, enable_chain_alloc=chain)


# name: (source, config, steps over all searches, then the sha256 of the C,
#        the C with portable shifts, the VHDL, report.json and the searches'
#        records, their fpsynt.optimizer INFO lines, joined by newlines)
GOLDEN = {
    "fir4": (FIR4, Config(width=16), 14,
        "d0947d561794953f24842abd40c591f4f6fef68027d1fb6698fb56ce03e70b62",
        "56310abc2a9135a7c4ab772e1d3eed896709135feb68cc988436a0fe7a9a7c5c",
        "3a2bcc555a318fcb735eb1999870af05c7e63118527eba83cd4409edbbba727a",
        "fee6a7287b01af192716cc6c595ce768356cae7141a25d5ca6b6c521c283346e",
        "74a767983998959f40661796ef203d3a9b6114d6fd3cd43012f9abfd3fd2475b"),
    "fir5": (FIR5, Config(width=16), 17,
        "5cb92d7fe1110054ed5134f99b1c9b850717a869b72802c6e5b78af52c0733d5",
        "08620905109c7ddff1dc949f65afcf2db3db8830d72261214a0472bf5ac8e8ea",
        "80a823140d4fe32e623f388404e2ca1e9b8a0ccdbfb204a11bb6a6b19e3955eb",
        "b0e59e04b23dbae4a73320b54f51483a01e5092dfe298a93e50cefd0c82cc947",
        "17ffaa6bf25734547c53d6070500ec1ff65f2ecd5aff89cbf1679da26c8ca7ad"),
    "horner8": (HORNER8, Config(width=16), 102,
        "5cb96c4acb38dded66ceb112ccd269e8405f9119c5a8a54730dc54f94055c975",
        "1ea91fd5372c155e5b6f4b10e4d00518a9cf79920182fed129b8627947daf933",
        "58aaf11103e158111ff3c3d204e3be8ddb006c934de5c3c91d1eac39069d2ab9",
        "f2c2ab5a6fda8b6ecf0ee3eae4e67c8f9bb9f180d701d27c790629f928620ba0",
        "1ab1bbe2f2689159879ea6d644857d55b15eed414ab385896c7e54be0bd68666"),
    "matvec2x3": (MATVEC2X3, Config(width=16), 19,
        "900c6ea6e82fe691124635f959b4be9968c50a818dbc5783c20e7528c015c33f",
        "c1e4730a6717146c02de628185883039f832586134e7fb136d113e27ea260708",
        "984800c99efe507571a952cff0038663e34ab4fae2537b19651ccfb29a8e7474",
        "d1c7243bf9018000526f9f420bcde1b67348bc78aa366f105df611b7dce50cc0",
        "c0298153252b9f7cd108b5cb9988c31e54b8977bb54b2ab2f75192f8b4c3f503"),
    "matvec2x2_w32": (MATVEC2X2_W32, Config(width=32), 47,
        "a9af20e9d0da91f2a9381897fa189e1517ddc4eb5b5f9f1419a8a0e73147d76f",
        "d0958817827fd78b8f992c1e900bb5ecc8b8265006ccb4ab6b6695ddcca0e863",
        "d4d1d41e1d35dc18e7359437f3d4f17880398afe3c501b7d79fe0a8439f88b19",
        "7d8a5c1af896215d294c03870e93b1e812675b3c856af4003fcc14d069871ce6",
        "a282d1acb8bb22b841a792da962f16ce9204b33ca8e304ca5cee6f46aabde958"),
    "fuzz04_fir6_w8": (FUZZ04_FIR6_W8, _fuzz_config(8, True), 20,
        "966fe1db21bc188f61ddefd7bc7a140e0aaf63312fb565e267596ca9d9cb1a96",
        "89fa49ef6307eb8938e6ea456668f7b54232f243d2f6a4cf1b372aac0b0b4f09",
        "6369eba60d6cda1d16b47fbcc5d9e6626a871183655799f2dabc8b0d012a4c3f",
        "594128b5bfe4e56d27fd1b97c47a3b6035b3250b8b0e3231c6bfbc7383cdcf79",
        "8120825f35398f9d982e102209d6d7b7bae8fa1b46e75e16e1258b2e71055a5d"),
    "fuzz11_fir8_w32": (FUZZ11_FIR8_W32, _fuzz_config(32, False), 134,
        "3c5738782421e5a971b00e223bea3247d237502b7ba08b664fbd415c59874bd1",
        "0325aae94bfc137453361daf91ba3b31c94c56b73a4dff651aac371616c5b9fa",
        "a766605801bc09f1acd40ed082231a655ad6eee920f9340a9d3abde142d16de7",
        "674671ab85d2ef609b67fec316f450136a82e7a3ecdfc0ee87cef415430ce855",
        "d36a6f2ac1e857bcd4535737c8ff251b75371442d8ef0170a36bf26a0b6cadce"),
    "fir32": (FIR32, Config(width=16), 98,
        "1609890642439f7ee366a351fc33ae1dda78b53755c7311fda2585183dd5552e",
        "16fa8a6b037d0dc70db11000915062c59253c014c02abdd732c3086dbbf150e1",
        "fefa06626ca6ddfa9a651f77b448bcfb77161e2d4bf52d7e6905d112943b700c",
        "0a32caf0982f7e6fd81e06a79c4ba6a634374995071a305b1db8e934d581231c",
        "8cafb1a0fc95dcc37468735d9ebe4f65719bc8a552f7e9bb59d81605ad398122"),
    "sum80": (SUM80, Config(width=16), 82,
        "6d50f0c38fdbfa8b8483d23b9336f6bda8b270e40f031f480881bf0f442bba2f",
        "d5e54a1b83640e111d2f9cd7cbc38058956da85e0582a233a5fff53c52c7f3a7",
        "bc9c040ae7ff8cb7331ce3f4a0e7e7e7ba60aa7bb2b8b6219fef2b02ed8f7e46",
        "1b07cdd474c6d865192533f36488e10c5bc5ce778aac52e073c22052ec09edb9",
        "8936454464349683b81ebf271fc8452af90cbb2ebcafae95bc463168b085eddd"),
    "matvec4x4": (MATVEC4X4, Config(width=16), 44,
        "ac74bdc9e6d2a474402ad99ca6b09062c07ac1fac463176904fdd5ffe72e9866",
        "df76970b3ec00d780d37c04a04d91c3cae3a1fc66b3dcb2baeb44c6ed3f70b44",
        "1359002b1351742d986710ca96e877f01f237d9e6c5ac3c42adf21c381170943",
        "5a102ab9cf3672a4e72b6b23cbcac8c4f29fcec6b09bff0ffbe1007bd1cc04e7",
        "78d6eb97f13d04255ad20600c982dfd7ab2129e58a88ea82243edecb48831074"),
}


# name: searches that the grid floor did not cut. Each spec has one, of its
# chain plan or its one candidate, as the floor cuts every other candidate
# before its first step; matvec4x4 has 626 candidates.
BUILDERS = {name: 1 for name in GOLDEN}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _built(searches) -> int:
    """The searches that made a ``PlanBuilder``: those the floor did not cut."""
    return sum(s.cut != "grid floor" for s in searches)


def _current(name: str) -> tuple:
    """What ``test_artifacts_and_step_count_are_pinned`` compares for one
    spec: (builders, steps, C, portable C, VHDL, report.json, records)."""
    source, config = GOLDEN[name][:2]
    plan = synthesize(source, config)
    return (_built(plan.searches), sum(s.steps for s in plan.searches),
            _digest(emit_c(plan, name=name).source),
            _digest(emit_c(plan, name=name, portable_shift=True).source),
            _digest(emit_vhdl(plan, name=name).source),
            _digest(report_json(plan)),
            _digest("\n".join(map(str, plan.searches))))


@pytest.mark.parametrize("name", list(GOLDEN))
def test_artifacts_and_step_count_are_pinned(name):
    assert _current(name) == (BUILDERS[name],) + GOLDEN[name][2:]


# an API graph on which some steps raise CannotFitError at W=8, k_max=2
FAILING_STEPS = make_graph(
    {"v0": (1, 0, 0), "v1": (1, 0, 3)}, {"c0": Fraction(5, 4)},
    [("m0", NodeKind.MUL, ("c0", "v0"), (False, False)),
     ("m1", NodeKind.MUL, ("v0", "v0"), (False, False)),
     ("m2", NodeKind.MUL, ("v1", "c0"), (False, False)),
     ("s0", NodeKind.ADD, ("v0", "m0"), (False, False)),
     ("s1", NodeKind.ADD, ("s0", "m2"), (False, False)),
     ("s2", NodeKind.ADD, ("s1", "m1"), (False, True)),
     ("u", NodeKind.ADD, ("m2", "s0"), (False, False))],
    {"y0": "s2", "y1": "u"})


def test_records_count_what_the_builder_does(monkeypatch):
    """The reference check of the records: on every pinned spec, and on a
    graph where steps fail, the ``PlanBuilder.step`` calls and constructions
    that patched methods count equal the records' step sum and the searches
    the floor did not cut."""
    calls = Counter()
    step, init = PlanBuilder.step, PlanBuilder.__init__

    def counting_step(self, *args, **kwargs):
        calls["step"] += 1
        return step(self, *args, **kwargs)

    def counting_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(PlanBuilder, "step", counting_step)
    monkeypatch.setattr(PlanBuilder, "__init__", counting_init)
    runs = [(name, synthesize, (source, config)) for name, (source, config, *_) in GOLDEN.items()]
    runs.append(("failing-steps", topological_optimize, (*FAILING_STEPS, Config(width=8, k_max=2))))
    for name, run, args in runs:
        calls.clear()
        plan = run(*args)
        assert calls["step"] == sum(s.steps for s in plan.searches), name
        assert calls["init"] == _built(plan.searches), name


@pytest.mark.parametrize("source,bound", [
    (make_fir_src([(k + 1) / 100 for k in range(64)]), 1_000),
    (make_sum_src(160), 1_000),
    (make_horner_src(16), 560),
], ids=["fir64", "sum160", "horner16"])
def test_scale_rungs_finish_within_a_step_bound(source, bound):
    plan = synthesize(source, Config(width=16))
    check_plan(plan)
    assert sum(s.steps for s in plan.searches) <= bound


# constants with odd denominators 3 and 7, and a product of two values that
# both carry error, so the bounds hold the cross term e_a*e_b
ODD_DENOMINATORS = make_graph(
    {"x": (1, 2, 13), "z": (1, 0, 15)}, {"c1": Fraction(1, 3), "c2": Fraction(2, 7)},
    [("t0", NodeKind.MUL, ("c1", "x"), (False, False)),
     ("t1", NodeKind.MUL, ("c2", "x"), (False, False)),
     ("t2", NodeKind.MUL, ("t0", "t1"), (False, False)),
     ("t3", NodeKind.MUL, ("c2", "z"), (False, False)),
     ("t4", NodeKind.ADD, ("t2", "t3"), (False, True)),
     ("t5", NodeKind.ADD, ("t4", "t0"), (False, False))],
    {"y0": "t2", "y1": "t5"})

ODD_DENOMINATOR_ERRORS = {
    "x": "0",
    "z": "0",
    "c1": "1/98304",
    "c2": "1/114688",
    "t0": "1/24576",
    "t0_q": "81917/805306368",
    "t1": "1/28672",
    "t1_q": "90105/939524096",
    "t3": "1/114688",
    "t2": "184714865483797/756604737398243328",
    "t2_q": "230891535278101/756604737398243328",
    "y0": "230891535278101/756604737398243328",
    "t3_q": "262137/3758096384",
    "t5_acc1": "283666684125205/756604737398243328",
    "t5": "360629679497237/756604737398243328",
    "t5_q": "406809167863829/756604737398243328",
    "y1": "406809167863829/756604737398243328",
}


def test_exact_error_bounds_are_pinned():
    plan = topological_optimize(*ODD_DENOMINATORS, Config(width=16))
    assert plan.topology == "source+chain"
    assert sum(s.steps for s in plan.searches) == 106
    assert _built(plan.searches) == 3  # its two topologies are not cut
    assert {n.id: str(plan.info[n.id].err) for n in plan.graph.nodes} == ODD_DENOMINATOR_ERRORS
    assert list(ODD_DENOMINATOR_ERRORS) == [n.id for n in plan.graph.nodes]
    assert all(type(plan.info[n.id].err) is Fraction for n in plan.graph.nodes)


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_golden.py: each spec's current
    # builder and step counts and digests next to the pinned ones; exit 1
    # when any moved
    fields = ("builders", "steps", "c", "c_portable", "vhdl", "report", "counters")
    moved = False
    for name in GOLDEN:
        pins = (BUILDERS[name],) + GOLDEN[name][2:]
        for field, pinned, now in zip(fields, pins, _current(name)):
            moved |= pinned != now
            mark = "same" if pinned == now else "MOVED"
            print(f"{name:16} {field:10} {mark:5} pinned {pinned}  now {now}")
    sys.exit(1 if moved else 0)
