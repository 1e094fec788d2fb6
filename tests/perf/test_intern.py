"""Hash-consing layer: cached hashes, interning, and pickling.

The correctness obligations of ``repro.perf.intern`` are (1) the cached
hash always agrees with structural equality within a process (it is
Python's ``hash``, so string components follow ``PYTHONHASHSEED``), (2)
interning returns equal objects by identity without ever changing
equality, (3) pickles carry only constructor arguments (``__reduce__``),
so restored states re-normalize, re-intern, and re-seal their hashes on
load, and (4) nothing observable depends on the hash seed: explorations,
sampled runs and checkpoints resumed in another process agree.
"""

import itertools
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import repro
from repro.memory.memory import Memory
from repro.memory.message import Message
from repro.memory.timemap import BOTTOM_VIEW, TimeMap, View
from repro.memory.timestamps import GRANULE
from repro.perf.intern import (
    Interner,
    clear_interners,
    intern_view,
    interner_stats,
)
from repro.semantics.machine import initial_machine_state
from repro.semantics.threadstate import LocalState, ThreadState
from repro.lang.builder import straightline_program
from repro.lang.syntax import AccessMode, Const, Load, Print, Reg, Store


def _program():
    return straightline_program(
        [
            [Store("x", Const(1), AccessMode.RLX), Load("r1", "y", AccessMode.RLX), Print(Reg("r1"))],
            [Store("y", Const(1), AccessMode.RLX), Load("r2", "x", AccessMode.RLX), Print(Reg("r2"))],
        ],
        atomics={"x", "y"},
    )


class TestCachedHashes:
    def test_equal_values_equal_hashes(self):
        a = TimeMap((("x", 7), ("y", 0)))
        b = TimeMap((("x", 7),))  # zero entries are dropped: structurally equal
        assert a == b
        assert hash(a) == hash(b)
        assert a._hashcode == b._hashcode

    def test_distinct_values_distinct(self):
        a = TimeMap((("x", 7),))
        b = TimeMap((("x", 8),))
        assert a != b

    def test_hash_survives_dataclass_replace(self):
        local = LocalState(func="t1", label="entry", offset=0)
        moved = local.set_reg("r1", 7)
        assert moved != local
        assert hash(moved) == hash(LocalState(func="t1", label="entry", offset=0,
                                              regs=(("r1", 7),)))

    def test_summed_hashes_do_not_collide_on_traded_entries(self):
        # Time maps and memories hash as sums of entry hashes.  Entries
        # that trade timestamps or values leave the sum of raw tuple hashes
        # nearly unchanged, so each entry's hash must be finalized first.
        stamps = [k * GRANULE for k in range(1, 7)]
        maps = {TimeMap(tuple(zip("xyz", ts))) for ts in itertools.product(stamps, repeat=3)}
        assert len({m._hashcode for m in maps}) == len(maps) == 216
        mems = {
            Memory(tuple(
                Message(var, value, k * GRANULE, (k + 1) * GRANULE)
                for var, values in (("x", xs), ("y", ys))
                for k, value in enumerate(values)
            ))
            for xs in itertools.permutations(range(4))
            for ys in itertools.permutations(range(4))
        }
        assert len({m._hashcode for m in mems}) == len(mems) == 576

    def test_machine_state_hash_consistent(self):
        from repro.semantics.thread import SemanticsConfig

        program = _program()
        w1 = initial_machine_state(program, SemanticsConfig())
        w2 = initial_machine_state(program, SemanticsConfig())
        assert w1 == w2
        assert hash(w1) == hash(w2)


class TestPickleTransience:
    def test_pickle_strips_and_recomputes_hashcode(self):
        view = View(TimeMap((("x", 7),)), TimeMap((("x", 7),)))
        blob = pickle.dumps(view)
        assert b"_hashcode" not in blob
        restored = pickle.loads(blob)
        assert restored == view
        assert hash(restored) == hash(view)

    def test_memory_by_var_index_rebuilt(self):
        mem = Memory((Message("x", 1, 0, 1, BOTTOM_VIEW),))
        restored = pickle.loads(pickle.dumps(mem))
        assert restored == mem
        assert restored.per_loc("x") == mem.per_loc("x")

    def test_thread_state_roundtrip(self):
        ts = ThreadState(local=LocalState(func="t1", label="entry", offset=0))
        restored = pickle.loads(pickle.dumps(ts))
        assert restored == ts and hash(restored) == hash(ts)


class TestInterner:
    def test_intern_canonicalizes(self):
        table = Interner()
        a = ("x", 1)
        b = ("x", 1)
        assert table.intern(a) is a
        assert table.intern(b) is a
        assert table.hits == 1 and table.misses == 1

    def test_bounded_flush(self):
        table = Interner(max_entries=2)
        table.intern((1,))
        table.intern((2,))
        table.intern((3,))  # overflow: wholesale flush, then insert
        assert table.flushes == 1
        assert len(table) == 1

    def test_flush_is_only_a_sharing_loss(self):
        table = Interner(max_entries=1)
        a = table.intern(("x",))
        table.intern(("y",))  # flushes the table
        b = table.intern(("x",))
        assert a == b  # equality intact even though identity diverged

    def test_global_view_interning(self):
        clear_interners()
        v1 = intern_view(View(TimeMap((("x", 7),)), TimeMap(())))
        v2 = intern_view(View(TimeMap((("x", 7),)), TimeMap(())))
        assert v1 is v2
        stats = interner_stats()
        assert stats["views"]["hits"] >= 1

    def test_states_share_interned_views(self):
        clear_interners()
        a = ThreadState(local=LocalState(func="t1", label="entry", offset=0))
        b = ThreadState(local=LocalState(func="t2", label="entry", offset=0))
        assert a.view is b.view  # both interned to the canonical bottom view


#: Run under a given ``PYTHONHASHSEED``: dpor explorations of a
#: promise-bearing litmus test and a generated 3x4 program, a seeded
#: random run, and a checkpoint either saved after a budget trip
#: (``save``) or resumed to completion (``resume``).
_SEED_PROBE = """
import json, sys
from dataclasses import replace
from repro.litmus.generator import GeneratorConfig, random_wwrf_program
from repro.litmus.library import LITMUS_SUITE
from repro.litmus.spec import LitmusSpec
from repro.robust.budget import Budget
from repro.robust.checkpoint import load_checkpoint, save_checkpoint
from repro.semantics.exploration import Explorer
from repro.semantics.random_run import random_run
from repro.semantics.thread import SemanticsConfig
from repro.semantics.version import behavior_digest

mode, path = sys.argv[1], sys.argv[2]
lb = LITMUS_SUITE["LB"]
lb_config = replace(LitmusSpec(lb.program, promises=lb.promise_budget).config(), por="dpor")
generated = random_wwrf_program(3, GeneratorConfig(threads=3, instrs_per_thread=4))
out = {}
for name, program, config in (
    ("LB", lb.program, lb_config),
    ("gen3x4", generated, SemanticsConfig(por="dpor")),
):
    explorer = Explorer(program, config)
    result = explorer.behaviors()
    out[name] = {
        "states": result.state_count,
        "edges": sum(len(edge) for edge in explorer.edges),
        "dpor": explorer.dpor_stats.as_dict(),
        "digest": behavior_digest(result),
    }
out["random_run"] = list(map(str, random_run(lb.program, lb_config, seed=7).trace))
if mode == "save":
    partial = Explorer(lb.program, lb_config)
    partial.build(meter=Budget(max_states=15).start())
    assert not partial.exhaustive
    save_checkpoint(partial.snapshot(), path)
else:
    resumed = Explorer.resume(load_checkpoint(path), lb.program, lb_config)
    result = resumed.behaviors()
    out["resumed"] = {"states": result.state_count, "digest": behavior_digest(result)}
print(json.dumps(out))
"""


def _probe(hash_seed: str, mode: str, path: Path) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(repro.__file__).parent.parent), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SEED_PROBE, mode, str(path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


class TestHashSeedIndependence:
    def test_results_do_not_depend_on_the_hash_seed(self, tmp_path):
        """Seals use the process's own ``hash``; exploration order, state
        and edge counts, dpor counters, behavior digests, random runs and
        checkpoint resumption must not notice which seed that hash has."""
        path = tmp_path / "lb.ckpt"
        seed0 = _probe("0", "save", path)
        seed1 = _probe("1", "resume", path)
        resumed = seed1.pop("resumed")
        assert seed0 == seed1
        assert seed0["LB"]["dpor"]["promise_footprints"] > 0
        assert resumed == {key: seed0["LB"][key] for key in ("states", "digest")}
        v = View(TimeMap((("x", 7),)), TimeMap(()))
        assert pickle.loads(pickle.dumps(v))._hashcode == v._hashcode
