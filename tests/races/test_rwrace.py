"""Read-write race detection tests, including the paper's Fig. 5 claim:
LInv introduces read-write races (and that is allowed)."""


from repro.lang.builder import straightline_program
from repro.lang.syntax import AccessMode, Const, Load, Store
from repro.litmus.library import fig5_program
from repro.races.rwrace import rw_races
from repro.races.wwrf import ww_rf
from repro.semantics.exploration import behaviors
from repro.sim.refinement import check_refinement


def test_basic_rw_race_detected():
    program = straightline_program(
        [[Store("a", Const(1), AccessMode.NA)], [Load("r", "a", AccessMode.NA)]]
    )
    witnesses = rw_races(program)
    assert any(w.loc == "a" for w in witnesses)


def test_no_rw_race_on_disjoint_locations():
    program = straightline_program(
        [[Store("a", Const(1), AccessMode.NA)], [Load("r", "b", AccessMode.NA)]]
    )
    assert rw_races(program) == ()


def test_atomic_accesses_not_reported():
    program = straightline_program(
        [[Store("x", Const(1), AccessMode.RLX)], [Load("r", "x", AccessMode.RLX)]],
        atomics={"x"},
    )
    assert rw_races(program) == ()


class TestFig5:
    """Paper Fig. 5: the source is rw-race-free (acquire guard), the LInv
    output has a rw-race on x, and yet refinement holds."""

    def test_source_has_no_rw_race_on_x(self):
        witnesses = rw_races(fig5_program("source"))
        assert not any(w.loc == "x" for w in witnesses)

    def test_linv_output_has_rw_race_on_x(self):
        witnesses = rw_races(fig5_program("linv"))
        assert any(w.loc == "x" for w in witnesses)

    def test_all_stages_ww_race_free(self):
        for stage in ("source", "linv", "cse"):
            assert ww_rf(fig5_program(stage)).race_free, stage

    def test_linv_refines_source_despite_rw_race(self):
        result = check_refinement(fig5_program("source"), fig5_program("linv"))
        assert result.definitive
        assert result.holds

    def test_cse_refines_linv(self):
        result = check_refinement(fig5_program("linv"), fig5_program("cse"))
        assert result.definitive
        assert result.holds

    def test_licm_composition_refines_source(self):
        """Vertical composition: Ctgt ⊆ Cm ⊆ Csrc gives Ctgt ⊆ Csrc."""
        result = check_refinement(fig5_program("source"), fig5_program("cse"))
        assert result.definitive
        assert result.holds

    def test_guarded_read_always_sees_payload(self):
        """The acquire guard ensures r1 = 9 whenever the loop is entered —
        the reason the source has no race on z or x (paper Sec. 2.5)."""
        outs = behaviors(fig5_program("source")).outputs()
        for out in outs:
            if out:  # the thread printed (r1, r2)
                assert out[0] == 9
