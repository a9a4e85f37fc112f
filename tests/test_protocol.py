"""Unit tests for the Illinois coherence protocol decision tables."""

import dataclasses

import pytest

from repro.coherence.protocol import (
    BusOp,
    IllinoisProtocol,
    LineState,
    MSIProtocol,
    SnoopAction,
)
from repro.common.errors import SimulationError


@pytest.fixture
def protocol():
    return IllinoisProtocol()


class TestStates:
    def test_invalid_is_not_valid(self):
        assert not LineState.INVALID.is_valid

    def test_valid_states(self):
        for state in (LineState.SHARED, LineState.PRIVATE, LineState.MODIFIED):
            assert state.is_valid

    def test_exclusive_states(self):
        assert LineState.PRIVATE.is_exclusive
        assert LineState.MODIFIED.is_exclusive
        assert not LineState.SHARED.is_exclusive
        assert not LineState.INVALID.is_exclusive


class TestLocalDecisions:
    def test_read_hit_on_any_valid_state(self, protocol):
        for state in (LineState.SHARED, LineState.PRIVATE, LineState.MODIFIED):
            assert state.is_valid
        assert not LineState.INVALID.is_valid

    def test_write_to_shared_needs_upgrade(self, protocol):
        assert protocol.write_hit_needs_upgrade(LineState.SHARED)

    def test_write_to_exclusive_is_silent(self, protocol):
        # The Illinois private-clean state: no bus operation on write.
        assert not protocol.write_hit_needs_upgrade(LineState.PRIVATE)
        assert not protocol.write_hit_needs_upgrade(LineState.MODIFIED)

    def test_write_hit_invalid_is_an_error(self, protocol):
        with pytest.raises(SimulationError):
            protocol.write_hit_needs_upgrade(LineState.INVALID)

    def test_state_after_write_hit_is_modified(self, protocol):
        for state in (LineState.SHARED, LineState.PRIVATE, LineState.MODIFIED):
            assert protocol.state_after_write_hit(state) is LineState.MODIFIED


class TestFillStates:
    def test_read_fill_alone_enters_private(self, protocol):
        # The Illinois signature feature (paper section 4.1).
        assert protocol.fill_state(BusOp.READ, others_have_copy=False) is LineState.PRIVATE

    def test_read_fill_with_sharers_enters_shared(self, protocol):
        assert protocol.fill_state(BusOp.READ, others_have_copy=True) is LineState.SHARED

    def test_read_ex_fill_enters_modified(self, protocol):
        assert protocol.fill_state(BusOp.READ_EX, others_have_copy=True) is LineState.MODIFIED
        assert protocol.fill_state(BusOp.READ_EX, others_have_copy=False) is LineState.MODIFIED

    def test_fill_state_rejects_non_fill_ops(self, protocol):
        with pytest.raises(SimulationError):
            protocol.fill_state(BusOp.UPGRADE, others_have_copy=False)


class TestSnooping:
    def test_invalid_ignores_everything(self, protocol):
        for op in BusOp:
            action = protocol.snoop(LineState.INVALID, op)
            assert action.new_state is LineState.INVALID
            assert not action.supplies_data
            assert not action.invalidated

    def test_remote_read_downgrades_private(self, protocol):
        action = protocol.snoop(LineState.PRIVATE, BusOp.READ)
        assert action.new_state is LineState.SHARED
        assert not action.supplies_data

    def test_remote_read_downgrades_modified_and_supplies(self, protocol):
        # Illinois cache-to-cache transfer from the dirty holder.
        action = protocol.snoop(LineState.MODIFIED, BusOp.READ)
        assert action.new_state is LineState.SHARED
        assert action.supplies_data
        assert not action.invalidated

    def test_remote_read_keeps_shared_shared(self, protocol):
        action = protocol.snoop(LineState.SHARED, BusOp.READ)
        assert action.new_state is LineState.SHARED

    @pytest.mark.parametrize("op", [BusOp.READ_EX, BusOp.UPGRADE])
    @pytest.mark.parametrize(
        "state", [LineState.SHARED, LineState.PRIVATE, LineState.MODIFIED]
    )
    def test_remote_exclusive_invalidates(self, protocol, op, state):
        action = protocol.snoop(state, op)
        assert action.new_state is LineState.INVALID
        assert action.invalidated

    def test_only_dirty_read_ex_supplies(self, protocol):
        assert protocol.snoop(LineState.MODIFIED, BusOp.READ_EX).supplies_data
        assert not protocol.snoop(LineState.SHARED, BusOp.READ_EX).supplies_data
        # An UPGRADE transfers no data (the requester already has it).
        assert not protocol.snoop(LineState.MODIFIED, BusOp.UPGRADE).supplies_data

    def test_writeback_is_not_a_coherence_event(self, protocol):
        for state in (LineState.SHARED, LineState.PRIVATE, LineState.MODIFIED):
            action = protocol.snoop(state, BusOp.WRITEBACK)
            assert action.new_state is state


I, S, P, M = LineState.INVALID, LineState.SHARED, LineState.PRIVATE, LineState.MODIFIED

#: Every snoop decision, written out by hand: (state, op) ->
#: (new_state, supplies_data, invalidated).
SNOOP_TABLE = {
    (I, BusOp.READ): (I, False, False),
    (I, BusOp.READ_EX): (I, False, False),
    (I, BusOp.UPGRADE): (I, False, False),
    (I, BusOp.WRITEBACK): (I, False, False),
    (S, BusOp.READ): (S, False, False),
    (S, BusOp.READ_EX): (I, False, True),
    (S, BusOp.UPGRADE): (I, False, True),
    (S, BusOp.WRITEBACK): (S, False, False),
    (P, BusOp.READ): (S, False, False),
    (P, BusOp.READ_EX): (I, False, True),
    (P, BusOp.UPGRADE): (I, False, True),
    (P, BusOp.WRITEBACK): (P, False, False),
    (M, BusOp.READ): (S, True, False),
    (M, BusOp.READ_EX): (I, True, True),
    (M, BusOp.UPGRADE): (I, False, True),
    (M, BusOp.WRITEBACK): (M, False, False),
}


class TestSharedSnoopDecisions:
    """Snoop decisions are shared frozen instances, identical under MSI."""

    def test_table_covers_every_pair(self):
        assert set(SNOOP_TABLE) == {(state, op) for state in LineState for op in BusOp}

    @pytest.mark.parametrize("protocol_cls", [IllinoisProtocol, MSIProtocol])
    @pytest.mark.parametrize("pair", sorted(SNOOP_TABLE))
    def test_decision_matches_the_table(self, protocol_cls, pair):
        new_state, supplies, invalidated = SNOOP_TABLE[pair]
        action = protocol_cls().snoop(*pair)
        assert action == SnoopAction(new_state, supplies_data=supplies, invalidated=invalidated)
        assert action.new_state is new_state

    def test_decisions_are_shared_across_protocols(self):
        for state, op in SNOOP_TABLE:
            assert IllinoisProtocol().snoop(state, op) is MSIProtocol().snoop(state, op)

    def test_shared_decision_cannot_be_mutated(self):
        action = IllinoisProtocol().snoop(M, BusOp.READ)
        with pytest.raises(dataclasses.FrozenInstanceError):
            action.new_state = I
        assert IllinoisProtocol().snoop(M, BusOp.READ).new_state is S
