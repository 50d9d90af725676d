"""Game-state / Eq. 3 utility tests."""

import pytest

from repro.algorithms.utility import GameState, harmonic
from tests.reference import ReferenceGameState


def make_state(example1, players=(1, 2, 3), alpha=2.0, prev=frozenset()):
    return GameState(example1, example1.tasks, players, prev, alpha=alpha)


class TestHarmonic:
    def test_values(self):
        assert harmonic(0) == 0.0
        assert harmonic(1) == 1.0
        assert harmonic(3) == pytest.approx(1.0 + 0.5 + 1.0 / 3.0)


class TestProfileBookkeeping:
    def test_set_choice_updates_counts(self, example1):
        state = make_state(example1)
        state.set_choice(1, 1)
        state.set_choice(3, 1)
        assert state.nw[1] == 2
        state.set_choice(3, 2)
        assert state.nw[1] == 1
        assert state.nw[2] == 1
        state.set_choice(1, None)
        assert 1 not in state.nw

    def test_assigned_indicator(self, example1):
        state = make_state(example1, prev=frozenset({4}))
        assert state.assigned(4)  # previously assigned
        assert not state.assigned(1)
        state.set_choice(1, 1)
        assert state.assigned(1)

    def test_workers_on_and_chosen_tasks(self, example1):
        state = make_state(example1)
        state.set_choice(1, 2)
        state.set_choice(3, 2)
        assert state.workers_on(2) == [1, 3]
        assert state.chosen_tasks() == [2]

    def test_alpha_must_exceed_one(self, example1):
        with pytest.raises(ValueError, match="alpha"):
            make_state(example1, alpha=1.0)

    def test_nan_alpha_rejected(self, example1):
        with pytest.raises(ValueError, match="alpha"):
            make_state(example1, alpha=float("nan"))

    @pytest.mark.parametrize("state_type", [GameState, ReferenceGameState])
    @pytest.mark.parametrize("alpha", [float("inf"), float("nan")])
    def test_non_finite_alpha_rejected(self, example1, state_type, alpha):
        # An infinite alpha would make the self share (inf - 1) / inf = nan.
        with pytest.raises(ValueError, match="alpha must be finite"):
            state_type(example1, example1.tasks, (1, 2, 3), alpha=alpha)


class TestTaskValue:
    def test_root_task_is_worth_one(self, example1):
        state = make_state(example1)
        assert state.task_value(1) == pytest.approx(1.0)

    def test_dependent_task_gated_on_dependencies(self, example1):
        state = make_state(example1, alpha=2.0)
        # t2 depends on t1; nothing assigned -> self part is 0.
        assert state.task_value(2) == 0.0
        state.set_choice(1, 1)  # t1 now assigned
        assert state.task_value(2) == pytest.approx(0.5)  # (alpha-1)/alpha

    def test_dependency_bonus_flows_to_enabler(self, example1):
        state = make_state(example1, alpha=2.0)
        state.set_choice(1, 1)   # w1 -> t1
        state.set_choice(3, 2)   # w3 -> t2 (deps satisfied)
        # t1's value: 1 (root) + t2's bonus 1/(alpha*|D_2|) = 1 + 0.5.
        # t3 is not assigned so contributes nothing.
        assert state.task_value(1) == pytest.approx(1.5)

    def test_extra_marks_hypothetical_assignment(self, example1):
        state = make_state(example1, alpha=2.0)
        state.set_choice(1, 2)  # w1 camps on t2 though t1 is unassigned
        # Hypothetically assigning t1 realises t2 -> t1's value gains 0.5.
        assert state.task_value(1, extra=1) == pytest.approx(1.5)


class TestUtilities:
    def test_utility_splits_by_crowd(self, example1):
        state = make_state(example1)
        state.set_choice(1, 1)
        state.set_choice(3, 1)
        assert state.utility(1) == pytest.approx(0.5)
        assert state.utility(3) == pytest.approx(0.5)

    def test_idle_utility_zero(self, example1):
        state = make_state(example1)
        assert state.utility(1) == 0.0

    def test_utility_of_choice_requires_withdrawal(self, example1):
        state = make_state(example1)
        state.set_choice(1, 1)
        with pytest.raises(ValueError, match="withdrawn"):
            state.utility_of_choice(1, 2)

    def test_utility_of_choice_counts_self(self, example1):
        state = make_state(example1)
        state.set_choice(3, 1)
        # w1 joining t1 shares with w3: value 1 split two ways.
        assert state.utility_of_choice(1, 1) == pytest.approx(0.5)

    def test_total_utility_equals_valid_task_count(self, example1):
        # Observation of Section IV-B: Sum(M) = sum_w U_w when each chosen
        # task has its dependencies chosen too.
        state = make_state(example1)
        state.set_choice(1, 1)   # t1
        state.set_choice(3, 2)   # t2 (dep t1 assigned)
        state.set_choice(2, 4)   # t4 root
        assert state.total_utility() == pytest.approx(3.0)

    def test_total_utility_ignores_unrealised_tasks(self, example1):
        state = make_state(example1)
        state.set_choice(1, 2)  # t2 without t1: no value anywhere
        assert state.total_utility() == pytest.approx(0.0)


class TestPotentials:
    def test_harmonic_potential_of_simple_profile(self, example1):
        state = make_state(example1)
        state.set_choice(1, 1)
        state.set_choice(3, 1)
        # q(t1) = 1, two workers -> H(2) = 1.5
        assert state.potential() == pytest.approx(1.5)

    def test_paper_potential_sign_and_magnitude(self, example1):
        state = make_state(example1)
        state.set_choice(1, 1)
        assert state.potential_paper() == pytest.approx(-0.5)  # -1/(nw+1)

    def test_exactness_for_congestion_moves(self, example1):
        # Delta U_w = Delta Phi for a move that flips no indicator: w3 moves
        # from crowded t1 to crowded t4 while others stay.
        state = make_state(example1, players=(1, 2, 3, 4))
        # a fourth player id is fine: GameState only tracks ids
        state.set_choice(1, 1)
        state.set_choice(2, 4)
        state.set_choice(3, 1)
        state.set_choice(4, 4)
        # Move w3: t1 keeps w1, t4 already has w2/w4 -> no indicator flips.
        u_before = state.utility(3)
        phi_before = state.potential()
        state.set_choice(3, 4)
        u_after = state.utility(3)
        phi_after = state.potential()
        assert u_after - u_before == pytest.approx(phi_after - phi_before)
