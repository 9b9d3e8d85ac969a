//! The FrozenLake environment (Gym `FrozenLake-v1`).
//!
//! The agent crosses a frozen lake from the start tile `S` to the goal
//! `G` without falling into holes `H`. On slippery ice the agent moves in
//! the intended direction with probability 1/3 and in each perpendicular
//! direction with probability 1/3. Reaching `G` yields reward 1; all other
//! transitions yield 0; stepping on `H` or `G` ends the episode, as does
//! the step limit (100 for the 4×4 map, 200 for 8×8 — Gym's `TimeLimit`).
//!
//! Actions follow the Gym encoding: 0 = left, 1 = down, 2 = right, 3 = up.

use crate::env::{uniform_below, Action, DiscreteEnv, State, Step};
use crate::rng::Rng;

const MAP_4X4: [&str; 4] = ["SFFF", "FHFH", "FFFH", "HFFG"];
const MAP_8X8: [&str; 8] = [
    "SFFFFFFF", "FFFFFFFF", "FFFHFFFF", "FFFFFHFF", "FFFHFFFF", "FHHFFFHF", "FHFFHFHF", "FFFHFFFG",
];

/// Tile classes of the lake map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tile {
    Start,
    Frozen,
    Hole,
    Goal,
}

/// The FrozenLake grid world.
///
/// ```rust
/// use swiftrl_env::frozen_lake::FrozenLake;
/// use swiftrl_env::DiscreteEnv;
///
/// let env = FrozenLake::slippery_4x4();
/// assert_eq!(env.num_states(), 16);  // Discrete(16), as in the paper
/// assert_eq!(env.num_actions(), 4);  // Discrete(4)
/// ```
#[derive(Debug, Clone)]
pub struct FrozenLake {
    tiles: Vec<Tile>,
    size: usize,
    slippery: bool,
    max_steps: u32,
    state: State,
    steps: u32,
    done: bool,
    started: bool,
}

impl FrozenLake {
    /// The paper's configuration: the 4×4 map with slippery ice.
    pub fn slippery_4x4() -> Self {
        Self::from_map(&MAP_4X4, true, 100)
    }

    /// The 4×4 map without slipping (deterministic transitions).
    pub fn deterministic_4x4() -> Self {
        Self::from_map(&MAP_4X4, false, 100)
    }

    /// The 8×8 map with slippery ice.
    pub fn slippery_8x8() -> Self {
        Self::from_map(&MAP_8X8, true, 200)
    }

    /// Builds a lake from map rows of `S`/`F`/`H`/`G` characters.
    ///
    /// # Panics
    ///
    /// Panics if the map is not square or contains other characters —
    /// maps are compile-time constants, so this is a programming error.
    pub fn from_map(rows: &[&str], slippery: bool, max_steps: u32) -> Self {
        let size = rows.len();
        assert!(size > 0, "empty map");
        let mut tiles = Vec::with_capacity(size * size);
        for row in rows {
            assert_eq!(row.len(), size, "map must be square");
            for c in row.chars() {
                tiles.push(match c {
                    'S' => Tile::Start,
                    'F' => Tile::Frozen,
                    'H' => Tile::Hole,
                    'G' => Tile::Goal,
                    other => panic!("invalid map tile {other:?}"),
                });
            }
        }
        assert!(
            tiles.iter().filter(|t| **t == Tile::Start).count() == 1,
            "map must have exactly one start tile"
        );
        Self {
            tiles,
            size,
            slippery,
            max_steps,
            state: State(0),
            steps: 0,
            done: true,
            started: false,
        }
    }

    /// Side length of the (square) map.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Renders a greedy policy over the map: one arrow per frozen tile
    /// (`←↓→↑` for actions 0–3), `H` for holes, `G` for the goal, `S`
    /// kept for the start tile's arrow row context.
    ///
    /// `greedy` maps a state index to its greedy action index.
    ///
    /// # Panics
    ///
    /// Panics if `greedy` returns an action outside `0..4`.
    pub fn render_policy<F: Fn(u32) -> u32>(&self, greedy: F) -> String {
        const ARROWS: [char; 4] = ['←', '↓', '→', '↑'];
        let mut out = String::new();
        for row in 0..self.size {
            for col in 0..self.size {
                let idx = row * self.size + col;
                let c = match self.tiles[idx] {
                    Tile::Hole => 'H',
                    Tile::Goal => 'G',
                    Tile::Start | Tile::Frozen => {
                        let a = greedy(idx as u32);
                        assert!(a < 4, "invalid action {a}");
                        ARROWS[a as usize]
                    }
                };
                out.push(c);
            }
            out.push('\n');
        }
        out
    }

    fn start_state(&self) -> State {
        let idx = match self.tiles.iter().position(|t| *t == Tile::Start) {
            Some(i) => i,
            // Constructors reject grids without a start tile.
            None => panic!("grid has no start tile"),
        };
        State(idx as u32)
    }

    fn move_from(&self, state: u32, action: u32) -> u32 {
        let size = self.size as u32;
        let (row, col) = (state / size, state % size);
        let (row, col) = match action {
            0 => (row, col.saturating_sub(1)),          // left
            1 => ((row + 1).min(size - 1), col),        // down
            2 => (row, (col + 1).min(size - 1)),        // right
            3 => (row.saturating_sub(1), col),          // up
            other => panic!("invalid FrozenLake action {other}"),
        };
        row * size + col
    }
}

impl DiscreteEnv for FrozenLake {
    fn name(&self) -> &str {
        "frozen_lake"
    }

    fn num_states(&self) -> usize {
        self.size * self.size
    }

    fn num_actions(&self) -> usize {
        4
    }

    fn reset(&mut self, _rng: &mut dyn Rng) -> State {
        self.state = self.start_state();
        self.steps = 0;
        self.done = false;
        self.started = true;
        self.state
    }

    fn step(&mut self, action: Action, rng: &mut dyn Rng) -> Step {
        assert!(self.started && !self.done, "step called on finished episode");
        let a = action.0;
        assert!(a < 4, "invalid action {a}");
        // Slippery ice: intended direction or either perpendicular, 1/3
        // each (Gym uses [(a-1)%4, a, (a+1)%4]).
        let executed = if self.slippery {
            let slip = uniform_below(rng, 3);
            (a + 3 + slip) % 4
        } else {
            a
        };
        let next = self.move_from(self.state.0, executed);
        let tile = self.tiles[next as usize];
        self.steps += 1;
        let reward = if tile == Tile::Goal { 1.0 } else { 0.0 };
        let done = matches!(tile, Tile::Goal | Tile::Hole) || self.steps >= self.max_steps;
        self.state = State(next);
        self.done = done;
        Step {
            next_state: self.state,
            reward,
            done,
        }
    }

    fn state(&self) -> State {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn rng() -> SplitMix64 {
        SplitMix64::new(42)
    }

    #[test]
    fn spaces_match_paper() {
        let env = FrozenLake::slippery_4x4();
        assert_eq!(env.num_states(), 16);
        assert_eq!(env.num_actions(), 4);
        let env8 = FrozenLake::slippery_8x8();
        assert_eq!(env8.num_states(), 64);
    }

    #[test]
    fn reset_starts_at_s() {
        let mut env = FrozenLake::slippery_4x4();
        assert_eq!(env.reset(&mut rng()), State(0));
    }

    #[test]
    fn deterministic_moves_follow_gym_encoding() {
        let mut env = FrozenLake::deterministic_4x4();
        let mut r = rng();
        env.reset(&mut r);
        // Right from 0 -> 1.
        assert_eq!(env.step(Action(2), &mut r).next_state, State(1));
        // Down from 1 -> 5 (a hole: episode ends, reward 0).
        let step = env.step(Action(1), &mut r);
        assert_eq!(step.next_state, State(5));
        assert!(step.done);
        assert_eq!(step.reward, 0.0);
    }

    #[test]
    fn borders_clamp() {
        let mut env = FrozenLake::deterministic_4x4();
        let mut r = rng();
        env.reset(&mut r);
        assert_eq!(env.step(Action(0), &mut r).next_state, State(0)); // left at col 0
        assert_eq!(env.step(Action(3), &mut r).next_state, State(0)); // up at row 0
    }

    #[test]
    fn goal_gives_reward_one_and_ends() {
        let mut env = FrozenLake::deterministic_4x4();
        let mut r = rng();
        env.reset(&mut r);
        // Path avoiding holes: down, down, right, right, down, right = goal 15.
        for a in [1u32, 1, 2, 2, 1] {
            let s = env.step(Action(a), &mut r);
            assert!(!s.done, "early termination at {s:?}");
        }
        let last = env.step(Action(2), &mut r);
        assert_eq!(last.next_state, State(15));
        assert_eq!(last.reward, 1.0);
        assert!(last.done);
    }

    #[test]
    fn slippery_moves_stay_on_intended_or_perpendicular_axis() {
        // From the start, intending RIGHT can slip to UP or DOWN but never
        // LEFT (the opposite direction is excluded in Gym).
        let mut env = FrozenLake::slippery_4x4();
        let mut r = rng();
        for _ in 0..500 {
            env.reset(&mut r);
            let next = env.step(Action(2), &mut r).next_state.0;
            // From 0: right->1, down->4, up->0 (clamped). Left (0 clamped)
            // coincides with up's clamp, so allowed set is {0, 1, 4}.
            assert!([0, 1, 4].contains(&next), "unexpected slip to {next}");
        }
    }

    #[test]
    fn slippery_distribution_is_roughly_uniform_thirds() {
        let mut env = FrozenLake::slippery_4x4();
        let mut r = rng();
        // From state 9 (interior-ish), intend RIGHT: slip set is
        // up (5), right (10), down (13).
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..3_000 {
            env.reset(&mut r);
            env.state = State(9);
            let next = env.step(Action(2), &mut r).next_state.0;
            *counts.entry(next).or_insert(0u32) += 1;
        }
        for s in [5u32, 10, 13] {
            let c = counts.get(&s).copied().unwrap_or(0);
            assert!((700..1_300).contains(&c), "state {s} count {c}");
        }
    }

    #[test]
    fn step_limit_terminates() {
        let mut env = FrozenLake::deterministic_4x4();
        let mut r = rng();
        env.reset(&mut r);
        // Bounce left against the wall forever; at step 100 it must end.
        let mut steps = 0;
        loop {
            let s = env.step(Action(0), &mut r);
            steps += 1;
            if s.done {
                break;
            }
            assert!(steps < 200, "no termination");
        }
        assert_eq!(steps, 100);
    }

    #[test]
    #[should_panic(expected = "finished episode")]
    fn stepping_after_done_panics() {
        let mut env = FrozenLake::deterministic_4x4();
        let mut r = rng();
        env.reset(&mut r);
        env.step(Action(1), &mut r); // down to 4
        env.step(Action(1), &mut r); // down to 8
        env.step(Action(1), &mut r); // down to 12: hole, done
        env.step(Action(1), &mut r);
    }

    #[test]
    #[should_panic(expected = "map must be square")]
    fn non_square_map_rejected() {
        FrozenLake::from_map(&["SF", "FFF"], false, 10);
    }

    #[test]
    fn policy_rendering_marks_tiles() {
        let env = FrozenLake::slippery_4x4();
        let text = env.render_policy(|_s| 2); // always →
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "→→→→");
        assert_eq!(lines[1], "→H→H");
        assert_eq!(lines[3], "H→→G");
    }
}
