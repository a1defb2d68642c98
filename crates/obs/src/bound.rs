//! Live margins against the paper's bounds.

use crate::{Event, EventSink};

/// The bound envelopes a [`BoundTracker`] measures against.
///
/// The numeric values come from the caller (typically
/// `bfdn::theorem1_bound`, `bfdn::lemma2_bound` and
/// `urn_game::theorem3_bound`) so this crate stays free of the
/// algorithm crates; a `None` disables that margin.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BoundConfig {
    /// Theorem 1's round envelope `2n/k + D²(min{log Δ, log k} + 3)`.
    pub rounds: Option<f64>,
    /// Lemma 2's per-depth reanchor cap `k·(min{log k, log Δ} + 3)`.
    pub reanchors_per_depth: Option<f64>,
    /// Theorem 3's urn-game step cap `k·min{log Δ, log k} + 2k`.
    pub urn_steps: Option<f64>,
}

/// One point of the margin time series: how much room was left under
/// each configured bound when the sample was taken.
///
/// A negative margin is a bound violation — for the paper's algorithms
/// it never happens, which is exactly what the telemetry lets a run
/// prove about itself.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MarginSample {
    /// Round (or urn-game step) at which the sample was taken.
    pub at: u64,
    /// `rounds_bound - rounds_so_far`.
    pub rounds: Option<f64>,
    /// `reanchor_bound - max_d reanchors_at_depth(d)` over depths ≥ 1.
    pub reanchors: Option<f64>,
    /// `urn_bound - urn_steps_so_far`.
    pub urn_steps: Option<f64>,
}

impl MarginSample {
    /// Returns `true` if every configured margin is non-negative.
    pub fn non_negative(&self) -> bool {
        [self.rounds, self.reanchors, self.urn_steps]
            .into_iter()
            .flatten()
            .all(|m| m >= 0.0)
    }
}

/// An [`EventSink`] that folds the event stream into live bound margins.
///
/// On every `RoundCompleted` (and every `UrnStep`, for urn-game runs)
/// the tracker appends a [`MarginSample`] comparing the counters
/// accumulated so far against the configured [`BoundConfig`]; the full
/// series is kept for time-series export and the final sample feeds the
/// run manifest.
///
/// # Example
///
/// ```
/// use bfdn_obs::{BoundConfig, BoundTracker, Event, EventSink};
///
/// let mut t = BoundTracker::new(BoundConfig {
///     rounds: Some(10.0),
///     ..BoundConfig::default()
/// });
/// t.emit(&Event::RoundCompleted { round: 0, explored: 2, moved: 1, stalled: 0 });
/// assert_eq!(t.series()[0].rounds, Some(9.0));
/// assert!(t.all_non_negative());
/// ```
#[derive(Clone, Debug)]
pub struct BoundTracker {
    config: BoundConfig,
    rounds: u64,
    urn_steps: u64,
    edges_discovered: u64,
    stalls: u64,
    reanchors_by_depth: Vec<u64>,
    /// Running `max(reanchors_by_depth[1..])`, exact because per-depth
    /// counts only grow.
    worst_reanchors: u64,
    series: Vec<MarginSample>,
}

impl BoundTracker {
    /// A tracker measuring against `config`.
    pub fn new(config: BoundConfig) -> Self {
        BoundTracker {
            config,
            rounds: 0,
            urn_steps: 0,
            edges_discovered: 0,
            stalls: 0,
            reanchors_by_depth: Vec::new(),
            worst_reanchors: 0,
            series: Vec::new(),
        }
    }

    /// Rounds observed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Urn-game steps observed so far.
    pub fn urn_steps(&self) -> u64 {
        self.urn_steps
    }

    /// Edge discoveries observed so far.
    pub fn edges_discovered(&self) -> u64 {
        self.edges_discovered
    }

    /// Stall events observed so far.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// `Reanchor` events per anchor depth (index = depth), mirroring
    /// `Bfdn::reanchors_by_depth`.
    pub fn reanchors_by_depth(&self) -> &[u64] {
        &self.reanchors_by_depth
    }

    /// Total `Reanchor` events observed.
    pub fn total_reanchors(&self) -> u64 {
        self.reanchors_by_depth.iter().sum()
    }

    /// The margin time series, one sample per observed round (or urn
    /// step).
    pub fn series(&self) -> &[MarginSample] {
        &self.series
    }

    /// The most recent margins, if anything was observed.
    pub fn current(&self) -> Option<MarginSample> {
        self.series.last().copied()
    }

    /// Returns `true` if every sample so far respected every configured
    /// bound.
    pub fn all_non_negative(&self) -> bool {
        self.series.iter().all(MarginSample::non_negative)
    }

    /// Appends one margin sample. O(1): `emit` keeps the worst
    /// per-depth reanchor count as a running max.
    fn sample(&mut self, at: u64) {
        let worst_reanchors = self.worst_reanchors;
        self.series.push(MarginSample {
            at,
            rounds: self.config.rounds.map(|b| b - self.rounds as f64),
            reanchors: self
                .config
                .reanchors_per_depth
                .map(|b| b - worst_reanchors as f64),
            urn_steps: self.config.urn_steps.map(|b| b - self.urn_steps as f64),
        });
    }
}

impl EventSink for BoundTracker {
    fn emit(&mut self, event: &Event) {
        match *event {
            Event::RoundCompleted { round, .. } => {
                self.rounds = self.rounds.max(round + 1);
                self.sample(round);
            }
            Event::Reanchor { depth, .. } => {
                let d = depth as usize;
                if self.reanchors_by_depth.len() <= d {
                    self.reanchors_by_depth.resize(d + 1, 0);
                }
                self.reanchors_by_depth[d] += 1;
                // Lemma 2 concerns depths 1..D-1; depth 0 is the root
                // fallback.
                if d >= 1 {
                    self.worst_reanchors = self.worst_reanchors.max(self.reanchors_by_depth[d]);
                }
            }
            Event::EdgeDiscovered { .. } => self.edges_discovered += 1,
            Event::RobotStalled { .. } => self.stalls += 1,
            Event::UrnStep { step, .. } => {
                self.urn_steps = self.urn_steps.max(step + 1);
                self.sample(step);
            }
            Event::PhaseTimer { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(round: u64) -> Event {
        Event::RoundCompleted {
            round,
            explored: 0,
            moved: 0,
            stalled: 0,
        }
    }

    #[test]
    fn rounds_margin_decreases_by_one_per_round() {
        let mut t = BoundTracker::new(BoundConfig {
            rounds: Some(3.0),
            ..BoundConfig::default()
        });
        for r in 0..4 {
            t.emit(&round(r));
        }
        let margins: Vec<f64> = t.series().iter().map(|s| s.rounds.unwrap()).collect();
        assert_eq!(margins, vec![2.0, 1.0, 0.0, -1.0]);
        assert!(!t.all_non_negative());
        assert_eq!(t.rounds(), 4);
    }

    #[test]
    fn reanchor_margin_tracks_worst_depth() {
        let mut t = BoundTracker::new(BoundConfig {
            reanchors_per_depth: Some(2.0),
            ..BoundConfig::default()
        });
        for depth in [1, 2, 2, 0] {
            t.emit(&Event::Reanchor {
                robot: 0,
                depth,
                anchor: 1,
            });
        }
        t.emit(&round(0));
        // Depth 0 (the root) is excluded; the worst counted depth is 2
        // with two reanchors.
        assert_eq!(t.current().unwrap().reanchors, Some(0.0));
        assert_eq!(t.reanchors_by_depth(), &[1, 1, 2]);
        assert_eq!(t.total_reanchors(), 4);
        assert!(t.all_non_negative());
    }

    #[test]
    fn urn_margin_samples_per_step() {
        let mut t = BoundTracker::new(BoundConfig {
            urn_steps: Some(2.5),
            ..BoundConfig::default()
        });
        t.emit(&Event::UrnStep {
            step: 0,
            from: 0,
            to: 1,
        });
        t.emit(&Event::UrnStep {
            step: 1,
            from: 1,
            to: 0,
        });
        assert_eq!(t.urn_steps(), 2);
        assert_eq!(t.current().unwrap().urn_steps, Some(0.5));
    }

    #[test]
    fn unconfigured_margins_stay_none() {
        let mut t = BoundTracker::new(BoundConfig::default());
        t.emit(&round(0));
        let s = t.current().unwrap();
        assert_eq!((s.rounds, s.reanchors, s.urn_steps), (None, None, None));
        assert!(s.non_negative());
    }

    #[test]
    fn counts_edges_and_stalls() {
        let mut t = BoundTracker::new(BoundConfig::default());
        t.emit(&Event::EdgeDiscovered {
            round: 0,
            robot: 0,
            parent: 0,
            child: 1,
            depth: 1,
        });
        t.emit(&Event::RobotStalled {
            round: 0,
            robot: 1,
            at: 0,
        });
        assert_eq!((t.edges_discovered(), t.stalls()), (1, 1));
    }
}
