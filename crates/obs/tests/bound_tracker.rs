//! `BoundTracker` keeps Lemma 2's worst per-depth reanchor count as a
//! running max instead of rescanning every depth per sample. These
//! properties check it against a brute-force recomputation on arbitrary
//! event streams: reanchors at any depth (0 included, in any order),
//! interleaved with rounds and urn steps.

use bfdn_obs::{BoundConfig, BoundTracker, Event, EventSink, MarginSample};
use proptest::prelude::*;

/// A brute-force model of the tracker: per-depth counts plus the full
/// series, each sample recomputed from scratch.
#[derive(Default)]
struct Model {
    rounds: u64,
    urn_steps: u64,
    by_depth: Vec<u64>,
    series: Vec<MarginSample>,
}

impl Model {
    fn worst(&self) -> u64 {
        self.by_depth.iter().skip(1).copied().max().unwrap_or(0)
    }

    fn sample(&mut self, config: &BoundConfig, at: u64) {
        let worst = self.worst() as f64;
        self.series.push(MarginSample {
            at,
            rounds: config.rounds.map(|b| b - self.rounds as f64),
            reanchors: config.reanchors_per_depth.map(|b| b - worst),
            urn_steps: config.urn_steps.map(|b| b - self.urn_steps as f64),
        });
    }

    fn apply(&mut self, config: &BoundConfig, event: &Event) {
        match *event {
            Event::RoundCompleted { round, .. } => {
                self.rounds = self.rounds.max(round + 1);
                self.sample(config, round);
            }
            Event::Reanchor { depth, .. } => {
                let d = depth as usize;
                if self.by_depth.len() <= d {
                    self.by_depth.resize(d + 1, 0);
                }
                self.by_depth[d] += 1;
            }
            Event::UrnStep { step, .. } => {
                self.urn_steps = self.urn_steps.max(step + 1);
                self.sample(config, step);
            }
            _ => {}
        }
    }
}

/// Decodes one generated `(kind, a, b)` triple into an event: mostly
/// reanchors (depth `a`, shallow depths drawn often so counts pile up),
/// plus rounds and urn steps with arbitrary (possibly repeated or
/// decreasing) numbers.
fn event(kind: u8, a: u32, b: u64) -> Event {
    match kind % 4 {
        0 | 1 => Event::Reanchor {
            robot: 0,
            depth: a % 12,
            anchor: 1,
        },
        2 => Event::RoundCompleted {
            round: b,
            explored: 0,
            moved: 0,
            stalled: 0,
        },
        _ => Event::UrnStep {
            step: b,
            from: 0,
            to: 1,
        },
    }
}

fn arb_config() -> impl Strategy<Value = BoundConfig> {
    (0u32..3, 0u32..64, 0u32..3).prop_map(|(r, a, u)| BoundConfig {
        rounds: (r > 0).then_some(40.0 * r as f64),
        reanchors_per_depth: (a > 0).then_some(a as f64 / 2.0),
        urn_steps: (u > 0).then_some(25.5 * u as f64),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every round or urn step, the tracker's current reanchor
    /// margin is `bound − max(reanchors_by_depth[1..])`; after every
    /// event, its series matches the brute-force series in length and in
    /// every sample.
    #[test]
    fn running_max_matches_brute_force(
        config in arb_config(),
        stream in prop::collection::vec((any::<u8>(), any::<u32>(), 0u64..50), 0..300),
    ) {
        let mut tracker = BoundTracker::new(config);
        let mut model = Model::default();
        for &(kind, a, b) in &stream {
            let ev = event(kind, a, b);
            tracker.emit(&ev);
            model.apply(&config, &ev);
            prop_assert_eq!(tracker.reanchors_by_depth(), &model.by_depth[..]);
            if !matches!(ev, Event::Reanchor { .. }) {
                // A sample was just taken: it sees every reanchor so far.
                let cur = tracker.current().expect("a sample was taken");
                let want = config.reanchors_per_depth.map(|b| b - model.worst() as f64);
                prop_assert_eq!(cur.reanchors, want);
            }
            prop_assert_eq!(tracker.current(), model.series.last().copied());
            prop_assert_eq!(tracker.series().len(), model.series.len());
        }
        prop_assert_eq!(tracker.series(), &model.series[..]);
        prop_assert_eq!(
            tracker.all_non_negative(),
            model.series.iter().all(MarginSample::non_negative)
        );
    }
}
