//! Seeded inputs: every spec a run sends or executes is drawn here from
//! the run's `--seed`, so the same seed gives the same inputs.

use bfdn_service::ExploreSpec;
use rand::rngs::StdRng;
use rand::Rng;

/// Algorithms of the served mixes. The daemon re-checks Theorem 1 on
/// every spec it executes and the run requires zero violations, so the
/// mixes keep to the arms inside that envelope (the multi-layer
/// `bfdn-l2` runs in-process only, against Theorem 10).
const SERVED_ALGOS: &[&str] = &["bfdn", "bfdn-robust", "bfdn-shortcut", "write-read", "cte"];

/// One class of specs: the families, sizes and robot counts it draws
/// from, with every served arm.
#[derive(Clone, Copy)]
pub struct Mix {
    pub families: &'static [&'static str],
    pub n: &'static [u64],
    pub k: &'static [u64],
}

impl Mix {
    /// Combinations of the class: one of each arm, family, n and k.
    pub const fn len(&self) -> usize {
        SERVED_ALGOS.len() * self.families.len() * self.n.len() * self.k.len()
    }
}

/// Single interactive explores: the load generator's default mix.
pub const INTERACTIVE: Mix = Mix {
    families: &[
        "comb",
        "binary",
        "spider",
        "random-recursive",
        "caterpillar",
    ],
    n: &[200, 400, 800],
    k: &[2, 4, 8, 16],
};

/// Sweep batch items: medium specs, a few milliseconds each, largest
/// first. Caterpillars are left out: `cte` on an 8000-node caterpillar
/// alone costs a quarter of a whole batch, and one item that long makes
/// the batch's wall time hang on it.
pub const SWEEP: Mix = Mix {
    families: &["comb", "binary", "spider", "random-recursive"],
    n: &[8_000, 4_000, 2_000],
    k: &[16],
};

/// Serve-mixed's sweep items: the [`SWEEP`] grid at half the sizes, so
/// a served batch ends within one interactive gap.
pub const MIXED_SWEEP: Mix = Mix {
    n: &[4_000, 2_000, 1_000],
    ..SWEEP
};

/// Specs per sweep batch: the whole [`SWEEP`] grid, so every batch costs
/// the same up to tree shapes. The daemon runs it as two sub-jobs at its
/// 32-spec batch split.
pub const SWEEP_BATCH: usize = SWEEP.len();
const _: () = assert!(MIXED_SWEEP.len() == SWEEP_BATCH);

/// Tiny specs that fill the store on serve-reheat.
pub const TINY: Mix = Mix {
    families: INTERACTIVE.families,
    n: &[30, 60, 120],
    k: &[2, 4, 8],
};

/// Draws fresh specs from one seed namespace. The tree seed counts up,
/// so no two specs of a pool share a cache key, and pools started at
/// different bases never collide either. Arm, family, n and k walk
/// their full grid in a fixed or a seeded order, so every stretch of
/// draws as long as the grid holds each combination once: a run's cost
/// depends on the seed only through the order and the random families'
/// tree shapes.
pub struct Pool {
    grid: Vec<(&'static str, &'static str, u64, u64)>,
    drawn: usize,
    next_seed: u64,
}

impl Pool {
    /// A pool over `mix` in grid order — n outermost, in the order the
    /// mix lists it — its tree seeds starting at `base`. Sweep batches
    /// use it: the daemon splits a batch into sub-jobs by position and
    /// spreads each sub-job over its threads in order, so a fixed,
    /// largest-first order keeps every batch's cost alike.
    pub fn ordered(mix: Mix, base: u64) -> Self {
        let mut grid = Vec::with_capacity(mix.len());
        for &n in mix.n {
            for &algo in SERVED_ALGOS {
                for &family in mix.families {
                    for &k in mix.k {
                        grid.push((algo, family, n, k));
                    }
                }
            }
        }
        Pool {
            grid,
            drawn: 0,
            next_seed: base,
        }
    }

    /// A pool over `mix`, its order drawn from `rng`, its tree seeds
    /// starting at `base`.
    pub fn shuffled(mix: Mix, base: u64, rng: &mut StdRng) -> Self {
        let mut pool = Pool::ordered(mix, base);
        for i in (1..pool.grid.len()).rev() {
            pool.grid.swap(i, rng.random_range(0..=i));
        }
        pool
    }

    /// A spec no earlier draw of this pool produced.
    pub fn fresh(&mut self) -> ExploreSpec {
        let (algo, family, n, k) = self.grid[self.drawn % self.grid.len()];
        self.drawn += 1;
        let seed = self.next_seed;
        self.next_seed += 1;
        ExploreSpec::new(algo, family, n, k, seed)
    }
}

/// Seed bases far enough apart that pools of one run never overlap.
pub fn namespace(index: u64) -> u64 {
    (index + 1) << 40
}

/// One interactive request: the spec, and whether it re-issues a spec
/// this connection already had answered (so the daemon must say
/// `cached`).
pub struct Interactive {
    pub spec: ExploreSpec,
    pub warm: bool,
}

/// Share of interactive requests that re-issue an earlier spec.
pub const WARM_RATIO: f64 = 0.35;

/// `count` interactive requests in send order.
pub fn interactive(rng: &mut StdRng, count: usize, base: u64) -> Vec<Interactive> {
    let mut pool = Pool::shuffled(INTERACTIVE, base, rng);
    let mut issued: Vec<ExploreSpec> = Vec::new();
    let mut plan = Vec::with_capacity(count);
    for _ in 0..count {
        if !issued.is_empty() && rng.random::<f64>() < WARM_RATIO {
            let spec = issued[rng.random_range(0..issued.len())].clone();
            plan.push(Interactive { spec, warm: true });
        } else {
            let spec = pool.fresh();
            issued.push(spec.clone());
            plan.push(Interactive { spec, warm: false });
        }
    }
    plan
}

/// A trace id for request `index` of class `class`: nonzero, distinct
/// per request of a run.
pub fn trace_id(seed: u64, class: u64, index: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in [seed, class, index] {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h | 1
}
