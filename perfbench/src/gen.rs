//! Seeded input generation. Every workload input — the order of the
//! design-space axes, the use-case synthetic data the simulator runs
//! on, and the serve request stream — is derived here from the
//! `--seed` argument; the program only ever sees the resulting
//! `DesignSpace`s and JSON request lines.

use argo_core::SchedulerKind;
use argo_dse::{DesignSpace, PlatformKind};
use argo_htg::Granularity;

/// SplitMix64: tiny, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_A560_BE4C_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

const APPS: [&str; 3] = ["egpws", "weaa", "polka"];
const PLATFORMS: [PlatformKind; 2] = [PlatformKind::Bus, PlatformKind::Noc];
const CORES: [usize; 4] = [1, 2, 4, 8];
const GRANULARITIES: [Granularity; 3] = [Granularity::Loop, Granularity::Block, Granularity::Stmt];

/// Builds a space whose axis values are listed in a seeded order. The
/// order changes which points the executor evaluates first (and so the
/// row order of the report), never which points exist.
fn shuffled_space(
    rng: &mut Rng,
    seed: u64,
    apps: &[&str],
    cores: &[usize],
    schedulers: &[SchedulerKind],
    granularities: &[Granularity],
) -> DesignSpace {
    let mut apps: Vec<String> = apps.iter().map(|a| a.to_string()).collect();
    let mut platforms = PLATFORMS.to_vec();
    let mut cores = cores.to_vec();
    let mut schedulers = schedulers.to_vec();
    let mut granularities = granularities.to_vec();
    rng.shuffle(&mut apps);
    rng.shuffle(&mut platforms);
    rng.shuffle(&mut cores);
    rng.shuffle(&mut schedulers);
    rng.shuffle(&mut granularities);
    DesignSpace::new()
        .apps(apps)
        .platforms(platforms)
        .cores(cores)
        .schedulers(schedulers)
        .granularities(granularities)
        .seed(seed)
}

/// dse-cold: 3 apps × bus,noc × 1,2,4,8 cores × list,anneal
/// × loop,block,stmt = 144 points.
pub fn heuristic_lattice(seed: u64) -> Vec<DesignSpace> {
    let mut rng = Rng::new(seed);
    vec![shuffled_space(
        &mut rng,
        seed,
        &APPS,
        &CORES,
        &[SchedulerKind::List, SchedulerKind::Anneal],
        &GRANULARITIES,
    )]
}

/// dse-exact: branch-and-bound only, loop granularity. egpws on 2,4,8
/// cores mixes searches that complete (2, 4) with ones that stop at
/// the node budget (8); polka on 2,4,5 cores adds larger graphs whose
/// searches still complete. Sized to about a second per sweep on two
/// threads so a run holds several sweeps.
pub fn exact_lattice(seed: u64) -> Vec<DesignSpace> {
    let mut rng = Rng::new(seed);
    let bnb = [SchedulerKind::BranchAndBound];
    let lp = [Granularity::Loop];
    vec![
        shuffled_space(&mut rng, seed, &["egpws"], &[2, 4, 8], &bnb, &lp),
        shuffled_space(&mut rng, seed, &["polka"], &[2, 4, 5], &bnb, &lp),
    ]
}

/// One distinct serve point spec (3 × 2 × 4 × 2 × 3 × 3 = 432 of them).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Spec {
    pub app: &'static str,
    pub platform: &'static str,
    pub cores: usize,
    pub scheduler: &'static str,
    pub granularity: &'static str,
    pub mhp: &'static str,
}

impl Spec {
    /// The request line for this spec (`kind` is `compile` or `verify`).
    pub fn line(&self, id: usize, kind: &str, seed: u64) -> String {
        format!(
            "{{\"id\":{id},\"kind\":\"{kind}\",\"app\":\"{}\",\"platform\":\"{}\",\"cores\":{},\
             \"scheduler\":\"{}\",\"granularity\":\"{}\",\"mhp\":\"{}\",\"seed\":{seed}}}",
            self.app, self.platform, self.cores, self.scheduler, self.granularity, self.mhp
        )
    }
}

fn all_specs() -> Vec<Spec> {
    let mut out = Vec::with_capacity(432);
    for app in APPS {
        for platform in ["bus", "noc"] {
            for cores in CORES {
                for scheduler in ["list", "anneal"] {
                    for granularity in ["loop", "block", "stmt"] {
                        for mhp in ["naive", "static", "windows"] {
                            out.push(Spec {
                                app,
                                platform,
                                cores,
                                scheduler,
                                granularity,
                                mhp,
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

/// One request of the serve stream.
#[derive(Debug, Clone)]
pub struct Request {
    pub verify: bool,
    pub spec: Spec,
    /// First occurrence of this (kind, spec) fingerprint in the stream.
    pub fresh: bool,
}

const STREAM_LEN: usize = 1200;
const VERIFY_REQUESTS: usize = 120;
/// Distinct specs asked for with `compile` and with `verify`: together
/// one request in five is a fresh fingerprint. Compile and verify never
/// share a point, so no compile/verify pair of one point can race to
/// the point archive: pipeline executions then equal distinct points,
/// exactly, however the clients interleave.
const COMPILE_SPECS: usize = 216;
const VERIFY_SPECS: usize = 24;

/// The serve-mixed request stream. The set of distinct specs is the
/// same for every seed (a fixed draw from the 432), so the pipeline
/// work and the output-quality metrics do not depend on the seed; the
/// seed decides which requests are `verify` (120 of 1200), where the
/// fresh fingerprints fall, in which order the specs first appear, and
/// the repeats, drawn with skew toward the earliest (most popular)
/// specs of their kind.
pub fn serve_stream(seed: u64) -> Vec<Request> {
    let mut specs = all_specs();
    Rng::new(0x5E4E).shuffle(&mut specs);
    specs.truncate(COMPILE_SPECS + VERIFY_SPECS);
    let verify_pool = specs.split_off(COMPILE_SPECS);
    let mut pools = [specs, verify_pool];

    let mut rng = Rng::new(seed);
    for pool in &mut pools {
        rng.shuffle(pool);
    }
    let mut kinds: Vec<usize> = (0..STREAM_LEN)
        .map(|i| usize::from(i < VERIFY_REQUESTS))
        .collect();
    rng.shuffle(&mut kinds);
    // Per kind, which of its requests are fresh: the first one, plus a
    // seeded choice of the rest.
    let mut fresh_at: [Vec<bool>; 2] = [0, 1].map(|k| {
        let n = kinds.iter().filter(|&&x| x == k).count();
        let mut flags: Vec<bool> = (0..n - 1).map(|i| i < pools[k].len() - 1).collect();
        rng.shuffle(&mut flags);
        flags.insert(0, true);
        flags.reverse();
        flags
    });
    let mut taken = [0usize; 2];
    kinds
        .into_iter()
        .map(|kind| {
            let fresh = fresh_at[kind].pop().expect("one flag per request");
            let n = &mut taken[kind];
            let idx = if fresh {
                *n += 1;
                *n - 1
            } else {
                // u² skews toward low indices: early specs stay hot.
                let u = rng.unit();
                ((u * u * *n as f64) as usize).min(*n - 1)
            };
            Request {
                verify: kind == 1,
                spec: pools[kind][idx].clone(),
                fresh,
            }
        })
        .collect()
}
