//! Seeded input synthesis and the benchmark's own plaintext oracle.
//!
//! Inputs are generated here, not by the repository's dataset crate, so a
//! change to the program cannot change what the benchmark feeds it: the
//! program only ever sees the vectors this module produces from `--seed`.

/// SplitMix64: a small, fast, seedable generator. Same seed, same stream.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
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

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn gaussian(&mut self) -> f64 {
        let u1 = self.unit().max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// The shape of one workload's vectors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// 128-d clustered histograms, clamped to `[0, 255]` and rounded to
    /// integers like SIFT descriptors.
    Sift,
    /// 96-d clustered CNN-style descriptors on the unit sphere, like Deep1B.
    Deep,
}

impl Profile {
    pub fn dim(self) -> usize {
        match self {
            Profile::Sift => 128,
            Profile::Deep => 96,
        }
    }

    fn clusters(self) -> usize {
        match self {
            Profile::Sift => 64,
            Profile::Deep => 40,
        }
    }
}

/// An endless seeded stream of vectors of one profile. Base vectors,
/// queries and vectors inserted during a run come from separate streams
/// over the same cluster centres, so queries and inserts land where the
/// data is.
#[derive(Clone)]
pub struct Source {
    profile: Profile,
    centers: Vec<Vec<f64>>,
    rng: Rng,
}

impl Source {
    fn next(&mut self) -> Vec<f64> {
        let c = &self.centers[self.rng.below(self.centers.len())];
        match self.profile {
            Profile::Sift => c
                .iter()
                .map(|x| (x + 25.0 * self.rng.gaussian()).clamp(0.0, 255.0).round())
                .collect(),
            Profile::Deep => {
                let mut v: Vec<f64> = c.iter().map(|x| x + 0.35 * self.rng.gaussian()).collect();
                let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-12);
                v.iter_mut().for_each(|x| *x /= norm);
                v
            }
        }
    }

    pub fn take(&mut self, count: usize) -> Vec<Vec<f64>> {
        (0..count).map(|_| self.next()).collect()
    }
}

/// The three independent streams of one workload seed.
pub struct Streams {
    pub base: Source,
    pub queries: Source,
    pub inserts: Source,
}

impl Streams {
    pub fn new(profile: Profile, seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x005E_ED0F_BE7C);
        let (lo, hi) = match profile {
            Profile::Sift => (20.0, 180.0),
            Profile::Deep => (-1.0, 1.0),
        };
        let centers: Vec<Vec<f64>> = (0..profile.clusters())
            .map(|_| (0..profile.dim()).map(|_| lo + (hi - lo) * rng.unit()).collect())
            .collect();
        let mut source = |salt: u64| Source {
            profile,
            centers: centers.clone(),
            rng: Rng::new(rng.next_u64() ^ salt),
        };
        Self { base: source(1), queries: source(2), inserts: source(3) }
    }
}

pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Exact k nearest ids among `live` (id, vector) pairs, closest first;
/// ties break towards the smaller id.
pub fn brute_force<'a>(
    live: impl Iterator<Item = (u32, &'a [f64])>,
    q: &[f64],
    k: usize,
) -> Vec<u32> {
    let mut best: Vec<(f64, u32)> = Vec::with_capacity(k + 1);
    for (id, v) in live {
        let d = sq_dist(q, v);
        if best.len() == k && (d, id) >= best[k - 1] {
            continue;
        }
        let at = best.partition_point(|e| *e < (d, id));
        best.insert(at, (d, id));
        best.truncate(k);
    }
    best.into_iter().map(|(_, id)| id).collect()
}

/// Recall@k of `got` against the exact answer `truth`.
pub fn recall(truth: &[u32], got: &[u32]) -> f64 {
    let hits = got.iter().filter(|id| truth.contains(id)).count();
    hits as f64 / truth.len().max(1) as f64
}
