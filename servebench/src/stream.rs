//! Seeded request streams. The workload seed decides every request the
//! generator sends; the same seed always yields the same stream.

/// xorshift64* seeded through splitmix64, so nearby seeds give
/// unrelated streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)).max(1))
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(`s`) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        *cdf.last_mut().expect("n > 0") = 1.0;
        Zipf { cdf }
    }

    #[cfg(test)]
    pub fn cdf(&self) -> &[f64] {
        &self.cdf
    }

    /// The rank whose CDF interval `[cdf[r-1], cdf[r])` holds `u`.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.rank(rng.unit())
    }
}

/// Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next() % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

/// The stream seed of one generator connection.
pub fn conn_seed(seed: u64, conn: usize) -> u64 {
    seed ^ 0x5eed_0000_0000_0000u64.wrapping_mul(conn as u64 + 1)
}

/// How a workload picks score queries, as indices into the scorable
/// query list (sorted by concept id, so index 0 is the most popular
/// query under Zipf on every seed).
#[derive(Debug, Clone)]
pub enum Picker {
    /// Independent Zipf(1.0) draws, one stream per connection.
    Zipf { zipf: Zipf, rng: Rng },
    /// One seeded permutation walked cyclically by all connections
    /// through a shared counter: a query comes back only after every
    /// other query has been sent once.
    Cycle { perm: Vec<usize> },
}

impl Picker {
    pub fn zipf(n: usize, seed: u64, conn: usize) -> Self {
        Picker::Zipf {
            zipf: Zipf::new(n, 1.0),
            rng: Rng::new(conn_seed(seed, conn)),
        }
    }

    pub fn cycle(n: usize, seed: u64) -> Self {
        Picker::Cycle {
            perm: permutation(n, seed ^ 0xc01d),
        }
    }

    /// The query of global request `g` (`Cycle`) or this connection's
    /// next draw (`Zipf`, where `g` is ignored).
    pub fn pick(&mut self, g: u64) -> usize {
        match self {
            Picker::Zipf { zipf, rng } => zipf.sample(rng),
            Picker::Cycle { perm } => perm[(g % perm.len() as u64) as usize],
        }
    }
}

/// Share of `seq` whose query is still resident in an LRU of `reach`
/// entries — the repeat share a response cache of that size can serve.
pub fn repeat_share(seq: &[usize], reach: usize) -> f64 {
    if seq.is_empty() || reach == 0 {
        return 0.0;
    }
    let n = seq.iter().max().map_or(0, |m| m + 1);
    let mut last_seen: Vec<Option<usize>> = vec![None; n];
    // Distinct queries touched since position i = number of positions
    // whose last occurrence lies after i; an LRU hit needs fewer than
    // `reach` of them. Fenwick tree over "is the latest occurrence".
    let mut tree = vec![0i64; seq.len() + 1];
    let add = |tree: &mut Vec<i64>, mut i: usize, d: i64| {
        i += 1;
        while i < tree.len() {
            tree[i] += d;
            i += i & i.wrapping_neg();
        }
    };
    let prefix = |tree: &Vec<i64>, mut i: usize| -> i64 {
        let mut s = 0;
        while i > 0 {
            s += tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    };
    let mut hits = 0usize;
    for (pos, &q) in seq.iter().enumerate() {
        if let Some(prev) = last_seen[q] {
            let distinct_since = prefix(&tree, pos) - prefix(&tree, prev + 1);
            if (distinct_since as usize) < reach {
                hits += 1;
            }
            add(&mut tree, prev, -1);
        }
        add(&mut tree, pos, 1);
        last_seen[q] = Some(pos);
    }
    hits as f64 / seq.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_rank_inverts_its_cdf() {
        let z = Zipf::new(70, 1.0);
        let cdf = z.cdf();
        assert!((cdf[69] - 1.0).abs() < 1e-12);
        for r in 0..70 {
            let lo = if r == 0 { 0.0 } else { cdf[r - 1] };
            assert_eq!(z.rank(lo), r, "left edge of rank {r}");
            let mid = (lo + cdf[r]) / 2.0;
            assert_eq!(z.rank(mid), r, "middle of rank {r}");
        }
        assert_eq!(z.rank(0.999_999_999_999), 69);
    }

    #[test]
    fn zipf_frequencies_match_its_cdf() {
        let n = 70;
        let z = Zipf::new(n, 1.0);
        let mut rng = Rng::new(11);
        let draws = 400_000;
        let mut counts = vec![0u64; n];
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        let mut prev = 0.0;
        let mut cum = 0u64;
        for (r, &c) in counts.iter().enumerate() {
            let p = z.cdf()[r] - prev;
            prev = z.cdf()[r];
            let sd = (draws as f64 * p * (1.0 - p)).sqrt();
            let expected = draws as f64 * p;
            assert!(
                (c as f64 - expected).abs() < 5.0 * sd + 1.0,
                "rank {r}: {c} draws, expected {expected:.0} ± {sd:.0}"
            );
            // The empirical CDF tracks the model CDF too.
            cum += c;
            assert!((cum as f64 / draws as f64 - z.cdf()[r]).abs() < 0.005);
        }
    }

    #[test]
    fn cycle_never_repeats_within_cache_reach() {
        // Score-cold: 16-way sharded caches with one entry per shard hold
        // at most 16 responses; two connections keep 2 more in flight.
        let reach = 16 + 2;
        for seed in 0..20 {
            for n in [reach + 1, 40, 70] {
                let mut p = Picker::cycle(n, seed);
                let seq: Vec<usize> = (0..5 * n as u64).map(|g| p.pick(g)).collect();
                let mut last: Vec<Option<usize>> = vec![None; n];
                for (i, &q) in seq.iter().enumerate() {
                    if let Some(j) = last[q] {
                        assert!(i - j > reach, "seed {seed}: query {q} back after {}", i - j);
                    }
                    last[q] = Some(i);
                }
                assert_eq!(repeat_share(&seq, reach), 0.0);
            }
        }
    }

    #[test]
    fn one_seed_one_stream() {
        let draw = |seed: u64, conn: usize| -> Vec<usize> {
            let mut p = Picker::zipf(70, seed, conn);
            (0..1000).map(|g| p.pick(g)).collect()
        };
        assert_eq!(draw(3, 0), draw(3, 0));
        assert_ne!(draw(3, 0), draw(4, 0));
        assert_ne!(draw(3, 0), draw(3, 1), "connections draw independently");
        let cycle = |seed: u64| -> Vec<usize> {
            let mut p = Picker::cycle(70, seed);
            (0..1000).map(|g| p.pick(g)).collect()
        };
        assert_eq!(cycle(9), cycle(9));
        assert_ne!(cycle(9), cycle(10));
    }

    #[test]
    fn repeat_share_matches_a_literal_lru() {
        let mut rng = Rng::new(5);
        for reach in [1, 3, 16] {
            let seq: Vec<usize> = (0..2000).map(|_| (rng.next() % 40) as usize).collect();
            let mut lru: Vec<usize> = Vec::new();
            let mut hits = 0;
            for &q in &seq {
                if let Some(i) = lru.iter().position(|&x| x == q) {
                    hits += 1;
                    lru.remove(i);
                } else if lru.len() == reach {
                    lru.remove(0);
                }
                lru.push(q);
            }
            assert_eq!(repeat_share(&seq, reach), hits as f64 / seq.len() as f64);
        }
    }
}
