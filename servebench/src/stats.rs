//! Exact sample statistics. Every quantile the benchmark prints comes
//! from the full set of recorded samples, never from a histogram bucket.

/// A set of raw samples (nanoseconds, counts, ...), sorted on demand.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, v: u64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Nearest-rank quantile: the smallest sample `v` such that at least
    /// `q * n` samples are `<= v`. `None` without samples.
    pub fn quantile(&mut self, q: f64) -> Option<u64> {
        if self.values.is_empty() {
            return None;
        }
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
        let n = self.values.len();
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
        Some(self.values[rank - 1])
    }

    /// Number of samples strictly above quantile `q` — how many samples
    /// a tail quantile rests on.
    pub fn beyond(&mut self, q: f64) -> usize {
        match self.quantile(q) {
            Some(v) => self.values.iter().filter(|&&x| x > v).count(),
            None => 0,
        }
    }
}

/// Nanoseconds to microseconds, keeping every digit.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::Rng;

    /// Brute force: the quantile is the smallest sample value whose
    /// count of samples at or below it reaches `q * n`.
    fn brute(values: &[u64], q: f64) -> u64 {
        let n = values.len() as f64;
        let mut candidates: Vec<u64> = values.to_vec();
        candidates.sort_unstable();
        candidates.dedup();
        for v in candidates {
            let at_or_below = values.iter().filter(|&&x| x <= v).count() as f64;
            if at_or_below >= (q * n).ceil().max(1.0) {
                return v;
            }
        }
        unreachable!("the largest sample always qualifies")
    }

    #[test]
    fn quantiles_match_brute_force() {
        let mut rng = Rng::new(7);
        for case in 0..200 {
            let n = 1 + (rng.next() % 300) as usize;
            // Small value ranges force ties; large ones do not.
            let range = if case % 2 == 0 { 10 } else { 1_000_000 };
            let values: Vec<u64> = (0..n).map(|_| rng.next() % range).collect();
            let mut s = Samples::new();
            for &v in &values {
                s.push(v);
            }
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(s.quantile(q), Some(brute(&values, q)), "n={n} q={q}");
            }
        }
    }

    #[test]
    fn empty_and_tail_counts() {
        let mut s = Samples::new();
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.beyond(0.5), 0);
        for v in 1..=100 {
            s.push(v);
        }
        assert_eq!(s.quantile(0.5), Some(50));
        assert_eq!(s.quantile(0.9), Some(90));
        assert_eq!(s.beyond(0.9), 10);
    }
}
