//! Seeded input generation.  The same seed always yields the same rows;
//! generation is never part of a timed region or of `setup_s`.

use madlib_engine::{Row, Schema, Table, Value};

/// SplitMix64: a small, fast, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` of `seed`, so each input family draws from
    /// its own sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.uniform() * n as f64) as usize % n.max(1)
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.uniform().max(1e-300);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// `n` standard normals.
    pub fn normals(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.normal()).collect()
    }
}

/// `rows` group keys covering `0..groups` as evenly as possible, in random
/// order, so every group exists and each chunk mixes many groups.
pub fn shuffled_keys(rng: &mut Rng, rows: usize, groups: usize) -> Vec<i64> {
    let mut keys: Vec<i64> = (0..rows).map(|i| (i % groups) as i64).collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i + 1));
    }
    keys
}

/// Samples ranks `0..n` with Zipf(1) weights `1 / (rank + 1)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks.
    pub fn new(n: usize) -> Self {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                total += 1.0 / (r as f64 + 1.0);
                total
            })
            .collect();
        Self { cumulative }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("at least one rank");
        let u = rng.uniform() * total;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// A feature vector with a leading intercept term of 1.
pub fn features(rng: &mut Rng, width: usize) -> Vec<f64> {
    let mut x = rng.normals(width);
    x[0] = 1.0;
    x
}

/// Dot product.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Builds a table from rows: the load step every workload's set-up times.
///
/// # Errors
/// Propagates schema mismatches.
pub fn load_table(schema: &Schema, segments: usize, rows: &[Row]) -> madlib_engine::Result<Table> {
    let mut table = Table::new(schema.clone(), segments)?;
    table.insert_all(rows.iter().cloned())?;
    Ok(table)
}

/// Bytes of user data in `rows`: 8 per scalar and per array element.
pub fn user_bytes(rows: &[Row]) -> u64 {
    rows.iter()
        .flat_map(|r| r.values().iter())
        .map(|v| match v {
            Value::DoubleArray(xs) => 8 * xs.len() as u64,
            Value::IntArray(xs) => 8 * xs.len() as u64,
            Value::Text(s) => s.len() as u64,
            Value::TextArray(xs) => xs.iter().map(|s| s.len() as u64).sum(),
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Double(_) => 8,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c = Rng::new(7, 2).next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
    }

    #[test]
    fn shuffled_keys_cover_every_group_evenly() {
        let keys = shuffled_keys(&mut Rng::new(1, 1), 40_000, 4_096);
        let mut counts = vec![0usize; 4_096];
        for k in keys {
            counts[k as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 9 || c == 10));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(256);
        let mut rng = Rng::new(3, 3);
        let draws: Vec<usize> = (0..10_000).map(|_| z.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&r| r < 256));
        let top = draws.iter().filter(|&&r| r == 0).count();
        let mid = draws.iter().filter(|&&r| r == 100).count();
        assert!(top > 10 * mid.max(1));
    }
}
