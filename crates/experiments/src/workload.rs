//! Fleet workload generation: Zipf popularity over a shared catalog.
//!
//! A fleet world gives every client its own request stream over one
//! catalog of objects. Popularity follows a Zipf distribution — object
//! rank `i` (1-based) is drawn with weight `i^-skew` — which is what
//! makes edge caches pay at all: overlapping working sets turn one
//! client's staged chunks into another's cache hits. The skew parameter
//! is the experiment knob: at `skew = 0` every object is equally likely
//! (no overlap to exploit, the cache thrashes), while high skew
//! concentrates the fleet on a few hot objects.
//!
//! Streams are pure functions of `(base seed, client index)`, derived
//! through [`util::seed::derive`], so a fleet of any size produces the
//! same per-client object lists no matter how many worker threads build
//! worlds or in which order clients are constructed.

use simnet::Rng;

/// A Zipf popularity distribution over a fixed catalog, sampled by
/// inverse CDF.
#[derive(Debug, Clone)]
pub struct ZipfCatalog {
    /// Cumulative normalized weights; `cum[i]` is P(rank ≤ i).
    cum: Vec<f64>,
}

impl ZipfCatalog {
    /// Builds the distribution for `objects` catalog entries with Zipf
    /// exponent `skew` (`0.0` = uniform).
    ///
    /// # Panics
    ///
    /// Panics if `objects` is zero or `skew` is negative/non-finite.
    pub fn new(objects: usize, skew: f64) -> Self {
        assert!(objects > 0, "catalog must hold at least one object");
        assert!(skew >= 0.0 && skew.is_finite(), "skew must be finite, ≥ 0");
        let mut cum = Vec::with_capacity(objects);
        let mut total = 0.0f64;
        for rank in 1..=objects {
            total += (rank as f64).powf(-skew);
            cum.push(total);
        }
        for c in &mut cum {
            *c /= total;
        }
        ZipfCatalog { cum }
    }

    /// Number of objects in the catalog.
    pub fn len(&self) -> usize {
        self.cum.len()
    }

    /// True when the catalog is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.cum.is_empty()
    }

    /// Maps a uniform draw `u ∈ [0, 1)` to an object index (0-based
    /// rank; index 0 is the most popular object).
    pub fn sample(&self, u: f64) -> usize {
        self.cum
            .partition_point(|&c| c <= u)
            .min(self.cum.len() - 1)
    }
}

/// The deterministic list of distinct objects client `client` requests,
/// in request order.
///
/// Sampling repeats Zipf draws until `count` distinct objects have been
/// seen, so popular objects appear in most clients' lists (the shared
/// working set) while the tail differs per client. The stream seed is
/// `derive(base_seed, "fleet/workload", client + 1)` — the `+ 1` keeps
/// client 0 off the replicate-0 identity path, which would otherwise
/// alias its stream with the base seed's other uses.
///
/// # Panics
///
/// Panics if `count` exceeds the catalog size (the stream could never
/// terminate).
#[expect(
    clippy::indexing_slicing,
    reason = "ZipfCatalog::sample returns an index below catalog.len()"
)]
pub(crate) fn client_objects(
    catalog: &ZipfCatalog,
    base_seed: u64,
    client: u32,
    count: usize,
) -> Vec<usize> {
    assert!(
        count <= catalog.len(),
        "cannot request {count} distinct objects from a {}-object catalog",
        catalog.len()
    );
    let seed = util::seed::derive(base_seed, "fleet/workload", client.wrapping_add(1));
    let mut rng = Rng::seed_from_u64(seed);
    let mut picked = Vec::with_capacity(count);
    let mut seen = vec![false; catalog.len()];
    while picked.len() < count {
        let idx = catalog.sample(rng.gen_range_f64(0.0, 1.0));
        if !seen[idx] {
            seen[idx] = true;
            picked.push(idx);
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_catalog_has_linear_cdf() {
        let c = ZipfCatalog::new(4, 0.0);
        assert_eq!(c.len(), 4);
        assert_eq!(c.sample(0.0), 0);
        assert_eq!(c.sample(0.26), 1);
        assert_eq!(c.sample(0.51), 2);
        assert_eq!(c.sample(0.99), 3);
    }

    #[test]
    fn skew_concentrates_mass_on_low_ranks() {
        // At skew 1.0 over 100 objects, the top 10 ranks hold well over
        // a third of the mass; at skew 0 they hold exactly 10%.
        let skewed = ZipfCatalog::new(100, 1.0);
        let flat = ZipfCatalog::new(100, 0.0);
        let top10 = |c: &ZipfCatalog| c.cum[9];
        assert!(top10(&skewed) > 0.35, "got {}", top10(&skewed));
        assert!((top10(&flat) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn sample_clamps_at_the_last_rank() {
        let c = ZipfCatalog::new(3, 1.0);
        // Even a pathological u == 1.0 (outside the half-open contract)
        // stays in range rather than indexing past the catalog.
        assert_eq!(c.sample(1.0), 2);
    }

    #[test]
    fn streams_are_deterministic_and_distinct_per_client() {
        let c = ZipfCatalog::new(64, 0.8);
        let a1 = client_objects(&c, 42, 7, 12);
        let a2 = client_objects(&c, 42, 7, 12);
        assert_eq!(a1, a2, "same (seed, client) must replay identically");
        assert_eq!(a1.len(), 12);
        // All distinct.
        let mut sorted = a1.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 12);
        // A different client or base seed moves the stream.
        assert_ne!(client_objects(&c, 42, 8, 12), a1);
        assert_ne!(client_objects(&c, 43, 7, 12), a1);
    }

    #[test]
    fn popular_objects_recur_across_clients() {
        // With strong skew, the hottest object shows up in nearly every
        // client's working set — the overlap edge caching depends on.
        let c = ZipfCatalog::new(256, 1.2);
        let hits = (0..40u32)
            .filter(|&cl| client_objects(&c, 7, cl, 8).contains(&0))
            .count();
        assert!(hits >= 30, "object 0 in only {hits}/40 working sets");
    }

    #[test]
    #[should_panic(expected = "distinct objects")]
    fn requesting_more_than_the_catalog_panics() {
        let c = ZipfCatalog::new(4, 1.0);
        let _ = client_objects(&c, 1, 0, 5);
    }
}
