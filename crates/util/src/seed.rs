//! Deterministic seed derivation for replicated experiments.
//!
//! An experiment grid wants one user-facing base seed, yet every
//! (cell, replicate) pair must get a stable stream of its own — results
//! may never depend on which worker thread picked a cell up, or on the
//! order cells were declared in. [`derive`] gives each pair a seed that
//! is a pure function of `(base, key, replicate)`:
//!
//! - **replicate 0 is the canonical run**: it returns `base` unchanged,
//!   so single-shot results stay comparable across cells and with
//!   previously published tables,
//! - **replicates ≥ 1** mix the base seed, an FNV-1a hash of the cell
//!   key and the replicate index through the splitmix64 finalizer.
//!
//! The exact values are pinned by golden tests below: changing this
//! function silently shifts every replicated experiment, so it must be
//! a deliberate, reviewed act.

/// The golden-ratio increment a splitmix64 stream advances its state by.
pub(crate) const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 output mix (Steele, Lea & Flood; also xoshiro's
/// recommended seeder): one step of the stream whose state is `z`.
/// Bijective over `u64`.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a (64-bit) over `bytes` — a stable, dependency-free hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Derives the seed for one `(cell key, replicate)` pair from `base`.
///
/// Replicate 0 returns `base` itself (the canonical run); replicate
/// `r ≥ 1` chains `base`, the hashed key and `r` through [`splitmix64`]
/// so distinct cells and distinct replicates land in uncorrelated
/// streams.
pub fn derive(base: u64, key: &str, replicate: u32) -> u64 {
    if replicate == 0 {
        return base;
    }
    let mixed = splitmix64(base ^ fnv1a(key.as_bytes()));
    splitmix64(mixed ^ u64::from(replicate))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden values: replication results silently shift if any of these
    /// change, so they are pinned exactly.
    #[test]
    fn derivation_is_pinned() {
        // Canonical replicate passes the base seed through untouched.
        assert_eq!(derive(42, "fig6a/chunk-0.25", 0), 42);
        assert_eq!(derive(7, "anything", 0), 7);
        // splitmix64 reference vector (seed 0 state advance).
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        // Derived replicates, pinned.
        assert_eq!(derive(42, "fig6a/chunk-0.25", 1), 0xC93E_E361_504C_A9A2);
        assert_eq!(derive(42, "fig6a/chunk-0.25", 2), 0xBB17_0064_FD10_BB34);
        assert_eq!(derive(42, "fig6f/rtt-50", 1), 0x5B22_CEED_600A_D86D);
    }

    #[test]
    fn distinct_cells_and_replicates_decorrelate() {
        let a1 = derive(42, "cell-a", 1);
        let a2 = derive(42, "cell-a", 2);
        let b1 = derive(42, "cell-b", 1);
        assert_ne!(a1, a2);
        assert_ne!(a1, b1);
        // A different base seed moves every derived stream.
        assert_ne!(derive(43, "cell-a", 1), a1);
    }
}
