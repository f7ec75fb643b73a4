//! `ssmc` — exhaustive enumeration of small decision trees.
//!
//! [`walk`] runs a closure once per leaf of the tree its
//! [`Walk::choice`] calls span, depth first: the first run takes branch
//! 0 everywhere, and after each run the deepest decision with branches
//! left advances while everything below it starts over. Where
//! `util::check` samples a large input space at random, this visits a
//! small one completely — `tests/overload.rs` drives the breaker through
//! all 7⁵ event sequences against an independently coded spec.
//!
//! The body must be a pure function of its picks: the arity of a
//! decision may depend on earlier picks (a ragged tree) but on nothing
//! else. Single-threaded, no dependencies, no I/O; a failing assertion
//! in the body is an ordinary panic at its own file and line.
//!
//! ```
//! let mut seen = Vec::new();
//! let leaves = ssmc::walk(|w| {
//!     let a = w.choice(2);
//!     let b = w.choice(3);
//!     seen.push((a, b));
//! });
//! assert_eq!(leaves, 6);
//! assert_eq!(seen.first(), Some(&(0, 0)));
//! assert_eq!(seen.last(), Some(&(1, 2)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The decisions of the run in progress — handed to the body of
/// [`walk`].
pub struct Walk {
    /// `(branch taken, arity)` of each decision on the current path.
    path: Vec<(usize, usize)>,
    /// Decisions the current run has made so far.
    depth: usize,
}

impl Walk {
    /// A decision point with branches `0..n`: across the runs of one
    /// [`walk`], every branch is taken under every combination of the
    /// decisions before it.
    pub fn choice(&mut self, n: usize) -> usize {
        assert!(n > 0, "choice(0) has no branch to take");
        let (taken, arity) = match self.path.get(self.depth) {
            Some(&replayed) => replayed,
            None => {
                self.path.push((0, n));
                (0, n)
            }
        };
        assert_eq!(
            arity, n,
            "decision {} changed arity on replay: the body is not a pure function of its picks",
            self.depth
        );
        self.depth += 1;
        taken
    }
}

/// Runs `body` once per leaf of its decision tree and returns the
/// number of leaves — 1 for a body that never calls [`Walk::choice`].
pub fn walk(mut body: impl FnMut(&mut Walk)) -> u64 {
    let mut w = Walk {
        path: Vec::new(),
        depth: 0,
    };
    let mut leaves = 0;
    loop {
        w.depth = 0;
        body(&mut w);
        leaves += 1;
        assert_eq!(
            w.depth,
            w.path.len(),
            "the body stopped short of its replayed path: it is not a pure function of its picks"
        );
        // Advance the deepest decision that has a branch left; the
        // exhausted ones below it are forgotten and start over at 0.
        loop {
            match w.path.pop() {
                None => return leaves,
                Some((taken, arity)) if taken + 1 < arity => {
                    w.path.push((taken + 1, arity));
                    break;
                }
                Some(_) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choice_covers_every_branch() {
        let mut mask = 0u8;
        let leaves = walk(|w| mask |= 1 << w.choice(3));
        assert_eq!(leaves, 3);
        assert_eq!(mask, 0b111, "all three branches must run");
    }

    #[test]
    fn ragged_tree_visits_each_leaf_once() {
        // The second decision's arity is the first pick plus one, and
        // pick 0 makes no second decision at all: 1 + 2 + 3 leaves.
        let mut seen = Vec::new();
        let leaves = walk(|w| {
            let a = w.choice(3);
            let b = if a == 0 { 0 } else { w.choice(a + 1) };
            seen.push((a, b));
        });
        let expected = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)];
        assert_eq!(seen, expected, "depth-first order, no leaf twice");
        assert_eq!(leaves, 6);
    }

    #[test]
    fn a_body_that_never_picks_runs_once() {
        let mut runs = 0;
        assert_eq!(walk(|_| runs += 1), 1);
        assert_eq!(runs, 1);
    }
}
