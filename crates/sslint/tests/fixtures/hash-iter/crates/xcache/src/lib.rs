#![forbid(unsafe_code)]
use std::collections::HashMap as M;

/// Iteration through an alias: no `HashMap` token here, so the ban has to
/// land on the `use` that introduces the alias.
pub fn it(m: &M<u8, u8>) -> usize {
    m.iter().count()
}

/// A bare field, never iterated: the type itself is the finding.
pub struct Store {
    entries: std::collections::HashMap<u64, u64>,
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    #[test]
    fn scratch_sets_are_fine_in_tests() {
        assert!(HashSet::<u8>::new().is_empty());
    }
}
