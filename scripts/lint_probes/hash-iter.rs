//! Former sslint fixture `hash-iter`: hash-ordered collections, one of
//! them behind an alias.

use std::collections::HashMap as M;

/// Iteration through an alias: no `HashMap` token here, so the ban has to
/// land on the `use` that introduces the alias.
pub fn it(m: &M<u8, u8>) -> usize {
    m.iter().count()
}

/// A bare field, never iterated: the type itself is the finding.
pub struct Store {
    pub entries: std::collections::HashMap<u64, u64>,
}
