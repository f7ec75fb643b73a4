//! Former sslint fixture `panic`: an unwrap and a computed index in
//! library code.

pub fn first(v: &[u32]) -> u32 {
    *v.first().unwrap()
}

pub fn after(v: &[u32], i: usize) -> u32 {
    v[i + 1]
}
