#![forbid(unsafe_code)]

pub(crate) fn first(v: &[u32]) -> u32 {
    *v.first().unwrap()
}

pub(crate) fn after(v: &[u32], i: usize) -> u32 {
    v[i + 1]
}
