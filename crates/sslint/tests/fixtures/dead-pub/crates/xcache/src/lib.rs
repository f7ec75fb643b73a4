#![forbid(unsafe_code)]

pub fn one() -> u32 {
    util::used()
}
