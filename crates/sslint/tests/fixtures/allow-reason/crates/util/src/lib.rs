#![forbid(unsafe_code)]

// sslint: allow(dead-pub)
pub fn id(x: u32) -> u32 {
    x
}
