#![forbid(unsafe_code)]

/// Never referenced outside this crate.
pub fn orphan() -> u32 {
    7
}

// sslint: allow(dead-pub) — comments silence nothing; this item still fires
pub const LIMIT: u32 = 3;

pub static NAME: &str = "util";

pub const fn doubled(x: u32) -> u32 {
    x * 2
}

/// # Safety
/// Nothing to uphold: the fixture only needs the qualifier.
pub unsafe fn raw() {}

pub struct S {
    pub x: u32,
}

impl S {
    pub fn method(&self) -> u32 {
        self.x
    }
}

pub trait Shape {
    fn area(&self) -> u32;
}

impl Shape for S {
    fn area(&self) -> u32 {
        self.x
    }
}

pub(crate) fn internal() {}

macro_rules! template {
    () => {
        pub fn templated() {}
    };
}

/// Named by `xcache`, so it is live.
pub fn used() -> u32 {
    1
}

#[cfg(test)]
mod tests {
    pub fn helper() {}
}
