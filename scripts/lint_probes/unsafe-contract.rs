//! Former sslint fixture `unsafe-contract`: an excused `unsafe` block
//! that does not say why it is sound.

#[expect(unsafe_code, reason = "the probe is about the missing SAFETY comment")]
pub fn read(v: &u64) -> u64 {
    let p: *const u64 = v;
    unsafe { *p }
}
