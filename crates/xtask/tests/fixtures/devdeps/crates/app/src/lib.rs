//! Fixture: a kernel whose call reaches a dependency's panic sink.

// analyze: no_panic
pub fn app_kernel(v: &[u32]) -> u32 {
    first(v)
}
