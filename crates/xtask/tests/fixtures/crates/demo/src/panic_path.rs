//! Fixture: a call sink two hops and an index sink one hop below kernels.

// analyze: no_panic
pub fn kernel(v: &[u32]) -> u32 {
    middle(v)
}

fn middle(v: &[u32]) -> u32 {
    bottom(v)
}

fn bottom(v: &[u32]) -> u32 {
    v.first().unwrap() + 1
}

// analyze: no_panic
pub fn pick_kernel(v: &[u32], k: usize) -> u32 {
    pick(v, k)
}

fn pick(v: &[u32], k: usize) -> u32 {
    v[k]
}
