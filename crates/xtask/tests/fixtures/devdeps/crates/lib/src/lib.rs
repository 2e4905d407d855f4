//! Fixture: a kernel calling a `last` that only its dev-dependency has,
//! which the build cannot link it to.

// analyze: no_panic
pub fn lib_kernel(v: &[u32]) -> u32 {
    last(v)
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_the_helper() {
        assert_eq!(fx_helper::last(&[3]), 3);
    }
}
