//! Fixture: panic sinks in a crate `app` depends on and `lib` only
//! dev-depends on.

pub fn first(v: &[u32]) -> u32 {
    *v.first().expect("nonempty")
}

pub fn last(v: &[u32]) -> u32 {
    *v.last().expect("nonempty")
}
