//! Fixture: one violation per line rule, plus both marker prefixes —
//! a justified `analyze:` marker suppresses, the retired `lint:` one
//! does not.

use rayon::prelude::*;

pub fn first(v: &[u32]) -> u32 {
    *v.first().unwrap()
}

pub fn narrow(row: usize) -> u32 {
    row as u32
}

pub fn justified(row: usize) -> u32 {
    // analyze: allow(id_cast): rows < 1024 by the caller's contract
    row as u32
}

pub fn retired(x: Option<u32>) -> u32 {
    // lint: allow(no_panic): the old prefix suppresses nothing
    x.unwrap()
}

pub fn gather(v: &[u64], idx: &[usize]) -> Vec<u64> {
    idx.par_iter().map(|&i| v[i]).collect()
}
