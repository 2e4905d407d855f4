//! Fixture: suppression markers that no longer suppress anything.

pub fn calm(x: u64) -> u64 {
    // analyze: allow(panic_path): dead — nothing below can panic
    x + 1
}

pub fn typod(x: u64) -> u64 {
    // analyze: allow(no_such_rule): rule name typo
    x + 2
}

pub fn retired(v: &mut Vec<u64>) {
    // analyze: allow(hot_alloc): names a rule the analyzer no longer has
    v.push(3);
}
