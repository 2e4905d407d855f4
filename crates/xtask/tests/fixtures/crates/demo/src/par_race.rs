//! Fixture: spawned closures of the workspace's one fork shape
//! (`std::thread::scope` + `scope.spawn`) mutating shared state — one
//! `static mut` reached through a call, one direct push into a captured
//! `&mut Vec`.

static mut TOTAL: u64 = 0;

fn tally(row: u64) {
    unsafe { TOTAL += row };
}

pub fn fan_out(rows: &[u64]) {
    std::thread::scope(|scope| {
        for chunk in rows.chunks(2) {
            scope.spawn(move || tally(chunk[0]));
        }
    });
}

pub fn collect_into(rows: &[u64], out: &mut Vec<u64>) {
    std::thread::scope(|scope| {
        scope.spawn(|| out.push(rows.len() as u64));
    });
}
