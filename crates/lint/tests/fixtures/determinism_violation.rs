//! Fixture: nondeterminism in a solve path — a wall-clock read and a
//! hash-ordered iteration, both of which break bit-identical replays.

use std::collections::HashMap;
use std::time::Instant;

pub fn solve_with_budget(weights: HashMap<u32, f64>) -> (f64, u128) {
    let t0 = Instant::now();
    let mut acc = 0.0;
    for w in weights.values() {
        acc += w;
    }
    (acc, t0.elapsed().as_nanos())
}
