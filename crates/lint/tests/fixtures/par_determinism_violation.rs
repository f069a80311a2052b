//! Fixture: the `par-determinism` hazard — a captured float accumulator
//! inside an unordered `sr-par` closure, whose merge order depends on
//! chunk completion order. (Hash-keyed state inside these closures is
//! clippy's `disallowed_types`; see `par_hash_violation.rs`.)

pub fn tally(pool: &sr_par::Pool, parts: &mut [Vec<f64>]) -> f64 {
    let mut total = 0.0;
    pool.for_each_part(parts, |part| {
        for x in part.iter_mut() {
            total += *x;
        }
    });
    total
}
