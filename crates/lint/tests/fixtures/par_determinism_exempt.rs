//! Fixture: the same shapes made deterministic or audited — chunk-local
//! accumulators, deref-assignment through a chunk-exclusive `&mut`, an
//! ordered `pipeline_while` stage, and one justified captured counter.

pub fn fold(pool: &sr_par::Pool, parts: &mut [Vec<f64>]) -> u64 {
    let mut hits = 0u64;
    pool.for_each_part(parts, |part| {
        let mut acc = 0.0;
        for x in part.iter_mut() {
            acc += *x;
        }
        for (slot, v) in part.iter_mut().zip([acc]) {
            *slot += v;
        }
        // lint-ok(par-determinism): u64 addition is associative and
        // commutative — chunk completion order cannot change the sum
        hits += 1;
    });
    hits
}

pub fn ordered_while(pool: &sr_par::Pool, items: &mut [f64]) -> f64 {
    let mut total = 0.0;
    pool.pipeline_while(items, |x| {
        total += *x;
    });
    total
}
