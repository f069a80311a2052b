//! Fixture: `par-determinism` hazards — hash-keyed state built inside an
//! unordered `sr-par` closure, a captured float accumulator whose merge
//! order depends on chunk completion order, and hash-keyed state inside an
//! ordered `pipeline_while` stage. (The hash tokens sit inside the closures
//! on purpose: outside a par region they belong to the line-based
//! `determinism` rule instead.)

pub fn tally(pool: &sr_par::Pool, parts: &mut [Vec<f64>]) -> f64 {
    let mut total = 0.0;
    pool.for_each_part(parts, |part| {
        let mut seen = std::collections::HashMap::new();
        for x in part.iter_mut() {
            seen.insert(0u32, *x);
            total += *x;
        }
    });
    total
}

pub fn drain(pool: &sr_par::Pool, items: &mut [f64]) {
    pool.pipeline_while(items, |x| {
        let mut seen = std::collections::HashSet::new();
        seen.insert(x.to_bits());
    });
}
