//! Fixture: hash-keyed state inside `sr-par` closures — a `HashMap` in an
//! unordered `for_each_part` chunk and a `HashSet` in an ordered
//! `pipeline_while` stage. Iteration order varies per process, so merged
//! results differ run to run; clippy's `disallowed_types` denies both, in
//! a closure as anywhere else. `Pool` stands in for `sr_par::Pool` so the
//! file compiles on its own.

pub struct Pool;

impl Pool {
    pub fn for_each_part<T>(&self, parts: &mut [T], f: impl FnMut(&mut T)) {
        parts.iter_mut().for_each(f);
    }

    pub fn pipeline_while<T>(&self, items: &mut [T], f: impl FnMut(&mut T)) {
        items.iter_mut().for_each(f);
    }
}

pub fn tally(pool: &Pool, parts: &mut [Vec<f64>]) {
    pool.for_each_part(parts, |part| {
        let mut seen = std::collections::HashMap::new();
        for x in part.iter() {
            seen.insert(x.to_bits(), *x);
        }
    });
}

pub fn drain(pool: &Pool, items: &mut [f64]) {
    pool.pipeline_while(items, |x| {
        let mut seen = std::collections::HashSet::new();
        seen.insert(x.to_bits());
    });
}
