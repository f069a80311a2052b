//! Fixture: justified nondeterministic types — a lookup-only map, and a
//! telemetry crate that waives the clock once at its root (as sr-obs and
//! the sr-bench binaries do).
#![expect(
    clippy::disallowed_methods,
    reason = "a telemetry crate: wall-clock readings land in the run report only"
)]

use std::time::Instant;

#[expect(
    clippy::disallowed_types,
    reason = "lookup-only: ids are assigned from the names vector in insertion order and the map is never iterated"
)]
pub mod interner {
    use std::collections::HashMap;

    #[derive(Default)]
    pub struct Interner {
        ids: HashMap<String, u32>,
        names: Vec<String>,
    }

    impl Interner {
        pub fn intern(&mut self, name: &str) -> u32 {
            *self.ids.entry(name.to_string()).or_insert_with(|| {
                self.names.push(name.to_string());
                u32::try_from(self.names.len() - 1).unwrap_or(u32::MAX)
            })
        }
    }
}

pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u128) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos())
}
