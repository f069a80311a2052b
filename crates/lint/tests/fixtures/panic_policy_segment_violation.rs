//! Fixture: panics in the segment container's span split — a corrupt
//! segment table must surface as a typed `GraphError`, never a crash.

#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#[deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
pub mod segment {
    pub fn split(degrees: &[u64], items: u64) -> Vec<u64> {
        let mut prefix = vec![0u64];
        for &d in degrees {
            prefix.push(prefix.last().unwrap() + d);
        }
        if *prefix.last().expect("non-empty") != items {
            unreachable!("skip-scan disagrees with the segment table");
        }
        prefix
    }
}
