//! Fixture: panics in an `sr-graph::io` reader path — corrupt input must
//! surface as a typed `IoError`, never a crash. The `deny` is the one
//! `crates/graph/src/lib.rs` puts on its reader modules.

#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#[deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
pub mod io {
    pub fn read_header(line: &str) -> usize {
        let field = line.split(' ').nth(1).unwrap();
        let n: usize = field.parse().expect("count");
        if n == 0 {
            panic!("empty graph");
        }
        n
    }
}
