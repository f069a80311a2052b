//! Fixture: the panic family is denied in the reader modules only. The
//! writer half of `io` may waive an infallible unwrap; the same unwrap
//! outside a reader module needs no waiver.

#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#[deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
pub mod io {
    use std::fmt::Write as _;

    pub fn render_header(n: usize) -> String {
        let mut s = String::new();
        #[expect(
            clippy::unwrap_used,
            reason = "write! to a String is infallible; this is the writer path, not a reader"
        )]
        write!(s, "#sources {n}").unwrap();
        s
    }
}

pub mod csr {
    pub fn first(row: &[u32]) -> u32 {
        *row.first().unwrap()
    }
}
